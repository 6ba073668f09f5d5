/**
 * @file
 * Energy model for the Fig. 8 reproduction (§4.3.3).
 *
 * The paper itself estimates UPMEM energy as full-system TDP (370 W)
 * times execution time, because the hardware has no energy counters;
 * the CPU side is measured with RAPL. RAPL is not readable in this
 * environment, so the CPU is modelled the same way: package TDP plus a
 * DRAM term, times execution time. Both estimates and the resulting
 * gain ratio are therefore TDP-based on both sides — documented in
 * DESIGN.md as a substitution.
 */

#ifndef PIMSTM_HOSTAPP_ENERGY_HH
#define PIMSTM_HOSTAPP_ENERGY_HH

#include "sim/config.hh"

namespace pimstm::hostapp
{

/** Energy estimates for one workload at one scale. */
struct EnergyEstimate
{
    double pim_joules = 0;
    double cpu_joules = 0;

    /** The paper's energy gain: CPU energy over PIM energy. */
    double
    gain() const
    {
        return pim_joules > 0 ? cpu_joules / pim_joules : 0.0;
    }
};

/** PIM energy: system TDP scaled by the fraction of DPUs in use. */
inline double
pimEnergyJoules(double seconds, unsigned dpus_used)
{
    const double fraction =
        std::min(1.0, static_cast<double>(dpus_used) /
                          static_cast<double>(sim::kUpmemSystemDpus));
    return sim::kUpmemSystemTdpW * fraction * seconds;
}

/** CPU energy: package + DRAM power times time. */
inline double
cpuEnergyJoules(double seconds)
{
    return (sim::kCpuPackageW + sim::kCpuDramW) * seconds;
}

inline EnergyEstimate
estimateEnergy(double pim_seconds, unsigned dpus_used, double cpu_seconds)
{
    EnergyEstimate e;
    e.pim_joules = pimEnergyJoules(pim_seconds, dpus_used);
    e.cpu_joules = cpuEnergyJoules(cpu_seconds);
    return e;
}

} // namespace pimstm::hostapp

#endif // PIMSTM_HOSTAPP_ENERGY_HH
