/**
 * @file
 * Multi-DPU execution models for the §4.3 experiments.
 *
 * Both multi-DPU benchmarks are embarrassingly parallel across DPUs —
 * KMeans shards disjoint points and merges centroids on the CPU each
 * round; Labyrinth gives each DPU an independent instance. Following
 * the paper's own scaling argument (per-DPU time is constant as DPUs
 * and total input grow together), the models fully simulate a small
 * sample of DPUs and derive whole-system time as
 *
 *   time(D) = max(sampled per-DPU time)
 *           + per-round host transfers (cost model, scales with D)
 *           + modelled host-side merge time (KMeans only).
 */

#ifndef PIMSTM_HOSTAPP_MULTI_DPU_HH
#define PIMSTM_HOSTAPP_MULTI_DPU_HH

#include "core/stm.hh"
#include "util/types.hh"

namespace pimstm::hostapp
{

struct MultiKMeansParams
{
    u32 clusters = 15;
    u32 dims = 14;
    /** Points assigned to each DPU (the paper uses 200K; simulation
     * uses a smaller default — per-DPU time is what matters and it is
     * linear in this value on both the DPU and CPU sides). */
    u32 points_per_dpu = 2400;
    u32 rounds = 3;
    /** Tasklets per DPU (the peak-throughput configuration). */
    unsigned tasklets = 11;
    /** Fully-simulated DPU sample size. */
    unsigned sample_dpus = 2;
    core::MetadataTier tier = core::MetadataTier::Wram; // as in §4.3.1
    u64 seed = 1;
};

struct MultiLabyrinthParams
{
    u32 x = 16, y = 16, z = 3;
    u32 num_paths = 100;
    unsigned tasklets = 8;
    unsigned sample_dpus = 2;
    u64 seed = 1;
};

/** Decomposed whole-system execution time for D DPUs. */
struct MultiDpuTime
{
    unsigned dpus = 0;
    double compute_seconds = 0;  ///< slowest sampled DPU, simulated
    double transfer_seconds = 0; ///< host<->MRAM copies, cost model
    double merge_seconds = 0;    ///< modelled host-side merge (KMeans)
    double launch_seconds = 0;   ///< batch launch/sync overhead

    double
    total() const
    {
        return compute_seconds + transfer_seconds + merge_seconds +
               launch_seconds;
    }
};

/**
 * Model the multi-DPU KMeans execution for @p dpus DPUs.
 * Simulates @p params.sample_dpus DPUs with distinct shards/seeds.
 */
MultiDpuTime runKMeansMultiDpu(unsigned dpus,
                               const MultiKMeansParams &params);

/** Model the multi-DPU Labyrinth execution for @p dpus DPUs. */
MultiDpuTime runLabyrinthMultiDpu(unsigned dpus,
                                  const MultiLabyrinthParams &params);

} // namespace pimstm::hostapp

#endif // PIMSTM_HOSTAPP_MULTI_DPU_HH
