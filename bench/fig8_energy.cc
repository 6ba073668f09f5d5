/**
 * @file
 * Reproduces Fig. 8: speedup and energy gain at full system scale
 * (2500 DPUs) for KMeans LC/HC and Labyrinth S/M/L.
 *
 * Energy follows the paper's own method on the PIM side (370 W system
 * TDP x time, Falevoz & Legriel) and a TDP-based model on the CPU side
 * (RAPL is unavailable here — see DESIGN.md).
 *
 * Paper shapes to check against:
 *  - Energy gains are consistently LOWER than speedups.
 *  - Labyrinth L (speedup ~2.2x) actually CONSUMES MORE energy on the
 *    PIM system (-31.5%, i.e. gain < 1).
 */

#include "bench/common.hh"
#include "cpu/kmeans_cpu.hh"
#include "cpu/labyrinth_cpu.hh"
#include "hostapp/energy.hh"
#include "hostapp/multi_dpu.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::hostapp;

int
main(int argc, char **argv)
{
    bool measured_cpu = false;
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            if (a == "--measured-cpu") {
                measured_cpu = true;
                return true;
            }
            return false;
        });
    constexpr unsigned kDpus = 2500;

    Table table({"workload", "dpu_s", "cpu_s", "speedup", "pim_J",
                 "cpu_J", "energy_gain"});

    auto add_row = [&](const char *name, double dpu_s, double cpu_s) {
        const auto e = estimateEnergy(dpu_s, kDpus, cpu_s);
        table.newRow()
            .cell(name)
            .cell(dpu_s, 6)
            .cell(cpu_s, 6)
            .cell(cpu_s / dpu_s, 3)
            .cell(e.pim_joules, 3)
            .cell(e.cpu_joules, 3)
            .cell(e.gain(), 3);
    };

    // KMeans LC and HC.
    for (const bool hc : {false, true}) {
        MultiKMeansParams mp;
        mp.clusters = hc ? 2 : 15;
        mp.points_per_dpu = opt.full ? 9600 : 1200;
        const auto t = runKMeansMultiDpu(kDpus, mp);

        cpu::KMeansCpuParams cp;
        cp.clusters = mp.clusters;
        cp.total_points = opt.full ? 480000 : 96000;
        cp.threads = 4;
        const double cpu_seconds =
            measured_cpu ? cpu::runKMeansCpu(cp).seconds
                         : cpu::modelKMeansCpuSeconds(cp);
        const double cpu_s = cpu_seconds / cp.total_points *
                             static_cast<double>(mp.points_per_dpu) *
                             kDpus;
        add_row(hc ? "KMeans HC" : "KMeans LC", t.total(), cpu_s);
    }

    // Labyrinth S, M, L.
    struct Grid
    {
        const char *name;
        u32 x, y, z;
    };
    for (const Grid g : {Grid{"Labyrinth S", 16, 16, 3},
                         Grid{"Labyrinth M", 32, 32, 3},
                         Grid{"Labyrinth L", 128, 128, 3}}) {
        MultiLabyrinthParams mp;
        mp.x = g.x;
        mp.y = g.y;
        mp.z = g.z;
        mp.num_paths = opt.full ? 100 : 32;
        const auto t = runLabyrinthMultiDpu(kDpus, mp);

        cpu::LabyrinthCpuParams cp;
        cp.x = g.x;
        cp.y = g.y;
        cp.z = g.z;
        cp.num_paths = mp.num_paths;
        cp.threads = 8;
        const double cpu_seconds =
            measured_cpu ? cpu::runLabyrinthCpu(cp).seconds
                         : cpu::modelLabyrinthCpuSeconds(cp);
        const double cpu_s = cpu_seconds * divCeil(kDpus, 4);
        add_row(g.name, t.total(), cpu_s);
    }

    std::cout << "== Fig 8  Speedup and energy gain at " << kDpus
              << " DPUs ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    return 0;
}
