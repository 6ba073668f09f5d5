/**
 * @file
 * Reproduces Fig. 6: for each workload, the peak throughput of every
 * STM normalized by the peak throughput of the best STM for that
 * workload (lower is better), for metadata in MRAM (6a) and WRAM (6b).
 * Also prints the §4.2.3 WRAM-over-MRAM speedups (E17).
 *
 * Paper shapes to check against:
 *  - 6a (MRAM): NOrec has the best average and median ratio; no STM is
 *    within ~2x of the best on every workload (no one-size-fits-all).
 *  - 6b (WRAM): the Tiny ETL variants become the best on average;
 *    NOrec remains the most competitive in most workloads.
 *  - WRAM speedups: ~5% for KMeans LC, 2.46x-5.1x elsewhere with a
 *    geometric mean around 2.86x.
 */

#include "bench/common.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/linkedlist.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

struct NamedWorkload
{
    std::string name;
    WorkloadFactory factory;
};

std::vector<NamedWorkload>
workloadSet(const BenchOptions &opt)
{
    const u32 tx_a = opt.full ? 20 : 6;
    const u32 tx_b = opt.full ? 300 : 80;
    const u32 ll_ops = opt.full ? 100 : 30;
    const u32 km_pts = opt.full ? 16 : 6;
    return {
        {"ArrayBench A",
         [=] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(tx_a));
         }},
        {"ArrayBench B",
         [=] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(tx_b));
         }},
        {"Linked-List LC",
         [=] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::lowContention(ll_ops));
         }},
        {"Linked-List HC",
         [=] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::highContention(ll_ops));
         }},
        {"KMeans LC",
         [=] {
             return std::make_unique<KMeans>(
                 KMeansParams::lowContention(km_pts));
         }},
        {"KMeans HC",
         [=] {
             return std::make_unique<KMeans>(
                 KMeansParams::highContention(km_pts));
         }},
    };
}

} // namespace

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const auto workloads = workloadSet(opt);

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 8 * 1024 * 1024;

    // peak[workload][kind][tier]
    std::map<std::string, std::map<core::StmKind, std::map<int, double>>>
        peaks;

    // Flatten the whole (tier x workload x kind x tasklets) sweep into
    // one job list and fan it out over the host thread pool; the peak
    // reduction below walks per-index slots in sweep order, so the
    // result is identical for any --jobs value.
    struct Job
    {
        core::MetadataTier tier;
        size_t wl;
        core::StmKind kind;
        unsigned tasklets;
    };
    std::vector<Job> sweep;
    for (const auto tier :
         {core::MetadataTier::Mram, core::MetadataTier::Wram})
        for (size_t w = 0; w < workloads.size(); ++w)
            for (core::StmKind kind : core::allStmKinds())
                for (unsigned t : taskletSeries(opt.full))
                    sweep.push_back({tier, w, kind, t});

    std::vector<PointResult> prs(sweep.size());
    util::parallelFor(sweep.size(), [&](size_t i) {
        prs[i] = runPoint(workloads[sweep[i].wl].factory, sweep[i].kind,
                          sweep[i].tier, sweep[i].tasklets, opt.seeds,
                          base);
    });

    for (size_t i = 0; i < sweep.size(); ++i) {
        const Job &j = sweep[i];
        double &best =
            peaks[workloads[j.wl].name][j.kind][static_cast<int>(j.tier)];
        if (prs[i].runnable)
            best = std::max(best, prs[i].throughput_mean);
    }

    for (const auto tier :
         {core::MetadataTier::Mram, core::MetadataTier::Wram}) {
        const int ti = static_cast<int>(tier);
        Table table({"stm", "mean_ratio", "median_ratio", "max_ratio",
                     "workloads_won"});
        for (core::StmKind kind : core::allStmKinds()) {
            std::vector<double> ratios;
            unsigned won = 0;
            for (const auto &wl : workloads) {
                double best_any = 0;
                for (core::StmKind k2 : core::allStmKinds())
                    best_any =
                        std::max(best_any, peaks[wl.name][k2][ti]);
                const double mine = peaks[wl.name][kind][ti];
                if (mine <= 0)
                    continue;
                ratios.push_back(best_any / mine);
                if (mine >= best_any * 0.999)
                    ++won;
            }
            table.newRow()
                .cell(core::stmKindName(kind))
                .cell(mean(ratios), 3)
                .cell(median(ratios), 3)
                .cell(maxOf(ratios), 3)
                .cell(won);
        }
        std::cout << "== Fig 6" << (tier == core::MetadataTier::Mram
                                        ? "a (metadata MRAM)"
                                        : "b (metadata WRAM)")
                  << "  peak-throughput ratio vs best (lower=better) ==\n";
        if (opt.csv)
            table.printCsv(std::cout);
        else
            table.printText(std::cout);
        std::cout << "\n";
    }

    // E17: WRAM speedup over MRAM, per workload (best STM each side).
    Table table({"workload", "best_peak_mram", "best_peak_wram",
                 "wram_speedup"});
    std::vector<double> speedups;
    for (const auto &wl : workloads) {
        double best_m = 0, best_w = 0;
        for (core::StmKind k : core::allStmKinds()) {
            best_m = std::max(
                best_m,
                peaks[wl.name][k][static_cast<int>(
                    core::MetadataTier::Mram)]);
            best_w = std::max(
                best_w,
                peaks[wl.name][k][static_cast<int>(
                    core::MetadataTier::Wram)]);
        }
        const double speedup = best_m > 0 ? best_w / best_m : 0;
        if (speedup > 0)
            speedups.push_back(speedup);
        table.newRow()
            .cell(wl.name)
            .cell(best_m, 1)
            .cell(best_w, 1)
            .cell(speedup, 3);
    }
    std::cout << "== §4.2.3  WRAM-over-MRAM peak-throughput speedups "
                 "(geomean "
              << (speedups.empty() ? 0.0 : geomean(speedups)) << ") ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
