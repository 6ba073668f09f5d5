/**
 * @file
 * Ablation A5: transactional boosting vs word-based STM on the
 * structure-heavy extension workloads (docs/boosting.md). Sweeps every
 * STM kind (including Tl2) with structure operations routed through
 * word-based transactions and through the boosted library
 * (runtime/boosted.hh), at low and high contention.
 *
 * Word-based STMs conflict on the *physical* words a structure
 * operation happens to touch — probe chains, predecessor towers,
 * shared counters — so high-contention structure workloads abort on
 * accesses that commute at the abstract level. Boosting replaces that
 * with key-granular abstract locks plus semantic undo; this bench
 * quantifies the gap the word-level false conflicts cost.
 *
 * --check asserts the acceptance gates on the high-contention sweeps:
 * for Skip-List HC and Vacation HC, the best boosted configuration
 * must beat the best word-based configuration by >= 1.3x committed
 * ops/s, with its abort rate at least 3x lower (compared at each
 * mode's best-throughput point).
 */

#include "bench/common.hh"
#include "workloads/skiplist.hh"
#include "workloads/vacation.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

/** Best-throughput point of one (workload, mode) sweep. */
struct BestPoint
{
    double tput = 0;
    double abort_rate = 0;
    core::StmKind kind{};
    unsigned tasklets = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            if (a == "--check") {
                check = true;
                return true;
            }
            return false;
        });

    return guardedMain([&] {
        const u32 ops = opt.full ? 200 : 60;
        const std::vector<unsigned> tasklet_series =
            opt.full ? std::vector<unsigned>{1, 2, 4, 8, 11, 16, 24}
                     : std::vector<unsigned>{1, 8, 16};

        struct Case
        {
            const char *name;
            bool high_contention; ///< --check gates only these
            WorkloadFactory factory;
        };
        const std::vector<Case> cases = {
            {"Skip-List LC", false,
             [&] {
                 return std::make_unique<SkipList>(
                     SkipListParams::lowContention(ops));
             }},
            {"Skip-List HC", true,
             [&] {
                 return std::make_unique<SkipList>(
                     SkipListParams::highContention(ops));
             }},
            {"Vacation LC", false,
             [&] {
                 return std::make_unique<Vacation>(
                     VacationParams::lowContention(ops));
             }},
            {"Vacation HC", true,
             [&] {
                 return std::make_unique<Vacation>(
                     VacationParams::highContention(ops));
             }},
        };

        Table table({"workload", "mode", "stm", "tasklets",
                     "tput_tx_per_s", "abort_rate"});
        // cases.size() x {word, boosted}
        std::vector<std::array<BestPoint, 2>> best(cases.size());

        for (size_t c = 0; c < cases.size(); ++c) {
            for (const bool boosted : {false, true}) {
                for (core::StmKind kind : core::allStmKindsExtended()) {
                    for (const unsigned tasklets : tasklet_series) {
                        runtime::RunSpec base = opt.run;
                        base.mram_bytes = 8 * 1024 * 1024;
                        base.stm.boosting = boosted;
                        const auto pr = runPoint(
                            cases[c].factory, kind,
                            core::MetadataTier::Mram, tasklets,
                            opt.seeds, base);
                        if (!pr.runnable)
                            continue;
                        table.newRow()
                            .cell(cases[c].name)
                            .cell(boosted ? "boosted" : "word")
                            .cell(core::stmKindName(kind))
                            .cell(tasklets)
                            .cell(pr.throughput_mean, 1)
                            .cell(pr.abort_rate_mean, 4);
                        BestPoint &b = best[c][boosted ? 1 : 0];
                        if (pr.throughput_mean > b.tput) {
                            b.tput = pr.throughput_mean;
                            b.abort_rate = pr.abort_rate_mean;
                            b.kind = kind;
                            b.tasklets = tasklets;
                        }
                    }
                }
            }
        }

        std::cout << "== Ablation A5  transactional boosting vs "
                     "word-based STM ==\n";
        if (opt.csv)
            table.printCsv(std::cout);
        else
            table.printText(std::cout);
        std::cout << "\n";
        for (size_t c = 0; c < cases.size(); ++c) {
            const BestPoint &w = best[c][0];
            const BestPoint &b = best[c][1];
            std::cout << cases[c].name << ": best word "
                      << core::stmKindName(w.kind) << "/t" << w.tasklets
                      << " " << w.tput << " tx/s (abort "
                      << w.abort_rate << "), best boosted "
                      << core::stmKindName(b.kind) << "/t" << b.tasklets
                      << " " << b.tput << " tx/s (abort "
                      << b.abort_rate << "), speedup "
                      << (w.tput > 0 ? b.tput / w.tput : 0) << "x\n";
        }

        if (check) {
            int failures = 0;
            for (size_t c = 0; c < cases.size(); ++c) {
                if (!cases[c].high_contention)
                    continue;
                const BestPoint &w = best[c][0];
                const BestPoint &b = best[c][1];
                if (b.tput < 1.3 * w.tput) {
                    std::cerr << "CHECK FAILED: " << cases[c].name
                              << " boosted best " << b.tput
                              << " tx/s < 1.3x word best " << w.tput
                              << " tx/s\n";
                    ++failures;
                }
                if (w.abort_rate < 3.0 * b.abort_rate) {
                    std::cerr << "CHECK FAILED: " << cases[c].name
                              << " abort at best points: word "
                              << w.abort_rate << " < 3x boosted "
                              << b.abort_rate << "\n";
                    ++failures;
                }
            }
            if (failures)
                return 1;
            std::cout << "CHECK OK: boosted best >= 1.3x word best "
                         "ops/s with >= 3x lower abort rate on every "
                         "high-contention sweep\n";
        }
        return 0;
    });
}
