/**
 * @file
 * Extension bench: adaptive STM selection. The paper's bottom line is
 * that no single STM wins everywhere and developers should pick per
 * workload; runtime/adaptive.hh automates the pick with a short probe
 * phase. This bench compares, per workload:
 *   - oracle: the best fixed STM (full sweep),
 *   - adaptive: probe-then-run,
 *   - default: always-NOrec (the paper's recommended default).
 * The adaptive pick should land within a few percent of the oracle and
 * beat the fixed default wherever NOrec is not the winner.
 */

#include "bench/common.hh"
#include "runtime/adaptive.hh"
#include "workloads/arraybench.hh"
#include "workloads/linkedlist.hh"
#include "workloads/skiplist.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::runtime;
using namespace pimstm::workloads;

namespace
{

struct Case
{
    std::string name;
    AdaptiveFactory factory;
};

} // namespace

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 full_tx = opt.full ? 60 : 25;
    const u32 probe_tx = 4;
    const u32 full_ops = opt.full ? 120 : 50;
    const u32 probe_ops = 10;

    const std::vector<Case> cases = {
        {"ArrayBench A",
         [&](bool probe) -> std::unique_ptr<Workload> {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(probe ? probe_tx
                                                   : full_tx));
         }},
        {"ArrayBench B",
         [&](bool probe) -> std::unique_ptr<Workload> {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(probe ? 4 * probe_tx
                                                   : 4 * full_tx));
         }},
        {"Linked-List HC",
         [&](bool probe) -> std::unique_ptr<Workload> {
             return std::make_unique<LinkedList>(
                 LinkedListParams::highContention(probe ? probe_ops
                                                        : full_ops));
         }},
        {"Skip-List LC",
         [&](bool probe) -> std::unique_ptr<Workload> {
             return std::make_unique<SkipList>(
                 SkipListParams::lowContention(probe ? probe_ops
                                                     : full_ops));
         }},
    };

    Table table({"workload", "adaptive_pick", "adaptive_tput",
                 "oracle_stm", "oracle_tput", "norec_tput",
                 "adaptive_vs_oracle", "probe_cost_ms"});

    for (const auto &c : cases) {
        RunSpec spec = opt.run;
        spec.tasklets = 11;
        spec.mram_bytes = 8 * 1024 * 1024;

        const AdaptiveResult ar = adaptiveRun(c.factory, spec);

        // Oracle: run the FULL workload under every kind.
        double oracle = 0, norec = 0;
        core::StmKind oracle_kind = core::StmKind::NOrec;
        for (core::StmKind kind : core::allStmKinds()) {
            RunSpec s = spec;
            s.kind = kind;
            auto wl = c.factory(false);
            const double tput = runWorkload(*wl, s).throughput;
            if (tput > oracle) {
                oracle = tput;
                oracle_kind = kind;
            }
            if (kind == core::StmKind::NOrec)
                norec = tput;
        }

        table.newRow()
            .cell(c.name)
            .cell(core::stmKindName(ar.chosen_kind))
            .cell(ar.final.throughput, 1)
            .cell(core::stmKindName(oracle_kind))
            .cell(oracle, 1)
            .cell(norec, 1)
            .cell(oracle > 0 ? ar.final.throughput / oracle : 0, 3)
            .cell(ar.probe_seconds * 1e3, 3);
    }

    std::cout << "== EXT  adaptive STM selection vs oracle and fixed "
                 "NOrec (11 tasklets, MRAM) ==\n";
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
