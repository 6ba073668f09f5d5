/**
 * @file
 * Extension bench: Tiny vs TL2 — quantifying the snapshot-extension
 * mechanism. §3.2.1 of the paper: "This extension mechanism might
 * allow transactions from being spared from aborting, enhancing
 * efficiency with respect to simpler designs (e.g., TL2)." TL2 here is
 * Tiny CTLWB with a fixed read window (version > snapshot always
 * aborts), so the delta against Tiny CTLWB isolates the extension.
 *
 * The extension matters most when transactions are long relative to
 * the commit rate (every concurrent commit moves the clock past open
 * snapshots): ArrayBench A with many tasklets is the showcase.
 */

#include "bench/common.hh"
#include "workloads/arraybench.hh"
#include "workloads/linkedlist.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 tx_a = opt.full ? 30 : 10;
    const u32 tx_b = opt.full ? 400 : 150;
    const u32 ll_ops = opt.full ? 100 : 40;

    struct Case
    {
        const char *name;
        WorkloadFactory factory;
    };
    const std::vector<Case> cases = {
        {"ArrayBench A (long tx)",
         [&] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(tx_a));
         }},
        {"ArrayBench B (tiny tx)",
         [&] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(tx_b));
         }},
        {"Linked-List HC",
         [&] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::highContention(ll_ops));
         }},
    };

    Table table({"workload", "stm", "tasklets", "tput_tx_per_s",
                 "abort_rate", "extensions"});

    for (const auto &c : cases) {
        for (core::StmKind kind :
             {core::StmKind::TinyCtlWb, core::StmKind::Tl2}) {
            for (unsigned t : {4u, 11u}) {
                runtime::RunSpec base = opt.run;
                base.mram_bytes = 8 * 1024 * 1024;
                const auto pr = runPoint(c.factory, kind,
                                         core::MetadataTier::Mram, t,
                                         opt.seeds, base);
                table.newRow()
                    .cell(c.name)
                    .cell(core::stmKindName(kind))
                    .cell(t)
                    .cell(pr.throughput_mean, 1)
                    .cell(pr.abort_rate_mean, 4)
                    .cell(kind == core::StmKind::Tl2 ? "n/a (fixed)"
                                                     : "per-run");
            }
        }
    }

    std::cout << "== EXT  Tiny (snapshot extension) vs TL2 (fixed "
                 "window) ==\n";
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
