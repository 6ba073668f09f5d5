/**
 * @file
 * Ablation A1 (§3.2.1's lock-table sizing discussion): sweep the ORec
 * lock-table size for Tiny and VR on ArrayBench A and measure the
 * memory-vs-aliasing trade-off. Smaller tables save WRAM/MRAM but
 * alias more addresses onto each ORec, inflating spurious conflicts —
 * "using a larger lock table leads to less aliasing (and thus, less
 * unnecessary aborts); however, a larger lock table takes up more
 * space".
 */

#include "bench/common.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 tx = opt.full ? 20 : 8;
    const unsigned tasklets = 11;

    Table table({"stm", "lock_table_entries", "table_bytes",
                 "tput_tx_per_s", "abort_rate"});

    for (core::StmKind kind :
         {core::StmKind::TinyEtlWb, core::StmKind::VrEtlWb}) {
        for (u32 entries : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
            runtime::RunSpec base = opt.run;
            base.mram_bytes = 8 * 1024 * 1024;
            base.stm.lock_table_entries_override = entries;
            const auto pr = runPoint(
                [&] {
                    return std::make_unique<ArrayBench>(
                        ArrayBenchParams::workloadA(tx));
                },
                kind, core::MetadataTier::Mram, tasklets, opt.seeds,
                base);
            const size_t entry_bytes =
                kind == core::StmKind::VrEtlWb ? 4 : 8;
            table.newRow()
                .cell(core::stmKindName(kind))
                .cell(entries)
                .cell(static_cast<u64>(entries * entry_bytes))
                .cell(pr.throughput_mean, 1)
                .cell(pr.abort_rate_mean, 4);
        }
    }

    std::cout << "== Ablation A1  ORec lock-table size vs aliasing "
                 "(ArrayBench A, 11 tasklets) ==\n";
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
