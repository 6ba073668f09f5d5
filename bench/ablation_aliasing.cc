/**
 * @file
 * Ablation A3: atomic-register aliasing (§3.2.1). The hardware hashes
 * lock addresses onto 256 register bits, so unrelated CAS emulations
 * can serialize. The paper claims the impact is negligible because the
 * bits are held only for the instants needed to inspect/update a lock
 * word. Shrinking the usable register amplifies aliasing until the
 * claim visibly breaks — this bench quantifies where.
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

    Table table({"stm", "atomic_bits", "tput_tx_per_s", "abort_rate",
                 "tput_vs_256bits"});

    for (core::StmKind kind :
         {core::StmKind::TinyEtlWb, core::StmKind::VrEtlWb,
          core::StmKind::NOrec}) {
        double baseline = 0;
        for (unsigned bits : {256u, 64u, 16u, 4u, 1u}) {
            runtime::RunSpec base = opt.run;
            base.mram_bytes = 8 * 1024 * 1024;
            base.atomic_bits_override = bits;
            const auto pr = runPoint(
                [&] {
                    return std::make_unique<ArrayBench>(
                        ArrayBenchParams::workloadA(tx));
                },
                kind, core::MetadataTier::Mram, tasklets, opt.seeds,
                base);
            if (bits == 256)
                baseline = pr.throughput_mean;
            table.newRow()
                .cell(core::stmKindName(kind))
                .cell(bits)
                .cell(pr.throughput_mean, 1)
                .cell(pr.abort_rate_mean, 4)
                .cell(baseline > 0 ? pr.throughput_mean / baseline : 1.0,
                      3);
        }
    }

    std::cout << "== Ablation A3  atomic-register aliasing "
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
