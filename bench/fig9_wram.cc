/**
 * @file
 * Reproduces Fig. 9 (appendix A): ArrayBench A/B and Linked-List LC/HC
 * with STM metadata hosted in WRAM.
 *
 * Paper shapes to check against:
 *  - ArrayBench A: the ORec lock tables of Tiny and VR exceed WRAM and
 *    spill to MRAM (only there); NOrec keeps everything in WRAM but
 *    still loses (readset revalidation), as with MRAM metadata.
 *  - ArrayBench B: NOrec outperforms the best Tiny/VR variant by ~20%;
 *    WB gains over WT are amplified (up to 14% for VR ETL).
 *  - Linked-List LC: Tiny ETLWT best (shorter read phase); NOrec just
 *    behind. HC: NOrec ~9% over the best Tiny; VR worst by far.
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
    const u32 tx_a = opt.full ? 30 : 8;
    const u32 tx_b = opt.full ? 400 : 100;
    const u32 ll_ops = opt.full ? 100 : 40;

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 8 * 1024 * 1024;

    sweepKinds(
        "Fig 9a/e/i  ArrayBench A",
        [&] {
            return std::make_unique<ArrayBench>(
                ArrayBenchParams::workloadA(tx_a));
        },
        core::MetadataTier::Wram, opt, base);

    sweepKinds(
        "Fig 9b/f/j  ArrayBench B",
        [&] {
            return std::make_unique<ArrayBench>(
                ArrayBenchParams::workloadB(tx_b));
        },
        core::MetadataTier::Wram, opt, base);

    sweepKinds(
        "Fig 9c/g/k  Linked-List LC",
        [&] {
            return std::make_unique<LinkedList>(
                LinkedListParams::lowContention(ll_ops));
        },
        core::MetadataTier::Wram, opt, base);

    sweepKinds(
        "Fig 9d/h/l  Linked-List HC",
        [&] {
            return std::make_unique<LinkedList>(
                LinkedListParams::highContention(ll_ops));
        },
        core::MetadataTier::Wram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
