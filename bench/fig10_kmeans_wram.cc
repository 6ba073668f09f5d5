/**
 * @file
 * Reproduces Fig. 10 (appendix A): KMeans LC/HC with STM metadata in
 * WRAM. (Labyrinth is absent from the paper's WRAM study because its
 * read/write sets exceed WRAM — reproduced as a loud failure, see the
 * LabyrinthTest.WramMetadataInfeasibleForLargeGrids test.)
 *
 * Paper shapes to check against:
 *  - LC: all implementations still perform similarly.
 *  - HC: NOrec best, but the gap to the ETL ORec variants shrinks
 *    versus the MRAM-metadata case; VR CTLWB remains pathologically
 *    slow despite its low abort rate (wasted work on long txs).
 */

#include "bench/common.hh"
#include "workloads/kmeans.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 points = opt.full ? 24 : 8;

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 8 * 1024 * 1024;

    sweepKinds(
        "Fig 10a/c  KMeans LC (k=15)",
        [&] {
            return std::make_unique<KMeans>(
                KMeansParams::lowContention(points));
        },
        core::MetadataTier::Wram, opt, base);

    sweepKinds(
        "Fig 10b/d  KMeans HC (k=2)",
        [&] {
            return std::make_unique<KMeans>(
                KMeansParams::highContention(points));
        },
        core::MetadataTier::Wram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
