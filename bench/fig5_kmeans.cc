/**
 * @file
 * Reproduces Fig. 5 (a,b,e,f,i,j): KMeans LC (k=15) and HC (k=2),
 * N = 14 dimensions, metadata in MRAM.
 *
 * Paper shapes to check against:
 *  - LC: near-linear scalability for NOrec and the ETL variants; very
 *    similar peak throughput (most time is non-transactional), despite
 *    wildly different abort rates.
 *  - HC: gaps amplify; NOrec ~22% over Tiny ETL, which lead VR ETL;
 *    CTL variants suffer the largest penalty (late conflict detection
 *    wastes long transactions).
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
        "Fig 5a/e/i  KMeans LC (k=15)",
        [&] {
            return std::make_unique<KMeans>(
                KMeansParams::lowContention(points));
        },
        core::MetadataTier::Mram, opt, base);

    sweepKinds(
        "Fig 5b/f/j  KMeans HC (k=2)",
        [&] {
            return std::make_unique<KMeans>(
                KMeansParams::highContention(points));
        },
        core::MetadataTier::Mram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
