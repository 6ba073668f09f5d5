/**
 * @file
 * Reproduces Fig. 4 (a,b,e,f,i,j) of the paper: throughput, abort rate
 * and time breakdown of the seven STMs on ArrayBench workloads A and B,
 * STM metadata in MRAM, as the tasklet count varies.
 *
 * Paper shapes to check against:
 *  - Workload A: VR ETL variants best, then VR CTL; Tiny ~2x slower
 *    than the best VR; NOrec worst (~2.5x at 11 tasklets), dominated
 *    by readset validations.
 *  - Workload B: order nearly reversed — NOrec best, VR ETL stops
 *    scaling around 4 tasklets (~40% below NOrec), CTL variants trail
 *    their ETL counterparts.
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
    const u32 tx_a = opt.full ? 30 : 8;
    const u32 tx_b = opt.full ? 400 : 100;

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 8 * 1024 * 1024;

    sweepKinds(
        "Fig 4a/e/i  ArrayBench A",
        [&] {
            return std::make_unique<ArrayBench>(
                ArrayBenchParams::workloadA(tx_a));
        },
        core::MetadataTier::Mram, opt, base);

    sweepKinds(
        "Fig 4b/f/j  ArrayBench B",
        [&] {
            return std::make_unique<ArrayBench>(
                ArrayBenchParams::workloadB(tx_b));
        },
        core::MetadataTier::Mram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
