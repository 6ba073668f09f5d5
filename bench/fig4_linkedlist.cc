/**
 * @file
 * Reproduces Fig. 4 (c,d,g,h,k,l): the concurrent Linked-List under low
 * (90% contains) and high (50% contains) contention, metadata in MRAM.
 *
 * Paper shapes to check against:
 *  - NOrec best in both workloads (LC: +6% over Tiny, HC: +15%).
 *  - VR variants clearly worst — much higher abort rate from read->
 *    write upgrade conflicts on list nodes.
 *  - ETL slightly ahead of CTL; write policy (WB vs WT) negligible.
 */

#include "bench/common.hh"
#include "workloads/linkedlist.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 ops = opt.full ? 100 : 40;

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 8 * 1024 * 1024;

    sweepKinds(
        "Fig 4c/g/k  Linked-List LC (90% contains)",
        [&] {
            return std::make_unique<LinkedList>(
                LinkedListParams::lowContention(ops));
        },
        core::MetadataTier::Mram, opt, base);

    sweepKinds(
        "Fig 4d/h/l  Linked-List HC (50% contains)",
        [&] {
            return std::make_unique<LinkedList>(
                LinkedListParams::highContention(ops));
        },
        core::MetadataTier::Mram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
