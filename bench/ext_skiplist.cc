/**
 * @file
 * Extension bench: the Skip-List set vs the paper's Linked-List under
 * the same operation mixes. Skip-list transactions have O(log n) read
 * sets where the linked list's are O(n), so the STM ranking shifts —
 * shorter transactions favour the lean NOrec design even more, while
 * the linked list's long read-mostly traversals are where the ORec
 * designs close the gap. Run across the whole taxonomy.
 */

#include "bench/common.hh"
#include "workloads/linkedlist.hh"
#include "workloads/skiplist.hh"

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
        "EXT  Skip-List LC (90% contains, 64 elems)",
        [&] {
            return std::make_unique<SkipList>(
                SkipListParams::lowContention(ops));
        },
        core::MetadataTier::Mram, opt, base);

    sweepKinds(
        "EXT  Skip-List HC (50% contains, 64 elems)",
        [&] {
            return std::make_unique<SkipList>(
                SkipListParams::highContention(ops));
        },
        core::MetadataTier::Mram, opt, base);

    // Same set size for the linked list, for a like-for-like contrast.
    LinkedListParams ll = LinkedListParams::lowContention(ops);
    ll.initial_size = 64;
    ll.value_range = 256;
    sweepKinds(
        "EXT  Linked-List LC at 64 elems (contrast)",
        [&] { return std::make_unique<LinkedList>(ll); },
        core::MetadataTier::Mram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
