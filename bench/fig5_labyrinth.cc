/**
 * @file
 * Reproduces Fig. 5 (c,d,g,h,k,l): Labyrinth S / M / L, metadata in
 * MRAM (WRAM metadata is infeasible for this benchmark — appendix A).
 *
 * Paper shapes to check against:
 *  - All STMs achieve similar peak throughput at ~5 tasklets: the
 *    workload is strongly memory-bound and the DPU saturates at the
 *    hardware level, not the STM level.
 *  - "Other (Executing)" dominates the breakdown (private grid copy +
 *    Lee expansion inside the transaction).
 *  - VR variants incur extra aborts on the short queue-pop transaction
 *    with limited throughput impact.
 */

#include "bench/common.hh"
#include "workloads/labyrinth.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 64 * 1024 * 1024;

    struct GridSpec
    {
        const char *title;
        LabyrinthParams params;
    };
    const std::vector<GridSpec> grids = {
        {"Fig 5c/g/k  Labyrinth S (16x16x3)",
         LabyrinthParams::small(opt.full ? 100 : 32)},
        {"Fig 5c/g/k  Labyrinth M (32x32x3)",
         LabyrinthParams::medium(opt.full ? 100 : 24)},
        {"Fig 5d/h/l  Labyrinth L (128x128x3)",
         LabyrinthParams::large(opt.full ? 100 : 12)},
    };

    for (const auto &g : grids) {
        sweepKinds(
            g.title,
            [&] { return std::make_unique<Labyrinth>(g.params); },
            core::MetadataTier::Mram, opt, base);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
