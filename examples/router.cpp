/**
 * @file
 * Router: a visual mini-Labyrinth. Routes a handful of circuits over a
 * small 2-layer grid with transactional claiming (the STAMP Labyrinth
 * structure: snapshot -> Lee expansion -> claim through the STM), then
 * prints the layers as ASCII art so you can see the disjoint paths.
 */

#include <iostream>

#include "runtime/driver.hh"
#include "workloads/labyrinth.hh"

using namespace pimstm;
using namespace pimstm::workloads;

int
main()
{
    LabyrinthParams params;
    params.x = 24;
    params.y = 12;
    params.z = 2;
    params.num_paths = 9;

    Labyrinth workload(params);

    runtime::RunSpec spec;
    spec.kind = core::StmKind::NOrec;
    spec.tier = core::MetadataTier::Mram;
    spec.tasklets = 6;
    spec.seed = 20260706;
    spec.mram_bytes = 4 * 1024 * 1024;

    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = spec.mram_bytes;
    dpu_cfg.seed = spec.seed;
    sim::Dpu dpu(dpu_cfg);

    core::StmConfig stm_cfg;
    stm_cfg.kind = spec.kind;
    stm_cfg.metadata_tier = spec.tier;
    stm_cfg.num_tasklets = spec.tasklets;
    workload.configure(stm_cfg);
    auto stm = std::make_unique<core::Stm>(dpu, stm_cfg);
    workload.setup(dpu, *stm);
    dpu.addTasklets(spec.tasklets, [&](sim::DpuContext &ctx) {
        workload.tasklet(ctx, *stm);
    });
    dpu.run();
    workload.verify(dpu, *stm);

    std::cout << "routed " << workload.routedPaths() << "/"
              << params.num_paths << " circuits ("
              << workload.failedPaths() << " unroutable), commits="
              << stm->stats().commits
              << " aborts=" << stm->stats().aborts << "\n\n";

    // Render each layer; path ids as digits, free cells as dots.
    for (u32 layer = 0; layer < params.z; ++layer) {
        std::cout << "layer " << layer << ":\n";
        for (u32 row = 0; row < params.y; ++row) {
            std::cout << "  ";
            for (u32 col = 0; col < params.x; ++col) {
                const u32 cell =
                    (layer * params.y + row) * params.x + col;
                const u32 v = workload.gridValue(dpu, cell);
                if (v == 0)
                    std::cout << '.';
                else
                    std::cout << static_cast<char>('0' + (v % 10));
            }
            std::cout << '\n';
        }
        std::cout << '\n';
    }
    return 0;
}
