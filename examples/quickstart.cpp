/**
 * @file
 * Quickstart: the smallest complete PIM-STM program.
 *
 * Creates one simulated DPU, picks an STM implementation, launches 8
 * tasklets that concurrently increment a shared MRAM counter inside
 * transactions, and prints the result with basic statistics.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "core/stm.hh"
#include "runtime/shared_array.hh"

using namespace pimstm;

int
main()
{
    // 1. A DPU: 64 KB WRAM, 64 MB MRAM, up to 24 tasklets.
    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024; // plenty for this demo
    sim::Dpu dpu(dpu_cfg);

    // 2. An STM instance. Every algorithm of the paper's taxonomy is
    //    one enum value away; metadata placement is a config knob.
    core::StmConfig stm_cfg;
    stm_cfg.kind = core::StmKind::NOrec; // the paper's all-rounder
    stm_cfg.metadata_tier = core::MetadataTier::Wram;
    stm_cfg.num_tasklets = 8;
    core::Stm stm(dpu, stm_cfg);

    // 3. Shared data lives in simulated DPU memory.
    runtime::SharedArray32 counter(dpu, sim::Tier::Mram, 1);
    counter.fill(dpu, 0);

    // 4. Tasklet code: a transactional increment, retried on conflict
    //    automatically by atomically().
    dpu.addTasklets(8, [&](sim::DpuContext &ctx) {
        for (int i = 0; i < 1000; ++i) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                tx.write(counter.at(0), tx.read(counter.at(0)) + 1);
            });
        }
    });

    // 5. Run to completion (deterministic, cycle-accounted).
    dpu.run();

    const auto &s = stm.stats();
    const double seconds = sim::cyclesToSeconds(dpu.stats().total_cycles);
    std::cout << "counter        = " << counter.peek(dpu, 0) << " (expected "
              << 8 * 1000 << ")\n"
              << "commits        = " << s.commits << "\n"
              << "aborts         = " << s.aborts << " (abort rate "
              << s.abortRate() << ")\n"
              << "simulated time = " << seconds * 1e3 << " ms @350 MHz\n"
              << "throughput     = " << s.commits / seconds
              << " tx/s on one DPU\n";
    return counter.peek(dpu, 0) == 8 * 1000 ? 0 : 1;
}
