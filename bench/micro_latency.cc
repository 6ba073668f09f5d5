/**
 * @file
 * Reproduces the §3.1 latency measurement that motivates PIM-STM's
 * DPU-local transaction design: a CPU-mediated inter-DPU read of one
 * 64-bit word costs three orders of magnitude more than a local MRAM
 * read (paper: 331 us vs 231 ns).
 *
 * Also exercises the simulator's primitive costs as google-benchmark
 * micro-benchmarks (WRAM vs MRAM access, atomic acquire/release, STM
 * read/write instrumentation per algorithm).
 */

#include <benchmark/benchmark.h>

#include "core/stm.hh"
#include "runtime/boosted.hh"
#include "runtime/shared_array.hh"
#include "runtime/tx_hashmap.hh"

using namespace pimstm;
using namespace pimstm::sim;

namespace
{

DpuConfig
smallDpu()
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 * 1024 * 1024;
    return cfg;
}

/** Simulated nanoseconds of one 64-bit read per tier. */
double
simulatedReadNs(Tier tier)
{
    Dpu dpu(smallDpu());
    const u32 off = dpu.memory(tier).alloc(64);
    Cycles cost = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        const Cycles t0 = ctx.now();
        ctx.read64(makeAddr(tier, off));
        cost = ctx.now() - t0;
    });
    dpu.run();
    return cyclesToSeconds(cost) * 1e9;
}

void
BM_LocalMramRead64(benchmark::State &state)
{
    double ns = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(ns = simulatedReadNs(Tier::Mram));
    state.counters["sim_ns"] = ns;
    state.counters["paper_ns"] = kLocalMramWordReadNs;
}
BENCHMARK(BM_LocalMramRead64);

void
BM_LocalWramRead64(benchmark::State &state)
{
    double ns = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(ns = simulatedReadNs(Tier::Wram));
    state.counters["sim_ns"] = ns;
}
BENCHMARK(BM_LocalWramRead64);

void
BM_InterDpuRead64(benchmark::State &state)
{
    const double read_s = kInterDpuWordReadUs * 1e-6;
    double us = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(us = read_s * 1e6);
    state.counters["sim_us"] = us;
    state.counters["paper_us"] = 331.0;
    state.counters["vs_local_mram_x"] =
        read_s / (simulatedReadNs(Tier::Mram) * 1e-9);
}
BENCHMARK(BM_InterDpuRead64);

/** Cost of one instrumented STM read+write pair, per algorithm. */
void
BM_StmReadWriteCost(benchmark::State &state)
{
    const auto kind = static_cast<core::StmKind>(state.range(0));
    double ns_per_op = 0;
    for (auto _ : state) {
        Dpu dpu(smallDpu());
        core::StmConfig cfg;
        cfg.kind = kind;
        cfg.num_tasklets = 1;
        cfg.max_read_set = 64;
        cfg.max_write_set = 64;
        auto stm = std::make_unique<core::Stm>(dpu, cfg);
        runtime::SharedArray32 arr(dpu, Tier::Mram, 32);
        dpu.addTasklet([&](DpuContext &ctx) {
            for (int i = 0; i < 16; ++i) {
                core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                    const u32 v = tx.read(arr.at(static_cast<size_t>(i) % 32));
                    tx.write(arr.at(static_cast<size_t>(i) % 32), v + 1);
                });
            }
        });
        dpu.run();
        ns_per_op = cyclesToSeconds(dpu.stats().total_cycles) * 1e9 / 16;
    }
    state.SetLabel(core::stmKindName(kind));
    state.counters["sim_ns_per_tx"] = ns_per_op;
}
BENCHMARK(BM_StmReadWriteCost)->DenseRange(0, 6);

/**
 * Cost of one uncontended map operation (insert+lookup+erase) through
 * the two structure-selection modes: word-based TxHashMap transactions
 * (arg 0) vs the boosted library's abstract locks + direct accesses
 * (arg 1) — the same switch RunSpec::stm.boosting / --boosting=on flips in
 * the sweep harnesses. Boosting trades read/write-set maintenance for
 * two stripe-word touches and a latch, so the uncontended delta is the
 * price paid for contention immunity.
 */
void
BM_MapOpCost(benchmark::State &state)
{
    const bool boosted = state.range(0) != 0;
    double ns_per_op = 0;
    for (auto _ : state) {
        Dpu dpu(smallDpu());
        core::StmConfig cfg;
        cfg.num_tasklets = 1;
        cfg.max_read_set = 64;
        cfg.max_write_set = 64;
        cfg.boosting = boosted;
        auto stm = std::make_unique<core::Stm>(dpu, cfg);
        runtime::TxHashMap map(dpu, Tier::Mram, 64);
        std::unique_ptr<runtime::BoostedMap> bmap;
        if (boosted)
            bmap = std::make_unique<runtime::BoostedMap>(dpu, *stm, map);
        dpu.addTasklet([&](DpuContext &ctx) {
            for (u32 i = 0; i < 16; ++i) {
                core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                    u32 v = 0;
                    if (boosted) {
                        bmap->insert(tx, i, i * 3);
                        bmap->lookup(tx, i, v);
                        bmap->erase(tx, i);
                    } else {
                        map.insert(tx, i, i * 3);
                        map.lookup(tx, i, v);
                        map.erase(tx, i);
                    }
                });
            }
        });
        dpu.run();
        ns_per_op = cyclesToSeconds(dpu.stats().total_cycles) * 1e9 / 16;
    }
    state.SetLabel(boosted ? "boosted" : "word");
    state.counters["sim_ns_per_tx"] = ns_per_op;
}
BENCHMARK(BM_MapOpCost)->DenseRange(0, 1);

} // namespace

BENCHMARK_MAIN();
