/**
 * @file
 * Host-parallel execution tests: the util::ThreadPool executor itself
 * (index coverage, exception propagation, nested-use guard), the
 * thread-safety of the fiber machinery under concurrent Dpus, and the
 * hard determinism requirement — identical DpuStats / StmStats no
 * matter how many host threads run the sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hostapp/distributed_kv.hh"
#include "runtime/driver.hh"
#include "sim/dpu.hh"
#include "util/thread_pool.hh"
#include "workloads/arraybench.hh"
#include "workloads/linkedlist.hh"

using namespace pimstm;

namespace
{

void
expectEqualDpuStats(const sim::DpuStats &a, const sim::DpuStats &b)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    for (size_t p = 0; p < sim::kNumPhases; ++p)
        EXPECT_EQ(a.phase_cycles[p], b.phase_cycles[p]) << "phase " << p;
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.wram_accesses, b.wram_accesses);
    EXPECT_EQ(a.mram_reads, b.mram_reads);
    EXPECT_EQ(a.mram_writes, b.mram_writes);
    EXPECT_EQ(a.mram_bytes_read, b.mram_bytes_read);
    EXPECT_EQ(a.mram_bytes_written, b.mram_bytes_written);
    EXPECT_EQ(a.atomic_acquires, b.atomic_acquires);
    EXPECT_EQ(a.atomic_stalls, b.atomic_stalls);
    EXPECT_EQ(a.atomic_stall_cycles, b.atomic_stall_cycles);
}

void
expectEqualStmStats(const core::StmStats &a, const core::StmStats &b)
{
    EXPECT_EQ(a.starts, b.starts);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    for (size_t r = 0; r < core::kNumAbortReasons; ++r)
        EXPECT_EQ(a.abort_reasons[r], b.abort_reasons[r]) << "reason " << r;
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.validations, b.validations);
    EXPECT_EQ(a.extensions, b.extensions);
    EXPECT_EQ(a.read_only_commits, b.read_only_commits);
}

} // namespace

// ---------------------------------------------------------------------
// ThreadPool unit tests
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    util::ThreadPool pool(4);
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroAndOneItemWork)
{
    util::ThreadPool pool(4);
    pool.parallelFor(0, [&](size_t) { FAIL() << "fn called for n=0"; });
    int calls = 0;
    pool.parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, JobsOneRunsInlineInOrder)
{
    util::ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<size_t> order;
    pool.parallelFor(64, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SpreadsWorkAcrossThreads)
{
    util::ThreadPool pool(4);
    std::mutex m;
    std::set<std::thread::id> tids;
    pool.parallelFor(256, [&](size_t) {
        // A little spinning so one thread cannot gulp all indices
        // before the workers wake up.
        volatile unsigned sink = 0;
        for (unsigned k = 0; k < 20000; ++k)
            sink = sink + k;
        std::lock_guard<std::mutex> lk(m);
        tids.insert(std::this_thread::get_id());
    });
    // All four may not always participate, but on any host more than
    // one thread must have claimed indices.
    EXPECT_GE(tids.size(), 1u);
    EXPECT_LE(tids.size(), 4u);
}

TEST(ThreadPool, PropagatesSmallestIndexException)
{
    util::ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(100, [&](size_t i) {
            if (i == 11 || i == 37)
                throw std::runtime_error("boom " + std::to_string(i));
            completed.fetch_add(1);
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        // Deterministic choice regardless of which thread threw first.
        EXPECT_STREQ(e.what(), "boom 11");
    }
    // A throwing index does not cancel the rest of the job.
    EXPECT_EQ(completed.load(), 98);
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    util::ThreadPool outer(4);
    util::ThreadPool inner(4);
    std::atomic<int> total{0};
    outer.parallelFor(8, [&](size_t) {
        EXPECT_TRUE(util::ThreadPool::insideTask());
        const auto tid = std::this_thread::get_id();
        // Nested use of a different pool — and of the same pool — must
        // run inline on this thread instead of deadlocking or spawning.
        inner.parallelFor(4, [&](size_t) {
            EXPECT_EQ(std::this_thread::get_id(), tid);
            total.fetch_add(1);
        });
        outer.parallelFor(2, [&](size_t) {
            EXPECT_EQ(std::this_thread::get_id(), tid);
            total.fetch_add(1);
        });
    });
    EXPECT_FALSE(util::ThreadPool::insideTask());
    EXPECT_EQ(total.load(), 8 * (4 + 2));
}

TEST(ThreadPool, NestedExceptionDoesNotUnwindGuard)
{
    util::ThreadPool pool(2);
    pool.parallelFor(2, [&](size_t) {
        try {
            pool.parallelFor(1, [](size_t) {
                throw std::runtime_error("inner");
            });
        } catch (const std::runtime_error &) {
            // The inline nested call must restore, not clear, the
            // inside-task flag when unwinding.
        }
        EXPECT_TRUE(util::ThreadPool::insideTask());
    });
}

TEST(ThreadPool, DefaultJobsHonorsEnv)
{
    ::setenv("PIMSTM_JOBS", "3", 1);
    EXPECT_EQ(util::ThreadPool::defaultJobs(), 3u);
    ::setenv("PIMSTM_JOBS", "garbage", 1);
    EXPECT_GE(util::ThreadPool::defaultJobs(), 1u);
    ::unsetenv("PIMSTM_JOBS");
    EXPECT_GE(util::ThreadPool::defaultJobs(), 1u);
}

// ---------------------------------------------------------------------
// Fiber thread-safety: concurrent Dpus on distinct host threads
// ---------------------------------------------------------------------

namespace
{

/** A small but non-trivial DPU run exercising fibers, the scheduler,
 * atomics and barriers; returns its stats. */
sim::DpuStats
runSmallDpu(u64 seed)
{
    sim::DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    cfg.seed = seed;
    sim::Dpu dpu(cfg);
    dpu.addTasklets(4, [](sim::DpuContext &ctx) {
        for (int i = 0; i < 40; ++i) {
            ctx.compute(5 + ctx.rng().below(10));
            const sim::Addr a = sim::makeAddr(
                sim::Tier::Mram,
                static_cast<u32>(4 * ctx.rng().below(64)));
            ctx.acquire(7);
            ctx.write32(a, ctx.read32(a) + 1);
            ctx.release(7);
            if (i % 8 == 0)
                ctx.barrier();
        }
    });
    dpu.run();
    return dpu.stats();
}

} // namespace

TEST(FiberThreading, TwoDpusOnTwoHostThreads)
{
    // Serial reference runs.
    const sim::DpuStats ref1 = runSmallDpu(101);
    const sim::DpuStats ref2 = runSmallDpu(202);

    // The same two simulations, concurrently on two host threads. The
    // fiber trampoline hand-off slot used to be a plain static; a race
    // there would crash or corrupt one run's schedule.
    sim::DpuStats got1, got2;
    std::thread t1([&] { got1 = runSmallDpu(101); });
    std::thread t2([&] { got2 = runSmallDpu(202); });
    t1.join();
    t2.join();

    expectEqualDpuStats(ref1, got1);
    expectEqualDpuStats(ref2, got2);
}

TEST(FiberThreading, ManyConcurrentDpusViaPool)
{
    constexpr size_t n = 8;
    std::vector<sim::DpuStats> ref(n), got(n);
    for (size_t i = 0; i < n; ++i)
        ref[i] = runSmallDpu(1000 + i);
    util::ThreadPool pool(4);
    pool.parallelFor(n, [&](size_t i) { got[i] = runSmallDpu(1000 + i); });
    for (size_t i = 0; i < n; ++i)
        expectEqualDpuStats(ref[i], got[i]);
}

TEST(DistributedKvParallel, MixedBatchIdenticalOnOneAndFourThreads)
{
    // A fleet's shard DPUs run on separate host threads; a mixed batch
    // of single-shard ops and cross-shard moves must leave identical
    // DPU, STM and 2PC counters and modelled time on 1 and 4 threads.
    auto run = [](unsigned jobs) {
        util::ThreadPool::setGlobalJobs(jobs);
        hostapp::DistributedKvConfig cfg;
        cfg.shards = 8;
        cfg.capacity_per_shard = 256;
        cfg.tasklets_per_dpu = 4;
        cfg.mram_bytes = 1 << 20;
        cfg.seed = 7;
        auto kv = std::make_unique<hostapp::DistributedKv>(cfg);
        std::vector<hostapp::KvOp> ops;
        std::vector<hostapp::CrossShardTx> txs;
        for (u32 k = 1; k <= 96; ++k)
            ops.push_back(hostapp::KvOp::put(k, k * 3));
        kv->execute(ops);
        ops.clear();
        for (u32 k = 1; k <= 48; ++k) {
            ops.push_back(k % 3 == 0 ? hostapp::KvOp::erase(k)
                                     : hostapp::KvOp::get(k));
            txs.push_back(hostapp::CrossShardTx::move(48 + k, 200 + k));
        }
        kv->execute(ops, txs);
        util::ThreadPool::setGlobalJobs(0);
        return kv;
    };
    const auto serial = run(1);
    const auto parallel = run(4);

    expectEqualDpuStats(serial->dpuStats(), parallel->dpuStats());
    expectEqualStmStats(serial->stmStats(), parallel->stmStats());
    EXPECT_EQ(hostapp::twoPcStatsJson(serial->stats()),
              hostapp::twoPcStatsJson(parallel->stats()));
    EXPECT_EQ(serial->elapsedSeconds(), parallel->elapsedSeconds());
    EXPECT_GT(serial->stats().tx_commits, 0u);
}

// ---------------------------------------------------------------------
// Bitwise determinism of the driver across host thread counts
// ---------------------------------------------------------------------

namespace
{

std::vector<runtime::RunSpec>
seedSpecs(core::StmKind kind, unsigned seeds)
{
    std::vector<runtime::RunSpec> specs(seeds);
    for (unsigned s = 0; s < seeds; ++s) {
        specs[s].kind = kind;
        specs[s].tier = core::MetadataTier::Mram;
        specs[s].tasklets = 6;
        specs[s].seed = 1 + s * 7919;
        specs[s].mram_bytes = 4 * 1024 * 1024;
    }
    return specs;
}

void
checkSerialVsParallel(const runtime::WorkloadFactory &factory,
                      core::StmKind kind)
{
    const auto specs = seedSpecs(kind, 4);

    util::ThreadPool::setGlobalJobs(1);
    const auto serial = runtime::runWorkloadMany(factory, specs);
    util::ThreadPool::setGlobalJobs(8);
    const auto parallel = runtime::runWorkloadMany(factory, specs);
    util::ThreadPool::setGlobalJobs(0);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok) << "spec " << i;
        ASSERT_TRUE(parallel[i].ok) << "spec " << i;
        expectEqualDpuStats(serial[i].result.dpu, parallel[i].result.dpu);
        expectEqualStmStats(serial[i].result.stm, parallel[i].result.stm);
        EXPECT_EQ(serial[i].result.seconds, parallel[i].result.seconds);
        EXPECT_EQ(serial[i].result.throughput,
                  parallel[i].result.throughput);
        EXPECT_EQ(serial[i].result.abort_rate,
                  parallel[i].result.abort_rate);
    }
}

runtime::WorkloadFactory
arrayBenchFactory()
{
    return [] {
        return std::make_unique<workloads::ArrayBench>(
            workloads::ArrayBenchParams::workloadA(4));
    };
}

runtime::WorkloadFactory
linkedListFactory()
{
    return [] {
        return std::make_unique<workloads::LinkedList>(
            workloads::LinkedListParams::lowContention(20));
    };
}

} // namespace

TEST(Determinism, ArrayBenchNOrecSerialVsParallel)
{
    checkSerialVsParallel(arrayBenchFactory(), core::StmKind::NOrec);
}

TEST(Determinism, ArrayBenchTinySerialVsParallel)
{
    checkSerialVsParallel(arrayBenchFactory(), core::StmKind::TinyEtlWb);
}

TEST(Determinism, ArrayBenchVrSerialVsParallel)
{
    checkSerialVsParallel(arrayBenchFactory(), core::StmKind::VrEtlWb);
}

TEST(Determinism, LinkedListNOrecSerialVsParallel)
{
    checkSerialVsParallel(linkedListFactory(), core::StmKind::NOrec);
}

TEST(Determinism, LinkedListTinySerialVsParallel)
{
    checkSerialVsParallel(linkedListFactory(), core::StmKind::TinyEtlWb);
}

TEST(Determinism, LinkedListVrSerialVsParallel)
{
    checkSerialVsParallel(linkedListFactory(), core::StmKind::VrEtlWb);
}

TEST(Determinism, InfeasiblePointReportedIdentically)
{
    // A WRAM-metadata configuration that cannot fit: both serial and
    // parallel execution must capture the same per-spec FatalError.
    auto factory = [] {
        return std::make_unique<workloads::ArrayBench>(
            workloads::ArrayBenchParams::workloadA(2));
    };
    std::vector<runtime::RunSpec> specs(2);
    for (auto &s : specs) {
        s.tier = core::MetadataTier::Wram;
        s.kind = core::StmKind::VrEtlWb;
        s.tasklets = 24;
        // Force the lock table far past 64 KB of WRAM.
        s.stm.lock_table_entries_override = 64 * 1024;
    }

    util::ThreadPool::setGlobalJobs(1);
    const auto serial = runtime::runWorkloadMany(factory, specs);
    util::ThreadPool::setGlobalJobs(4);
    const auto parallel = runtime::runWorkloadMany(factory, specs);
    util::ThreadPool::setGlobalJobs(0);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].ok, parallel[i].ok);
        EXPECT_EQ(serial[i].error, parallel[i].error);
    }
}
