/**
 * @file
 * Event-driven scheduler tests: fiber-switch elision must leave every
 * simulated statistic bitwise identical to the always-switch schedule
 * (checked across all seven STM variants on ArrayBench, LinkedList and
 * a barrier-heavy KMeans config), the incremental runnable /
 * finished / blocked counters must track every suspend / wake /
 * barrier / finish transition exactly, and a relaunched DPU — whose
 * tasklet slots keep their fibers, and whose tasklets start on stacks
 * earlier launches dirtied — must simulate exactly like a fresh one.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/stm.hh"
#include "runtime/driver.hh"
#include "sim/dpu.hh"
#include "sim/fault.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/linkedlist.hh"

using namespace pimstm;

namespace
{

/**
 * Equality over the *simulated* DpuStats fields. The host-side
 * scheduler counters (sched_switches / sched_elisions) are excluded on
 * purpose: an elided and an always-switch run differ there by
 * construction while agreeing on all simulated time and traffic.
 */
void
expectSameSimulatedStats(const sim::DpuStats &a, const sim::DpuStats &b)
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
expectSameStmStats(const core::StmStats &a, const core::StmStats &b)
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

/** Run @p factory's workload under both scheduling modes and require
 * bitwise-identical simulated results. */
void
checkElidedVsAlwaysSwitch(const runtime::WorkloadFactory &factory,
                          core::StmKind kind, unsigned tasklets)
{
    runtime::RunSpec spec;
    spec.kind = kind;
    spec.tier = core::MetadataTier::Mram;
    spec.tasklets = tasklets;
    spec.seed = 42;
    spec.mram_bytes = 4 * 1024 * 1024;

    auto wl_elided = factory();
    spec.sim_always_switch = false;
    const auto elided = runtime::runWorkload(*wl_elided, spec);

    auto wl_switch = factory();
    spec.sim_always_switch = true;
    const auto switched = runtime::runWorkload(*wl_switch, spec);

    expectSameSimulatedStats(elided.dpu, switched.dpu);
    expectSameStmStats(elided.stm, switched.stm);
    EXPECT_EQ(elided.seconds, switched.seconds);
    EXPECT_EQ(elided.throughput, switched.throughput);
    EXPECT_EQ(elided.abort_rate, switched.abort_rate);

    // The modes must actually differ as schedules: switching always,
    // the scheduler performs at least one fiber entry per elision the
    // fast mode absorbed.
    EXPECT_EQ(switched.dpu.sched_elisions, 0u);
    EXPECT_GE(switched.dpu.sched_switches, elided.dpu.sched_switches);
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
            workloads::LinkedListParams::lowContention(16));
    };
}

/** Barrier-heavy config: every KMeans round rendezvouses twice. */
runtime::WorkloadFactory
kmeansFactory()
{
    return [] {
        return std::make_unique<workloads::KMeans>(
            workloads::KMeansParams::highContention(8));
    };
}

struct NamedFactory
{
    const char *name;
    runtime::WorkloadFactory (*make)();
    unsigned tasklets;
};

} // namespace

// ---------------------------------------------------------------------
// Elision equivalence across the whole STM taxonomy
// ---------------------------------------------------------------------

class SchedElision : public ::testing::TestWithParam<core::StmKind>
{};

TEST_P(SchedElision, BitwiseEqualAcrossWorkloads)
{
    const NamedFactory factories[] = {
        {"ArrayBench", &arrayBenchFactory, 6},
        {"LinkedList", &linkedListFactory, 6},
        {"KMeans", &kmeansFactory, 8},
    };
    for (const auto &f : factories) {
        SCOPED_TRACE(f.name);
        checkElidedVsAlwaysSwitch(f.make(), GetParam(), f.tasklets);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStmKinds, SchedElision,
    ::testing::ValuesIn(core::allStmKinds()),
    [](const ::testing::TestParamInfo<core::StmKind> &info) {
        // Kind names contain spaces ("Tiny ETLWB"); gtest names may not.
        std::string name;
        for (char c : std::string(core::stmKindName(info.param)))
            if (std::isalnum(static_cast<unsigned char>(c)))
                name += c;
        return name;
    });

// ---------------------------------------------------------------------
// Elision mechanics on a bare Dpu
// ---------------------------------------------------------------------

namespace
{

sim::Dpu
makeDpu(bool always_switch = false)
{
    sim::DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    cfg.always_switch = always_switch;
    return sim::Dpu(cfg);
}

} // namespace

TEST(SchedElisionUnit, LoneTaskletNeverSwitchesAfterEntry)
{
    sim::DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    sim::Dpu dpu(cfg);
    dpu.addTasklet([](sim::DpuContext &ctx) {
        for (int i = 0; i < 100; ++i)
            ctx.compute(1);
    });
    dpu.run();
    EXPECT_EQ(dpu.stats().sched_switches, 1u);
    EXPECT_EQ(dpu.stats().sched_elisions, 100u);
}

TEST(SchedElisionUnit, AlwaysSwitchConfigPaysOneSwitchPerCharge)
{
    sim::DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    cfg.always_switch = true;
    sim::Dpu dpu(cfg);
    dpu.addTasklet([](sim::DpuContext &ctx) {
        for (int i = 0; i < 100; ++i)
            ctx.compute(1);
    });
    dpu.run();
    EXPECT_TRUE(dpu.alwaysSwitch());
    EXPECT_EQ(dpu.stats().sched_elisions, 0u);
    EXPECT_EQ(dpu.stats().sched_switches, 101u);
}

TEST(SchedElisionUnit, EnvVarForcesAlwaysSwitch)
{
    ::setenv("PIMSTM_SIM_ALWAYS_SWITCH", "1", 1);
    {
        sim::DpuConfig cfg;
        cfg.mram_bytes = 1 << 20;
        sim::Dpu dpu(cfg);
        EXPECT_TRUE(dpu.alwaysSwitch());
    }
    ::setenv("PIMSTM_SIM_ALWAYS_SWITCH", "0", 1);
    {
        sim::DpuConfig cfg;
        cfg.mram_bytes = 1 << 20;
        sim::Dpu dpu(cfg);
        EXPECT_FALSE(dpu.alwaysSwitch());
    }
    ::unsetenv("PIMSTM_SIM_ALWAYS_SWITCH");
}

TEST(SchedElisionUnit, MixedScheduleIdenticalAcrossModes)
{
    // Fibers, atomics, barriers, WRAM and MRAM traffic with rng-varied
    // costs: the elided and always-switch schedules must agree on all
    // simulated statistics.
    auto body = [](sim::DpuContext &ctx) {
        for (int i = 0; i < 25; ++i) {
            ctx.compute(1 + ctx.rng().below(12));
            const sim::Addr m = sim::makeAddr(
                sim::Tier::Mram,
                static_cast<u32>(8 * ctx.rng().below(128)));
            ctx.write64(m, ctx.read64(m) + 1);
            ctx.acquire(5);
            const sim::Addr w = sim::makeAddr(
                sim::Tier::Wram,
                static_cast<u32>(4 * ctx.rng().below(32)));
            ctx.write32(w, ctx.read32(w) + 1);
            ctx.release(5);
            if (i % 6 == 0)
                ctx.barrier();
            if (i % 9 == 0)
                ctx.yield();
        }
    };

    auto runWith = [&](bool always_switch) {
        auto dpu = makeDpu(always_switch);
        dpu.addTasklets(8, body);
        dpu.run();
        return dpu.stats();
    };
    const auto elided = runWith(false);
    const auto switched = runWith(true);
    expectSameSimulatedStats(elided, switched);
    EXPECT_GT(elided.sched_elisions, 0u);
    EXPECT_EQ(switched.sched_elisions, 0u);
    // Exact counts of the scheduler that resumed every tasklet from its
    // loop: handing off tasklet to tasklet must resume the same
    // tasklets as often, and always-switch pays one resumption per
    // charge the elided run absorbed.
    EXPECT_EQ(elided.sched_switches, 2008u);
    EXPECT_EQ(elided.sched_elisions, 241u);
    EXPECT_EQ(switched.sched_switches, 2249u);
}

// ---------------------------------------------------------------------
// Incremental runnable / finished counters
// ---------------------------------------------------------------------

TEST(SchedCounters, TrackAtomicBlockAndWake)
{
    auto dpu = makeDpu();
    std::vector<unsigned> runnable_while_holding;
    // Tasklet 0 wins the bit (lowest id runs first from equal clocks),
    // computes far ahead while 1 and 2 block on it, then observes the
    // counters and releases.
    dpu.addTasklets(3, [&](sim::DpuContext &ctx) {
        ctx.acquire(7);
        if (ctx.taskletId() == 0) {
            ctx.compute(500); // let the others reach the held bit
            runnable_while_holding.push_back(ctx.dpu().runnableCount());
        }
        ctx.release(7);
        ctx.compute(10);
    });
    dpu.run();
    ASSERT_EQ(runnable_while_holding.size(), 1u);
    // Only tasklet 0 is Ready: 1 and 2 are BlockedAtomic.
    EXPECT_EQ(runnable_while_holding[0], 1u);
    // 1 and 2 stall on the held bit; after the release both retry and
    // the loser (2) stalls once more before 1 releases in turn.
    EXPECT_EQ(dpu.stats().atomic_stalls, 3u);
    EXPECT_EQ(dpu.runnableCount(), 0u);
    EXPECT_EQ(dpu.finishedCount(), 3u);
}

TEST(SchedCounters, TrackBarrierArrivals)
{
    auto dpu = makeDpu();
    std::vector<unsigned> runnable_at_arrival(4, 0);
    // Arrival order is by simulated completion time: tasklet i computes
    // (i+1)*50 instructions, so i arrives i-th and sees 4-i tasklets
    // still runnable (itself included; earlier arrivers are blocked).
    dpu.addTasklets(4, [&](sim::DpuContext &ctx) {
        ctx.compute((ctx.taskletId() + 1) * 50);
        runnable_at_arrival[ctx.taskletId()] =
            ctx.dpu().runnableCount();
        ctx.barrier();
        ctx.compute(5);
    });
    dpu.run();
    EXPECT_EQ(runnable_at_arrival, (std::vector<unsigned>{4, 3, 2, 1}));
    EXPECT_EQ(dpu.finishedCount(), 4u);
    EXPECT_EQ(dpu.runnableCount(), 0u);
}

TEST(SchedCounters, FinishersReleaseTheBarrier)
{
    // Two tasklets finish without ever reaching the barrier; the other
    // two wait at it. The finishing tasklets must release the barrier
    // via the finished-count bookkeeping (alive = total - finished).
    auto dpu = makeDpu();
    std::vector<unsigned> finished_after_barrier;
    dpu.addTasklets(4, [&](sim::DpuContext &ctx) {
        if (ctx.taskletId() < 2) {
            ctx.compute(10);
            return; // finish early
        }
        ctx.compute(2000); // arrive after both finishers are done
        ctx.barrier();
        finished_after_barrier.push_back(ctx.dpu().finishedCount());
    });
    dpu.run();
    ASSERT_EQ(finished_after_barrier.size(), 2u);
    // The last arriver releases the barrier and keeps running, so it
    // records first (2 finished); by the time the woken waiter records,
    // the releaser has itself finished (3).
    EXPECT_EQ(finished_after_barrier[0], 2u);
    EXPECT_EQ(finished_after_barrier[1], 3u);
    EXPECT_EQ(dpu.finishedCount(), 4u);
}

TEST(SchedCounters, RunnableCountPricesThePipeline)
{
    // instrCost uses the incrementally-maintained runnable count: with
    // 16 ready tasklets one instruction costs 16 cycles, and after 15
    // of them finish a lone tasklet pays the reissue interval (11).
    auto dpu = makeDpu();
    std::vector<u64> costs;
    dpu.addTasklets(16, [&](sim::DpuContext &ctx) {
        const auto t0 = ctx.now();
        ctx.compute(1);
        if (ctx.taskletId() == 0)
            costs.push_back(ctx.now() - t0);
        if (ctx.taskletId() == 0) {
            ctx.compute(3000); // outlive the others
            const auto t1 = ctx.now();
            ctx.compute(1);
            costs.push_back(ctx.now() - t1);
        }
    });
    dpu.run();
    ASSERT_EQ(costs.size(), 2u);
    EXPECT_EQ(costs[0], 16u); // 16 runnable > reissue interval 11
    EXPECT_EQ(costs[1], 11u); // lone tasklet: max(11, 1)
}

TEST(SchedCounters, ResetRunClearsSchedulerState)
{
    auto dpu = makeDpu();
    dpu.addTasklets(2, [](sim::DpuContext &ctx) { ctx.compute(10); });
    dpu.run();
    EXPECT_EQ(dpu.finishedCount(), 2u);
    dpu.resetRun();
    EXPECT_EQ(dpu.finishedCount(), 0u);
    EXPECT_EQ(dpu.runnableCount(), 0u);
    dpu.addTasklet([](sim::DpuContext &ctx) { ctx.compute(1); });
    EXPECT_EQ(dpu.runnableCount(), 1u);
    dpu.run();
    EXPECT_EQ(dpu.finishedCount(), 1u);
}

TEST(SchedCounters, TouchRandomWramChargesPerEightBytes)
{
    // touchRandom must price WRAM accesses like touchRead/touchWrite:
    // kWramAccessInstrs per started 8-byte word, per access.
    auto dpu = makeDpu();
    u64 cost_4b = 0, cost_24b = 0;
    dpu.addTasklet([&](sim::DpuContext &ctx) {
        auto t0 = ctx.now();
        ctx.touchRandom(sim::Tier::Wram, 10, 4, false);
        cost_4b = ctx.now() - t0;
        t0 = ctx.now();
        ctx.touchRandom(sim::Tier::Wram, 10, 24, true);
        cost_24b = ctx.now() - t0;
    });
    dpu.run();
    // 10 accesses x 1 instr x ceil(4/8 = 1 word) x 11 cycles.
    EXPECT_EQ(cost_4b, 10u * 1u * 11u);
    // 10 accesses x 1 instr x ceil(24/8 = 3 words) x 11 cycles.
    EXPECT_EQ(cost_24b, 10u * 3u * 11u);
    EXPECT_EQ(dpu.stats().wram_accesses, 20u);
}

// ---------------------------------------------------------------------
// Relaunch: tasklet slots keep their fibers across resetRun/recycle,
// and stacks pass from launch to launch on one host thread
// ---------------------------------------------------------------------

namespace
{

/** Every RNG draw of every tasklet of one launch, by tasklet id. */
using Draws = std::vector<std::vector<u64>>;

/**
 * Recurse @p depth frames of ~1 KiB each (tens of KiB of fiber stack
 * in all), charging simulated time chosen by an RNG draw at every
 * level, so a suspended tasklet's live frames sit deep in a stack that
 * earlier launches already dirtied. With @p faults set, every level
 * also passes the injector's STM-op hook, as the STM does.
 */
u64
deepCharge(sim::DpuContext &ctx, unsigned depth, std::vector<u64> &draws,
           bool faults)
{
    volatile u8 frame[1024];
    const u64 r = ctx.rng().next();
    draws.push_back(r);
    for (size_t i = 0; i < sizeof frame; i += 64)
        frame[i] = static_cast<u8>(r >> (i % 56));
    if (sim::FaultInjector *fi = ctx.dpu().faultInjector();
        faults && fi != nullptr &&
        fi->onStmOp(ctx.taskletId(), false) == sim::StmFault::DpuCrash) {
        ctx.dpu().beginCrash();
        throw sim::DpuCrashException{ctx.taskletId()};
    }
    switch (r % 4) {
      case 0:
        ctx.compute(1 + r % 7);
        break;
      case 1:
        ctx.write32(sim::makeAddr(sim::Tier::Wram,
                                  static_cast<u32>(4 * (r % 256))),
                    static_cast<u32>(r));
        break;
      case 2:
        ctx.touchRead(sim::Tier::Mram, 8 + r % 64);
        break;
      default:
        ctx.acquire(static_cast<u32>(r % 5));
        ctx.compute(2);
        ctx.release(static_cast<u32>(r % 5));
        break;
    }
    u64 sum = depth == 0 ? 0 : deepCharge(ctx, depth - 1, draws, faults);
    for (size_t i = 0; i < sizeof frame; i += 64)
        sum += frame[i];
    return sum;
}

constexpr unsigned kRelaunchDepth = 40;

/** Register @p n deep-stack tasklets recording into @p draws. */
void
addDeepTasklets(sim::Dpu &dpu, unsigned n, Draws &draws,
                bool faults = false)
{
    draws.assign(n, {});
    dpu.addTasklets(n, [&draws, faults](sim::DpuContext &ctx) {
        (void)deepCharge(ctx, kRelaunchDepth, draws[ctx.taskletId()],
                         faults);
    });
}

sim::DpuConfig
relaunchConfig()
{
    sim::DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    return cfg;
}

/** Launch @p n deep-stack tasklets on @p dpu and require the result
 * of a fresh Dpu with its config, host scheduler counters included. */
void
expectRelaunchMatchesFresh(sim::Dpu &dpu, unsigned n)
{
    SCOPED_TRACE(std::to_string(n) + " tasklets");
    Draws draws;
    addDeepTasklets(dpu, n, draws);
    dpu.run();

    sim::Dpu fresh(dpu.config());
    Draws fresh_draws;
    addDeepTasklets(fresh, n, fresh_draws);
    fresh.run();

    expectSameSimulatedStats(dpu.stats(), fresh.stats());
    EXPECT_EQ(dpu.stats().sched_switches, fresh.stats().sched_switches);
    EXPECT_EQ(dpu.stats().sched_elisions, fresh.stats().sched_elisions);
    EXPECT_EQ(draws, fresh_draws);
    EXPECT_EQ(draws[0].size(), kRelaunchDepth + 1);
}

} // namespace

TEST(DpuRelaunch, ResetRunAndRecycleMatchFreshDpus)
{
    sim::Dpu dpu(relaunchConfig());
    for (unsigned n : {4u, 1u, 11u, 24u, 2u}) {
        expectRelaunchMatchesFresh(dpu, n);
        dpu.resetRun();
    }
    // A larger stack than the spare stacks: a new one is allocated.
    sim::DpuConfig bigger = relaunchConfig();
    bigger.fiber_stack_bytes = 2 * relaunchConfig().fiber_stack_bytes;
    dpu.recycle(bigger);
    expectRelaunchMatchesFresh(dpu, 24);
    dpu.recycle(relaunchConfig());
    expectRelaunchMatchesFresh(dpu, 7);
}

TEST(DpuRelaunch, StacksPassBetweenDpusOnOneThread)
{
    // Alternating launches: each DPU's tasklets start on the stacks the
    // other DPU's tasklets just dirtied.
    sim::Dpu a(relaunchConfig());
    sim::DpuConfig other = relaunchConfig();
    other.seed = 7;
    sim::Dpu b(other);
    for (unsigned n : {4u, 11u, 3u}) {
        expectRelaunchMatchesFresh(a, n);
        expectRelaunchMatchesFresh(b, n + 1);
        a.resetRun();
        b.resetRun();
    }
}

TEST(DpuRelaunch, CrashAbandonedFibersAreReplaced)
{
    sim::DpuConfig cfg = relaunchConfig();
    cfg.faults = sim::FaultPlan::parse("dpu-crash=60");
    sim::Dpu dpu(cfg);

    // The crash stops the launch with the other tasklets suspended
    // mid-recursion: their fibers are abandoned, never unwound.
    Draws draws;
    addDeepTasklets(dpu, 6, draws, /*faults=*/true);
    EXPECT_THROW(dpu.run(), sim::DpuCrashError);
    EXPECT_EQ(dpu.stats().dpu_crashes, 1u);
    EXPECT_LT(dpu.finishedCount(), 6u);

    // More tasklets than were abandoned: the abandoned slots get new
    // fibers, the rest are created; the spent crash point stays spent.
    dpu.resetRun(/*reset_faults=*/false);
    addDeepTasklets(dpu, 9, draws, /*faults=*/true);
    dpu.run();
    EXPECT_EQ(dpu.finishedCount(), 9u);
    EXPECT_EQ(dpu.stats().dpu_crashes, 0u);

    dpu.resetRun();
    expectRelaunchMatchesFresh(dpu, 11);
}

TEST(DpuRelaunch, ResetRunDestroysBodies)
{
    sim::Dpu dpu(relaunchConfig());
    auto token = std::make_shared<int>(0);
    dpu.addTasklets(3, [token](sim::DpuContext &ctx) { ctx.compute(1); });
    dpu.run();
    EXPECT_GT(token.use_count(), 1);
    dpu.resetRun();
    EXPECT_EQ(token.use_count(), 1);
}
