/**
 * @file
 * Unit tests for the simulator substrate: fibers, memory tiers, the
 * atomic register, scheduling determinism and the pipeline/DMA timing
 * model's qualitative properties (scaling knee at 11 tasklets, MRAM
 * engine serialization).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/dpu.hh"
#include "sim/fiber.hh"

using namespace pimstm;
using namespace pimstm::sim;

TEST(Fiber, RunsAndYields)
{
    Fiber f;
    int step = 0;
    f.init(64 * 1024, [&] {
        step = 1;
        f.yieldOut();
        step = 2;
    });
    EXPECT_TRUE(f.enter());
    EXPECT_EQ(step, 1);
    EXPECT_FALSE(f.enter());
    EXPECT_EQ(step, 2);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, PropagatesExceptions)
{
    Fiber f;
    f.init(64 * 1024, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.enter(), std::runtime_error);
    EXPECT_TRUE(f.finished());
}

TEST(Fiber, ExceptionCaughtInsideFiberIsTransparent)
{
    // STM aborts unwind via exceptions *inside* the fiber; make sure
    // that works on a makecontext stack.
    Fiber f;
    bool caught = false;
    f.init(64 * 1024, [&] {
        try {
            throw 42;
        } catch (int) {
            caught = true;
        }
    });
    EXPECT_FALSE(f.enter());
    EXPECT_TRUE(caught);
}

TEST(Fiber, Reusable)
{
    Fiber f;
    int runs = 0;
    for (int i = 0; i < 3; ++i) {
        f.init(64 * 1024, [&] { ++runs; });
        EXPECT_FALSE(f.enter());
    }
    EXPECT_EQ(runs, 3);
}

namespace
{

/** Address of a local in the body's first frame: which stack it ran on. */
void
armRecordingStackAddress(Fiber &f, uintptr_t &at, bool yield)
{
    f.init(64 * 1024, [&f, &at, yield] {
        volatile char probe = 0;
        at = reinterpret_cast<uintptr_t>(&probe);
        if (yield)
            f.yieldOut();
    });
}

} // namespace

TEST(Fiber, FinishedFibersHandTheirStackToTheNextOnTheirThread)
{
    Fiber a, b;
    uintptr_t at_a = 0, at_b = 0;
    armRecordingStackAddress(a, at_a, false);
    EXPECT_FALSE(a.enter());
    armRecordingStackAddress(b, at_b, false);
    EXPECT_FALSE(b.enter());
    EXPECT_EQ(at_a, at_b);
}

TEST(Fiber, LiveFibersRunOnSeparateStacks)
{
    Fiber a, b;
    uintptr_t at_a = 0, at_b = 0;
    armRecordingStackAddress(a, at_a, true);
    armRecordingStackAddress(b, at_b, true);
    EXPECT_TRUE(a.enter());
    EXPECT_TRUE(b.enter()); // a is suspended: its stack is not spare
    // The same frame on two disjoint stacks of at least 64 KiB each.
    EXPECT_GE(at_a > at_b ? at_a - at_b : at_b - at_a, 32u * 1024);
    EXPECT_FALSE(a.enter());
    EXPECT_FALSE(b.enter());
}

// A body hands the owner over to a peer (switchTo); what the peer does
// next — yield, finish or throw — must reach the owner as the peer's.

TEST(Fiber, HandoffThenYieldComesBackAsThePeer)
{
    Fiber a, b;
    std::vector<int> order;
    a.init(64 * 1024, [&] {
        order.push_back(1);
        a.switchTo(b);
        order.push_back(4);
    });
    b.init(64 * 1024, [&] {
        order.push_back(2);
        b.yieldOut();
        order.push_back(3);
    });
    Fiber *back = nullptr;
    EXPECT_TRUE(a.enter(&back));
    EXPECT_EQ(back, &b);
    EXPECT_TRUE(a.runnable()); // suspended in switchTo
    EXPECT_FALSE(b.enter(&back));
    EXPECT_EQ(back, &b);
    EXPECT_FALSE(a.enter(&back));
    EXPECT_EQ(back, &a);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Fiber, HandoffThenFinishReleasesThePeersStack)
{
    Fiber a, b, c;
    uintptr_t at_a = 0, at_b = 0, at_c = 0;
    a.init(64 * 1024, [&] {
        volatile char probe = 0;
        at_a = reinterpret_cast<uintptr_t>(&probe);
        a.switchTo(b);
    });
    armRecordingStackAddress(b, at_b, false);
    Fiber *back = nullptr;
    EXPECT_FALSE(a.enter(&back));
    EXPECT_EQ(back, &b);
    EXPECT_TRUE(b.finished());
    EXPECT_TRUE(a.runnable());
    // The spare stack is b's: a, still suspended, keeps its own.
    armRecordingStackAddress(c, at_c, false);
    EXPECT_FALSE(c.enter());
    EXPECT_EQ(at_c, at_b);
    EXPECT_NE(at_c, at_a);
    EXPECT_FALSE(a.enter(&back));
    EXPECT_EQ(back, &a);
}

TEST(Fiber, HandoffThenThrowRethrowsFromTheOwnersEnter)
{
    Fiber a, b;
    bool a_resumed = false;
    a.init(64 * 1024, [&] {
        a.switchTo(b);
        a_resumed = true;
    });
    b.init(64 * 1024, [] { throw std::runtime_error("peer"); });
    EXPECT_THROW(a.enter(), std::runtime_error);
    EXPECT_TRUE(b.finished());
    EXPECT_TRUE(a.runnable());
    EXPECT_FALSE(a.enter()); // the peer's exception is not rethrown twice
    EXPECT_TRUE(a_resumed);
}

TEST(Memory, ReadWriteRoundTrip)
{
    Memory m(Tier::Mram, 4096);
    m.write32(0, 0xdeadbeef);
    m.write32(100, 42);
    m.write64(200, 0x0123456789abcdefULL);
    EXPECT_EQ(m.read32(0), 0xdeadbeefu);
    EXPECT_EQ(m.read32(100), 42u);
    EXPECT_EQ(m.read64(200), 0x0123456789abcdefULL);
}

TEST(Memory, BlockAccess)
{
    Memory m(Tier::Wram, 1024);
    const char src[] = "hello pim";
    m.writeBlock(16, src, sizeof(src));
    char dst[sizeof(src)];
    m.readBlock(16, dst, sizeof(src));
    EXPECT_STREQ(dst, src);
}

TEST(Memory, AllocatorRespectsCapacity)
{
    Memory m(Tier::Wram, 1024);
    const u32 a = m.alloc(512);
    EXPECT_EQ(a, 0u);
    EXPECT_TRUE(m.canAlloc(512));
    EXPECT_FALSE(m.canAlloc(513));
    EXPECT_THROW(m.alloc(513), FatalError);
    m.alloc(512);
    EXPECT_EQ(m.available(), 0u);
}

TEST(Memory, AllocatorAligns)
{
    Memory m(Tier::Wram, 1024);
    m.alloc(3, 1);
    const u32 b = m.alloc(8, 8);
    EXPECT_EQ(b % 8, 0u);
}

TEST(Memory, ResetAllocReclaims)
{
    Memory m(Tier::Wram, 128);
    m.alloc(128);
    EXPECT_FALSE(m.canAlloc(1));
    m.resetAlloc();
    EXPECT_TRUE(m.canAlloc(128));
}

TEST(Memory, CrashScrambleResolvesLinesInOffsetOrder)
{
    // Lines dirtied in descending order still take the seeded RNG's
    // draws in ascending offset order, and a line written twice keeps
    // the pre-image of its first write since the last fence.
    constexpr u32 kLines = 64;
    const auto before = [](u32 i) { return 0x0101010101010101ULL * i; };
    const auto after = [](u32 i) { return 0xa5a5a5a500000000ULL | i; };
    Memory m(Tier::Mram, 4096);
    for (u32 i = 0; i < kLines; ++i)
        m.write64(8 * i, before(i));
    m.setPersistTracking(true);
    m.write64(8 * 5, 0xdeadULL);
    for (u32 i = kLines; i-- > 0;)
        m.write64(8 * i, after(i));
    EXPECT_EQ(m.pendingPersistLines(), kLines);

    const u64 seed = 12345;
    m.crashScramble(seed);
    Rng rng(seed);
    constexpr u64 kLow = 0xffffffffULL;
    for (u32 i = 0; i < kLines; ++i) {
        const u64 pre = before(i), post = after(i);
        u64 want = post; // kept
        switch (rng.below(4)) {
          case 1: // dropped
            want = pre;
            break;
          case 2: // low half reverted
            want = (post & ~kLow) | (pre & kLow);
            break;
          case 3: // high half reverted
            want = (pre & ~kLow) | (post & kLow);
            break;
        }
        EXPECT_EQ(m.read64(8 * i), want) << "line " << i;
    }
    EXPECT_EQ(m.pendingPersistLines(), 0u);

    // The crash emptied the pending set: the next write is tracked anew.
    m.write64(0, 7);
    EXPECT_EQ(m.pendingPersistLines(), 1u);
    EXPECT_EQ(m.fence(), 1u);
    EXPECT_EQ(m.pendingPersistLines(), 0u);
}

TEST(Addr, TierTagging)
{
    const Addr w = makeAddr(Tier::Wram, 0x1234);
    const Addr m = makeAddr(Tier::Mram, 0x1234);
    EXPECT_EQ(addrTier(w), Tier::Wram);
    EXPECT_EQ(addrTier(m), Tier::Mram);
    EXPECT_EQ(addrOffset(w), 0x1234u);
    EXPECT_EQ(addrOffset(m), 0x1234u);
    EXPECT_NE(w, m);
}

TEST(AtomicRegister, AcquireRelease)
{
    AtomicRegister reg;
    const unsigned bit = reg.bitFor(0x1000);
    EXPECT_TRUE(reg.tryAcquire(bit, 3));
    EXPECT_TRUE(reg.isHeld(bit));
    EXPECT_EQ(reg.holder(bit), 3);
    EXPECT_FALSE(reg.tryAcquire(bit, 5));
    reg.release(bit, 3);
    EXPECT_FALSE(reg.isHeld(bit));
    EXPECT_TRUE(reg.tryAcquire(bit, 5));
}

TEST(AtomicRegister, ReleaseByNonHolderPanics)
{
    AtomicRegister reg;
    EXPECT_TRUE(reg.tryAcquire(7, 1));
    EXPECT_THROW(reg.release(7, 2), PanicError);
}

TEST(AtomicRegister, HashCoversManyBits)
{
    AtomicRegister reg;
    std::vector<bool> seen(256, false);
    unsigned distinct = 0;
    for (u32 k = 0; k < 4096; ++k) {
        const unsigned b = reg.bitFor(k * 4);
        ASSERT_LT(b, 256u);
        if (!seen[b]) {
            seen[b] = true;
            ++distinct;
        }
    }
    // A uniform hash should reach (almost) all 256 bits from 4096 keys.
    EXPECT_GT(distinct, 200u);
}

TEST(AtomicRegister, ReducedBitsAlias)
{
    AtomicRegister reg(4);
    for (u32 k = 0; k < 64; ++k)
        EXPECT_LT(reg.bitFor(k), 4u);
}

namespace
{

DpuConfig
smallDpuConfig()
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 * 1024 * 1024;
    return cfg;
}

} // namespace

TEST(Dpu, SingleTaskletComputesAndFinishes)
{
    Dpu dpu(smallDpuConfig());
    dpu.addTasklet([](DpuContext &ctx) { ctx.compute(100); });
    dpu.run();
    // One tasklet: 100 instructions at the 11-cycle reissue interval.
    EXPECT_EQ(dpu.stats().total_cycles, 100u * 11u);
    EXPECT_EQ(dpu.stats().instructions, 100u);
}

TEST(Dpu, ComputeScalesLinearlyUpToEleven)
{
    // Aggregate compute throughput must scale ~linearly to 11 tasklets
    // and be flat beyond — the UPMEM pipeline saturation the paper's
    // scalability analysis relies on.
    auto cycles_for = [](unsigned tasklets) {
        Dpu dpu(smallDpuConfig());
        dpu.addTasklets(tasklets,
                        [](DpuContext &ctx) { ctx.compute(1000); });
        dpu.run();
        return dpu.stats().total_cycles;
    };
    const auto c1 = cycles_for(1);
    const auto c11 = cycles_for(11);
    const auto c22 = cycles_for(22);
    // 11 tasklets do 11x the work in (about) the same time as 1.
    EXPECT_NEAR(static_cast<double>(c11) / c1, 1.0, 0.05);
    // 22 tasklets do 2x the work of 11 in about 2x the time.
    EXPECT_NEAR(static_cast<double>(c22) / c11, 2.0, 0.05);
}

TEST(Dpu, MramSlowerThanWram)
{
    Dpu dpu(smallDpuConfig());
    const u32 moff = dpu.mram().alloc(64);
    const u32 woff = dpu.wram().alloc(64);
    Cycles wram_cost = 0, mram_cost = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        const Cycles t0 = ctx.now();
        ctx.read32(makeAddr(Tier::Wram, woff));
        const Cycles t1 = ctx.now();
        ctx.read32(makeAddr(Tier::Mram, moff));
        const Cycles t2 = ctx.now();
        wram_cost = t1 - t0;
        mram_cost = t2 - t1;
    });
    dpu.run();
    EXPECT_GT(mram_cost, 5 * wram_cost);
}

TEST(Dpu, MramLatencyMatchesPaperMeasurement)
{
    // The paper measured 231 ns for a local MRAM 64-bit read; the
    // timing model should land in that ballpark (within 25%).
    Dpu dpu(smallDpuConfig());
    const u32 off = dpu.mram().alloc(64);
    Cycles cost = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        const Cycles t0 = ctx.now();
        ctx.read64(makeAddr(Tier::Mram, off));
        cost = ctx.now() - t0;
    });
    dpu.run();
    const double ns = cyclesToSeconds(cost) * 1e9;
    EXPECT_GT(ns, 231.0 * 0.75);
    EXPECT_LT(ns, 231.0 * 1.25);
}

TEST(Dpu, MramEngineSerializesBlockTransfers)
{
    // Tasklets streaming large blocks share one DMA engine, so the
    // workload must saturate well below 11x — this is what limits
    // Labyrinth's grid-copy-heavy transactions in the paper.
    auto cycles_for = [](unsigned tasklets) {
        Dpu dpu(smallDpuConfig());
        dpu.addTasklets(tasklets, [](DpuContext &ctx) {
            for (int i = 0; i < 50; ++i)
                ctx.touchRead(Tier::Mram, 2048);
        });
        dpu.run();
        return dpu.stats().total_cycles;
    };
    const double c1 = static_cast<double>(cycles_for(1));
    const double c11 = static_cast<double>(cycles_for(11));
    // Perfect scaling would be c11 == c1; full serialization c11 == 11*c1.
    // Block streams must be clearly bandwidth-bound (sub-linear).
    EXPECT_GT(c11 / c1, 3.0);
}

TEST(Dpu, WordAccessesPipelineAcrossTasklets)
{
    // Word-granular MRAM accesses are latency- not bandwidth-bound:
    // 8 tasklets overlap their DMAs and finish close to 1-tasklet time.
    auto cycles_for = [](unsigned tasklets) {
        Dpu dpu(smallDpuConfig());
        const u32 off = dpu.mram().alloc(4096);
        dpu.addTasklets(tasklets, [off](DpuContext &ctx) {
            for (int i = 0; i < 200; ++i)
                ctx.read32(makeAddr(Tier::Mram,
                                    off + 4 * (ctx.taskletId() * 32 +
                                               (i % 32))));
        });
        dpu.run();
        return dpu.stats().total_cycles;
    };
    const double c1 = static_cast<double>(cycles_for(1));
    const double c8 = static_cast<double>(cycles_for(8));
    EXPECT_LT(c8 / c1, 2.0);
}

TEST(Dpu, DeterministicAcrossRuns)
{
    auto run_once = [] {
        Dpu dpu(smallDpuConfig());
        const u32 off = dpu.mram().alloc(256);
        dpu.addTasklets(8, [off](DpuContext &ctx) {
            for (int i = 0; i < 50; ++i) {
                const u32 slot =
                    static_cast<u32>(ctx.rng().below(64)) * 4;
                const Addr a = makeAddr(Tier::Mram, off + slot);
                ctx.write32(a, ctx.read32(a) + 1);
            }
        });
        dpu.run();
        return dpu.stats().total_cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Dpu, BarrierRendezvous)
{
    Dpu dpu(smallDpuConfig());
    const u32 off = dpu.mram().alloc(4);
    dpu.mram().write32(off, 0);
    std::vector<u32> observed;
    dpu.addTasklets(6, [&, off](DpuContext &ctx) {
        // Phase 1: everyone increments; Phase 2: everyone must observe
        // the full count — only possible if the barrier is correct.
        ctx.acquire(1);
        const Addr a = makeAddr(Tier::Mram, off);
        ctx.write32(a, ctx.read32(a) + 1);
        ctx.release(1);
        ctx.barrier();
        observed.push_back(ctx.read32(a));
    });
    dpu.run();
    ASSERT_EQ(observed.size(), 6u);
    for (u32 v : observed)
        EXPECT_EQ(v, 6u);
}

TEST(Dpu, AcquireBlocksUntilRelease)
{
    Dpu dpu(smallDpuConfig());
    const u32 off = dpu.mram().alloc(4);
    dpu.mram().write32(off, 0);
    dpu.addTasklets(8, [off](DpuContext &ctx) {
        for (int i = 0; i < 20; ++i) {
            ctx.acquire(0x42);
            const Addr a = makeAddr(Tier::Mram, off);
            // Non-atomic read-modify-write made safe by the lock.
            const u32 v = ctx.read32(a);
            ctx.compute(5);
            ctx.write32(a, v + 1);
            ctx.release(0x42);
            ctx.compute(3);
        }
    });
    dpu.run();
    EXPECT_EQ(dpu.mram().read32(off), 8u * 20u);
    EXPECT_GT(dpu.stats().atomic_stalls, 0u);
}

TEST(Dpu, PhaseAccountingSplitsCycles)
{
    Dpu dpu(smallDpuConfig());
    dpu.addTasklet([](DpuContext &ctx) {
        ctx.setPhase(Phase::TxRead);
        ctx.compute(10);
        ctx.setPhase(Phase::TxCommit);
        ctx.compute(20);
        ctx.setPhase(Phase::NonTx);
    });
    dpu.run();
    const auto &pc = dpu.stats().phase_cycles;
    EXPECT_EQ(pc[static_cast<size_t>(Phase::TxRead)], 10u * 11u);
    EXPECT_EQ(pc[static_cast<size_t>(Phase::TxCommit)], 20u * 11u);
}

TEST(Dpu, AbortedTxCyclesBecomeWasted)
{
    Dpu dpu(smallDpuConfig());
    dpu.addTasklet([](DpuContext &ctx) {
        ctx.txAccountingBegin();
        ctx.setPhase(Phase::TxRead);
        ctx.compute(10);
        ctx.txAccountingAbort();
        ctx.setPhase(Phase::NonTx);

        ctx.txAccountingBegin();
        ctx.setPhase(Phase::TxRead);
        ctx.compute(10);
        ctx.txAccountingCommit();
        ctx.setPhase(Phase::NonTx);
    });
    dpu.run();
    const auto &pc = dpu.stats().phase_cycles;
    EXPECT_EQ(pc[static_cast<size_t>(Phase::Wasted)], 110u);
    EXPECT_EQ(pc[static_cast<size_t>(Phase::TxRead)], 110u);
}

TEST(Dpu, RejectsTooManyTasklets)
{
    Dpu dpu(smallDpuConfig());
    for (unsigned i = 0; i < 24; ++i)
        dpu.addTasklet([](DpuContext &) {});
    EXPECT_THROW(dpu.addTasklet([](DpuContext &) {}), FatalError);
}

TEST(Dpu, TaskletExceptionPropagates)
{
    Dpu dpu(smallDpuConfig());
    dpu.addTasklet([](DpuContext &) { throw std::runtime_error("app"); });
    EXPECT_THROW(dpu.run(), std::runtime_error);
}

TEST(Dpu, TaskletExceptionAfterHandoffPropagates)
{
    // Three tasklets charging in turn: after its first charge, tasklet 2
    // is resumed by a peer giving up the DPU, not by the scheduler loop,
    // so it throws (at its fifth charge) on a fiber the loop never
    // entered.
    Dpu dpu(smallDpuConfig());
    dpu.addTasklets(3, [](DpuContext &ctx) {
        for (int i = 0; i < 10; ++i) {
            if (ctx.taskletId() == 2 && i == 4)
                throw std::runtime_error("tasklet 2 fails");
            ctx.compute(1);
        }
    });
    EXPECT_THROW(dpu.run(), std::runtime_error);
    ASSERT_EQ(dpu.taskletFaults().size(), 1u);
    EXPECT_EQ(dpu.taskletFaults()[0].tasklet, 2u);
    EXPECT_EQ(dpu.taskletFaults()[0].message, "tasklet 2 fails");
    EXPECT_FALSE(dpu.taskletFaults()[0].injected_crash);
}
