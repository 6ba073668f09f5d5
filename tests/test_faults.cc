/**
 * @file
 * Robustness-layer tests: the fault-plan grammar, deterministic fault
 * replay, the empty-plan bitwise-identity guarantee, crash-mid-
 * transaction metadata release across every STM kind, the progress
 * watchdog (constructed deadlock and livelock), and the serial-
 * irrevocable fallback's termination guarantee under a 100%-abort
 * storm.
 *
 * The FaultPlan.* suite is fiber-free (plain parsing); everything else
 * drives full simulated DPUs.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/stm.hh"
#include "runtime/driver.hh"
#include "runtime/shared_array.hh"
#include "sim/fault.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;
using pimstm::runtime::SharedArray32;

TEST(FaultPlan, EmptyAndNoneSpecsInjectNothing)
{
    EXPECT_TRUE(FaultPlan{}.empty());
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse("none").empty());
    EXPECT_TRUE(FaultPlan::parse("seed=42").empty())
        << "a seed alone schedules no fault";
}

TEST(FaultPlan, ParsesCombinedSpec)
{
    const auto p = FaultPlan::parse(
        "seed=7;stall=3@1000:500;stall=*@2000:100;crash=0@12;"
        "acq-delay=250:64;abort=40");
    EXPECT_FALSE(p.empty());
    EXPECT_EQ(p.seed, 7u);
    ASSERT_EQ(p.stalls.size(), 2u);
    EXPECT_EQ(p.stalls[0].tid, 3u);
    EXPECT_EQ(p.stalls[0].at_instrs, 1000u);
    EXPECT_EQ(p.stalls[0].cycles, 500u);
    EXPECT_EQ(p.stalls[1].tid, kAllTasklets);
    ASSERT_EQ(p.crashes.size(), 1u);
    EXPECT_EQ(p.crashes[0].tid, 0u);
    EXPECT_EQ(p.crashes[0].at_op, 12u);
    EXPECT_EQ(p.acq_delay_permille, 250u);
    EXPECT_EQ(p.acq_delay_cycles, 64u);
    EXPECT_EQ(p.abort_permille, 40u);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("banana=1"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stall"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stall=1000:500"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stall=0@1000:0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("stall=24@1000:500"), FatalError);
    EXPECT_THROW(FaultPlan::parse("crash=0@0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("crash=x@5"), FatalError);
    EXPECT_THROW(FaultPlan::parse("acq-delay=1001:10"), FatalError);
    EXPECT_THROW(FaultPlan::parse("acq-delay=10:0"), FatalError);
    EXPECT_THROW(FaultPlan::parse("abort=1001"), FatalError);
    EXPECT_THROW(FaultPlan::parse("seed=99999999999999999999"),
                 FatalError);
}

namespace
{

/** Equality over simulated DpuStats, fault counters included. */
void
expectSameSimulatedStats(const DpuStats &a, const DpuStats &b)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    for (size_t p = 0; p < kNumPhases; ++p)
        EXPECT_EQ(a.phase_cycles[p], b.phase_cycles[p]) << "phase " << p;
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.wram_accesses, b.wram_accesses);
    EXPECT_EQ(a.mram_reads, b.mram_reads);
    EXPECT_EQ(a.mram_writes, b.mram_writes);
    EXPECT_EQ(a.atomic_acquires, b.atomic_acquires);
    EXPECT_EQ(a.atomic_stalls, b.atomic_stalls);
    EXPECT_EQ(a.atomic_stall_cycles, b.atomic_stall_cycles);
    EXPECT_EQ(a.injected_stalls, b.injected_stalls);
    EXPECT_EQ(a.injected_stall_cycles, b.injected_stall_cycles);
    EXPECT_EQ(a.injected_acq_delays, b.injected_acq_delays);
    EXPECT_EQ(a.injected_acq_delay_cycles, b.injected_acq_delay_cycles);
    EXPECT_EQ(a.tasklet_crashes, b.tasklet_crashes);
}

void
expectSameStmStats(const StmStats &a, const StmStats &b)
{
    EXPECT_EQ(a.starts, b.starts);
    EXPECT_EQ(a.commits, b.commits);
    EXPECT_EQ(a.aborts, b.aborts);
    for (size_t r = 0; r < kNumAbortReasons; ++r)
        EXPECT_EQ(a.abort_reasons[r], b.abort_reasons[r]) << "reason " << r;
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.escalations, b.escalations);
    EXPECT_EQ(a.serial_commits, b.serial_commits);
    EXPECT_EQ(a.injected_aborts, b.injected_aborts);
    EXPECT_EQ(a.crashes, b.crashes);
}

runtime::RunResult
runArrayBenchB(const runtime::RunSpec &spec, u32 tx_per_tasklet)
{
    workloads::ArrayBench wl(
        workloads::ArrayBenchParams::workloadB(tx_per_tasklet));
    return runtime::runWorkload(wl, spec);
}

} // namespace

TEST(FaultInjection, SamePlanReplaysBitwiseIdentically)
{
    runtime::RunSpec spec;
    spec.kind = StmKind::TinyEtlWb;
    spec.tasklets = 8;
    spec.mram_bytes = 4 * 1024 * 1024;
    spec.faults = FaultPlan::parse(
        "seed=9;stall=*@100:700;acq-delay=100:200;abort=50");

    const auto a = runArrayBenchB(spec, 30);
    const auto b = runArrayBenchB(spec, 30);
    expectSameSimulatedStats(a.dpu, b.dpu);
    expectSameStmStats(a.stm, b.stm);

    // The plan must actually have injected something, or this test
    // proves nothing.
    EXPECT_GT(a.dpu.injected_stalls, 0u);
    EXPECT_GT(a.dpu.injected_acq_delays, 0u);
    EXPECT_GT(a.stm.injected_aborts, 0u);
}

TEST(FaultInjection, EmptyPlanAndArmedWatchdogAreBitwiseIdentical)
{
    runtime::RunSpec plain;
    plain.kind = StmKind::NOrec;
    plain.tasklets = 8;
    plain.mram_bytes = 4 * 1024 * 1024;

    // Empty plan, armed-but-silent watchdog: every robustness feature
    // is reachable but must not perturb the simulation at all.
    runtime::RunSpec armed = plain;
    armed.faults = FaultPlan::parse("none");
    armed.watchdog_cycles = ~Cycles{0} / 2;

    const auto a = runArrayBenchB(plain, 40);
    const auto b = runArrayBenchB(armed, 40);
    expectSameSimulatedStats(a.dpu, b.dpu);
    expectSameStmStats(a.stm, b.stm);
    EXPECT_EQ(b.dpu.injected_stalls, 0u);
    EXPECT_EQ(b.dpu.tasklet_crashes, 0u);
    EXPECT_EQ(b.stm.injected_aborts, 0u);
    EXPECT_EQ(b.stm.escalations, 0u);
}

namespace
{

struct KindParam
{
    StmKind kind;
};

std::string
kindName(const testing::TestParamInfo<KindParam> &info)
{
    std::string s = stmKindName(info.param.kind);
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

std::vector<KindParam>
allKindParams()
{
    std::vector<KindParam> ps;
    for (StmKind k : allStmKindsExtended())
        ps.push_back({k});
    return ps;
}

class FaultInjectionPerKind : public testing::TestWithParam<KindParam>
{
};

} // namespace

TEST_P(FaultInjectionPerKind, CrashMidTransactionReleasesAllOwnership)
{
    constexpr unsigned kTasklets = 4;
    constexpr u32 kCells = 64;

    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 << 20;
    // Op 7 of the first transaction: start, then three read/write
    // pairs — the crash lands at the fourth write, with read and write
    // ownership (ETL / VR) or a populated write set (CTL) in flight.
    dpu_cfg.faults = FaultPlan::parse("crash=*@7");
    Dpu dpu(dpu_cfg);

    StmConfig cfg;
    cfg.kind = GetParam().kind;
    cfg.num_tasklets = kTasklets;
    cfg.max_read_set = 32;
    cfg.max_write_set = 16;
    cfg.data_words_hint = kCells;
    auto stm = std::make_unique<Stm>(dpu, cfg);

    SharedArray32 cells(dpu, Tier::Mram, kCells);
    cells.fill(dpu, 0);

    dpu.addTasklets(kTasklets, [&](DpuContext &ctx) {
        const unsigned me = ctx.taskletId();
        for (unsigned op = 0; op < 10; ++op) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                for (u32 i = 0; i < 8; ++i) {
                    const u32 c = (me * 16 + op + i) % kCells;
                    const u32 v = tx.read(cells.at(c));
                    tx.write(cells.at(c), v + 1);
                }
            });
        }
    });
    dpu.run();

    // Every tasklet crashed inside its first transaction...
    EXPECT_EQ(dpu.stats().tasklet_crashes, kTasklets);
    EXPECT_EQ(stm->stats().crashes, kTasklets);
    EXPECT_EQ(stm->stats().commits, 0u);
    ASSERT_EQ(dpu.taskletFaults().size(), kTasklets);
    for (const auto &f : dpu.taskletFaults())
        EXPECT_TRUE(f.injected_crash);

    // ...releasing every ownership record (seqlock / ORec / rw-lock)
    // and undoing every write-through store on the way out.
    EXPECT_EQ(stm->heldOwnershipCount(), 0u)
        << "crashed transactions left metadata locked";
    for (u32 c = 0; c < kCells; ++c)
        EXPECT_EQ(cells.peek(dpu, c), 0u) << "cell " << c;
}

TEST_P(FaultInjectionPerKind, SerialFallbackTerminatesTotalAbortStorm)
{
    runtime::RunSpec spec;
    spec.kind = GetParam().kind;
    spec.tasklets = 6;
    spec.mram_bytes = 4 * 1024 * 1024;
    // Every injectable operation of every optimistic attempt aborts;
    // only the serial-irrevocable fallback can make progress.
    spec.faults = FaultPlan::parse("abort=1000");
    spec.serial_fallback_override = 3;
    spec.watchdog_cycles = 500'000'000; // safety net: fail, not hang

    constexpr u32 kTx = 15;
    const auto r = runArrayBenchB(spec, kTx);
    EXPECT_EQ(r.stm.commits, 6u * kTx);
    EXPECT_EQ(r.stm.serial_commits, 6u * kTx)
        << "every commit should have escalated under a total storm";
    EXPECT_EQ(r.stm.escalations, 6u * kTx);
    EXPECT_GT(r.stm.injected_aborts, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultInjectionPerKind,
                         testing::ValuesIn(allKindParams()), kindName);

TEST(Watchdog, DetectsConstructedDeadlock)
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    Dpu dpu(cfg);
    dpu.addTasklet([](DpuContext &ctx) {
        ctx.acquire(0);
        ctx.compute(100);
        ctx.acquire(1);
        ctx.release(1);
        ctx.release(0);
    });
    dpu.addTasklet([](DpuContext &ctx) {
        ctx.acquire(1);
        ctx.compute(100);
        ctx.acquire(0);
        ctx.release(0);
        ctx.release(1);
    });
    try {
        dpu.run();
        FAIL() << "deadlock not detected";
    } catch (const WatchdogError &e) {
        EXPECT_EQ(e.kind(), WatchdogError::Kind::Deadlock);
        const std::string what = e.what();
        EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
        EXPECT_NE(what.find("BlockedAtomic"), std::string::npos) << what;
    }
}

TEST(Watchdog, DetectsVrUpgradeLivelock)
{
    // Two tasklets running the identical read->write upgrade on one
    // cell under VR visible reads. With the randomized abort backoff
    // disabled, the deterministic simulator keeps them in perfect
    // lockstep: both read-lock, both fail the sole-reader upgrade,
    // both abort and retry — forever. The paper's §3.2.1 deadlock-
    // avoidance rule turns into a livelock, which only the watchdog
    // can diagnose.
    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 << 20;
    dpu_cfg.watchdog_cycles = 300'000;
    Dpu dpu(dpu_cfg);

    StmConfig cfg;
    cfg.kind = StmKind::VrEtlWb;
    cfg.num_tasklets = 2;
    cfg.abort_backoff = false;
    cfg.data_words_hint = 16;
    auto stm = std::make_unique<Stm>(dpu, cfg);

    SharedArray32 cells(dpu, Tier::Mram, 16);
    cells.fill(dpu, 0);

    dpu.addTasklets(2, [&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            const u32 v = tx.read(cells.at(0));
            tx.write(cells.at(0), v + 1);
        });
    });
    try {
        dpu.run();
        FAIL() << "livelock not detected";
    } catch (const WatchdogError &e) {
        EXPECT_EQ(e.kind(), WatchdogError::Kind::Livelock);
        const std::string what = e.what();
        EXPECT_NE(what.find("livelock"), std::string::npos) << what;
        EXPECT_NE(what.find("upgrade-conflict"), std::string::npos)
            << "dump should show the abort-reason histogram:\n"
            << what;
    }
}

TEST(Watchdog, AbortStormWithoutFallbackIsDiagnosedAsLivelock)
{
    runtime::RunSpec spec;
    spec.kind = StmKind::NOrec;
    spec.tasklets = 4;
    spec.mram_bytes = 4 * 1024 * 1024;
    spec.faults = FaultPlan::parse("abort=1000");
    spec.watchdog_cycles = 1'000'000;

    try {
        (void)runArrayBenchB(spec, 10);
        FAIL() << "livelock not detected";
    } catch (const WatchdogError &e) {
        EXPECT_EQ(e.kind(), WatchdogError::Kind::Livelock);
        EXPECT_NE(std::string(e.what()).find("validation-fail"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Watchdog, ArmedWatchdogStaysSilentOnHealthyRuns)
{
    runtime::RunSpec spec;
    spec.kind = StmKind::VrEtlWb;
    spec.tasklets = 8;
    spec.mram_bytes = 4 * 1024 * 1024;
    spec.watchdog_cycles = 100'000'000;
    const auto r = runArrayBenchB(spec, 40);
    EXPECT_EQ(r.stm.commits, 8u * 40u);
}
