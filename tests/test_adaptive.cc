/**
 * @file
 * Epoch adaptation controller tests (docs/adaptive.md): the pure
 * decision policy on synthetic counter streams (throttle hysteresis
 * and probe-and-revert, the contention ladder, explore-then-commit
 * kind selection, migration picking), the controller-off bitwise
 * identity guarantee across every STM kind, kind-switch
 * serializability under randomized fault plans, park/unpark
 * conservation, and run-to-run determinism of the decision log.
 *
 * The AdaptiveDecide.* suite is fiber-free (pure policy on synthetic
 * samples); everything else runs the simulator.
 */

#include <bit>

#include <gtest/gtest.h>

#include "core/stm.hh"
#include "runtime/adaptive.hh"
#include "runtime/driver.hh"
#include "sim/fault.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::runtime;

namespace
{

//
// Pure-policy helpers: build synthetic EpochSamples whose derived
// signals (wasteShare, abortRate, commitRate) take exact values.
//

constexpr Cycles kEpoch = 100000;

/** A sample with the given commits and a waste share of @p share for
 * @p tasklets effective tasklets (all waste charged to backoff). */
EpochSample
wasteSample(u64 commits, double share, unsigned tasklets)
{
    EpochSample s;
    s.commits = commits;
    s.epoch_cycles = kEpoch;
    s.backoff_cycles = static_cast<u64>(
        share * static_cast<double>(kEpoch) * tasklets);
    return s;
}

/** A sample with the given commit/abort counts (abort-rate signal);
 * backoff-dominated waste unless @p lock_waits. */
EpochSample
abortSample(u64 commits, u64 aborts, bool lock_waits = false)
{
    EpochSample s;
    s.commits = commits;
    s.aborts = aborts;
    s.epoch_cycles = kEpoch;
    if (lock_waits)
        s.lock_wait_cycles = 10000;
    else
        s.backoff_cycles = 10000;
    return s;
}

AdaptiveSpec
throttleOnlySpec()
{
    AdaptiveSpec spec;
    spec.enabled = true;
    spec.tune_backoff = false;
    spec.hot_lock_capacity = 0;
    return spec;
}

AdaptiveSpec
backoffOnlySpec()
{
    AdaptiveSpec spec;
    spec.enabled = true;
    spec.tune_throttle = false;
    spec.hot_lock_capacity = 0;
    return spec;
}

ControllerState
stateFor(unsigned tasklets)
{
    ControllerState st;
    st.num_tasklets = tasklets;
    return st;
}

std::vector<AdaptiveDecision>
feed(ControllerState &st, const EpochSample &s, const AdaptiveSpec &spec,
     unsigned epochs = 1)
{
    std::vector<AdaptiveDecision> all;
    for (unsigned i = 0; i < epochs; ++i) {
        auto d = AdaptiveController::decide(st, s, spec);
        all.insert(all.end(), d.begin(), d.end());
    }
    return all;
}

} // namespace

//
// AdaptiveDecide — the pure policy (fiber-free).
//

TEST(AdaptiveDecide, ThrottleDownNeedsHysteresis)
{
    const AdaptiveSpec spec = throttleOnlySpec();
    ControllerState st = stateFor(16);
    const EpochSample high = wasteSample(100, 0.6, 16);

    EXPECT_TRUE(feed(st, high, spec).empty()) << "one epoch must not act";
    const auto d = feed(st, high, spec);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::ThrottleDown);
    EXPECT_EQ(static_cast<unsigned>(d[0].value), 16u * 2 / 3);
    EXPECT_EQ(st.tasklet_limit, 16u * 2 / 3);
    EXPECT_TRUE(st.throttle_probe);
}

TEST(AdaptiveDecide, ThrottleProbeKeptOnImprovement)
{
    const AdaptiveSpec spec = throttleOnlySpec();
    ControllerState st = stateFor(16);
    const EpochSample high = wasteSample(100, 0.6, 16);
    feed(st, high, spec, 2); // rate 1.0, throttled to 10

    // Parking bought >5% commit rate: the bet is kept, no decision.
    const EpochSample better = wasteSample(110, 0.3, 10);
    EXPECT_TRUE(feed(st, better, spec).empty());
    EXPECT_EQ(st.tasklet_limit, 10u);
    EXPECT_FALSE(st.throttle_probe);
    EXPECT_FALSE(st.throttle_hold);
}

TEST(AdaptiveDecide, ThrottleProbeRevertsWhenRateDoesNotImprove)
{
    const AdaptiveSpec spec = throttleOnlySpec();
    ControllerState st = stateFor(16);
    const EpochSample high = wasteSample(100, 0.6, 16);
    feed(st, high, spec, 2);

    // Same commit rate as before parking: concurrency was not the
    // problem — revert and hold off for the rest of the episode.
    const auto d = feed(st, wasteSample(100, 0.6, 10), spec);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::ThrottleUp);
    EXPECT_EQ(st.tasklet_limit, 0u);
    EXPECT_TRUE(st.throttle_hold);

    // Held: sustained pressure no longer triggers throttling...
    EXPECT_TRUE(feed(st, high, spec, 4).empty());

    // ...until a calm epoch ends the episode and re-arms it.
    feed(st, wasteSample(100, 0.05, 16), spec);
    EXPECT_FALSE(st.throttle_hold);
    const auto again = feed(st, high, spec, 2);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].action, AdaptiveAction::ThrottleDown);
}

TEST(AdaptiveDecide, ThrottleSafetyValveLiftsOnZeroCommits)
{
    const AdaptiveSpec spec = throttleOnlySpec();
    ControllerState st = stateFor(16);
    st.tasklet_limit = 4;

    const auto d = feed(st, wasteSample(0, 0.0, 4), spec);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::ThrottleUp);
    EXPECT_EQ(static_cast<unsigned>(d[0].value), 0u);
    EXPECT_EQ(st.tasklet_limit, 0u);
}

TEST(AdaptiveDecide, ThrottleUnparkIsMultiplicative)
{
    const AdaptiveSpec spec = throttleOnlySpec();
    ControllerState st = stateFor(16);
    st.tasklet_limit = 4;
    const EpochSample calm = wasteSample(100, 0.02, 4);

    auto d = feed(st, calm, spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::ThrottleUp);
    EXPECT_EQ(st.tasklet_limit, 8u);

    // 8*2 >= 16: fully unparked, throttle off.
    d = feed(st, wasteSample(100, 0.02, 8), spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(st.tasklet_limit, 0u);
}

TEST(AdaptiveDecide, NoFlapInsideHysteresisBand)
{
    const AdaptiveSpec spec = throttleOnlySpec();
    ControllerState st = stateFor(16);
    const EpochSample band = wasteSample(100, 0.3, 16);
    const EpochSample high = wasteSample(100, 0.6, 16);

    // The band sample resets the streak, so alternating high/band
    // never accumulates the hysteresis and never acts.
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(feed(st, high, spec).empty());
        EXPECT_TRUE(feed(st, band, spec).empty());
    }
    EXPECT_EQ(st.tasklet_limit, 0u);
}

TEST(AdaptiveDecide, CmWaitProbeRevertsAndHolds)
{
    const AdaptiveSpec spec = backoffOnlySpec();
    ControllerState st = stateFor(16);
    const EpochSample pressure = abortSample(10, 40);

    auto d = feed(st, pressure, spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::EnableCmWait);
    EXPECT_EQ(st.cm_wait_polls, kCmPolls);
    EXPECT_TRUE(st.cm_probe);

    // Waiting did not buy commit rate: revert, hold for the episode.
    d = feed(st, pressure, spec);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::DisableCmWait);
    EXPECT_EQ(st.cm_wait_polls, 0u);
    EXPECT_TRUE(st.backoff_hold);
    EXPECT_TRUE(feed(st, pressure, spec, 4).empty());

    // Calm epochs end the episode; pressure can then act again.
    feed(st, abortSample(100, 1), spec, 2);
    EXPECT_FALSE(st.backoff_hold);
    d = feed(st, pressure, spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::EnableCmWait);
}

TEST(AdaptiveDecide, BackoffRaiseCapsAtConfiguredMax)
{
    AdaptiveSpec spec = backoffOnlySpec();
    spec.backoff_base_max = 32;
    ControllerState st = stateFor(16);
    st.cm_wait_polls = 3; // ladder step 1 already taken
    const EpochSample pressure = abortSample(10, 40); // backoff-dominated

    auto d = feed(st, pressure, spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::RaiseBackoff);
    EXPECT_EQ(st.backoff_base, 32u);

    // The raise improved the rate enough to keep; at the cap, further
    // pressure must not raise again.
    EXPECT_TRUE(feed(st, abortSample(12, 40), spec).empty());
    EXPECT_TRUE(feed(st, pressure, spec, 4).empty());
    EXPECT_EQ(st.backoff_base, 32u);
}

TEST(AdaptiveDecide, CalmRelaxesBackoffThenCmWait)
{
    const AdaptiveSpec spec = backoffOnlySpec();
    ControllerState st = stateFor(16);
    st.backoff_base = 64;
    st.cm_wait_polls = 3;
    const EpochSample calm = abortSample(100, 1);

    auto d = feed(st, calm, spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::LowerBackoff);
    EXPECT_EQ(st.backoff_base, st.default_backoff_base);

    d = feed(st, calm, spec, 2);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::DisableCmWait);
    EXPECT_EQ(st.cm_wait_polls, 0u);
}

TEST(AdaptiveDecide, KindExploreThenCommitThenReexplore)
{
    AdaptiveSpec spec;
    spec.enabled = true;
    spec.tune_throttle = false;
    spec.tune_backoff = false;
    spec.hot_lock_capacity = 0;
    spec.kind_candidates = {core::StmKind::NOrec,
                            core::StmKind::TinyEtlWb};
    ControllerState st = stateFor(16);

    // Epoch 1: NOrec scored, Tiny untried -> exploration switch.
    auto d = feed(st, abortSample(100, 0), spec);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::SwitchKind);
    EXPECT_EQ(st.current_kind, core::StmKind::TinyEtlWb);

    // Epoch 2: cooldown (the candidate gets one full scored epoch).
    EXPECT_TRUE(feed(st, abortSample(300, 0), spec).empty());
    // Epoch 3: all tried, Tiny scores best -> stay committed.
    EXPECT_TRUE(feed(st, abortSample(300, 0), spec).empty());
    EXPECT_EQ(st.current_kind, core::StmKind::TinyEtlWb);

    // Phase change: the incumbent collapses below kReexploreRatio x
    // its high-water mark -> the policy re-probes the other kind.
    feed(st, abortSample(30, 0), spec); // EWMA 1.65, above 0.5*3.0
    d = feed(st, abortSample(30, 0), spec); // EWMA 0.975: collapse
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].action, AdaptiveAction::SwitchKind);
    EXPECT_EQ(st.current_kind, core::StmKind::NOrec);
}

TEST(AdaptiveDecide, MigrationPicksHottestAndEvictsColdest)
{
    std::vector<u8> flags;
    std::vector<u32> promote, demote;

    // Capacity 2, hottest-first above min_heat: 31 is filtered.
    AdaptiveController::pickMigrations({100, 31, 50, 40}, flags, 2, 32,
                                       promote, demote);
    EXPECT_EQ(promote, (std::vector<u32>{0, 2}));
    EXPECT_TRUE(demote.empty());
    EXPECT_EQ(flags, (std::vector<u8>{1, 0, 1, 0}));

    // A hotter candidate evicts the coldest hot entry when full.
    AdaptiveController::pickMigrations({0, 0, 0, 90}, flags, 2, 32,
                                       promote, demote);
    EXPECT_EQ(promote, (std::vector<u32>{3}));
    EXPECT_EQ(demote, (std::vector<u32>{2}));
    EXPECT_EQ(flags, (std::vector<u8>{1, 0, 0, 1}));

    // Equal heats break ties toward the lower index, deterministically.
    std::vector<u8> flags2;
    AdaptiveController::pickMigrations({50, 50, 50}, flags2, 2, 32,
                                       promote, demote);
    EXPECT_EQ(promote, (std::vector<u32>{0, 1}));
    EXPECT_TRUE(demote.empty());
}

//
// Simulator-driven suites.
//

namespace
{

RunResult
runB(const RunSpec &spec, u32 tx_per_tasklet)
{
    workloads::ArrayBench wl(
        workloads::ArrayBenchParams::workloadB(tx_per_tasklet));
    return runWorkload(wl, spec);
}

RunSpec
benchSpec(core::StmKind kind, unsigned tasklets)
{
    RunSpec spec;
    spec.kind = kind;
    spec.tasklets = tasklets;
    spec.mram_bytes = 8 * 1024 * 1024;
    return spec;
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.dpu.total_cycles, b.dpu.total_cycles);
    EXPECT_EQ(a.dpu.instructions, b.dpu.instructions);
    EXPECT_EQ(a.dpu.mram_reads, b.dpu.mram_reads);
    EXPECT_EQ(a.dpu.mram_writes, b.dpu.mram_writes);
    EXPECT_EQ(a.stm.starts, b.stm.starts);
    EXPECT_EQ(a.stm.commits, b.stm.commits);
    EXPECT_EQ(a.stm.aborts, b.stm.aborts);
    EXPECT_EQ(a.stm.reads, b.stm.reads);
    EXPECT_EQ(a.stm.writes, b.stm.writes);
    EXPECT_EQ(a.stm.validations, b.stm.validations);
    EXPECT_EQ(a.stm.lock_wait_cycles, b.stm.lock_wait_cycles);
    EXPECT_EQ(a.stm.backoff_cycles, b.stm.backoff_cycles);
}

} // namespace

/** Controller off: a spec with every adaptive field set but
 * enabled = false must be bitwise identical to the plain spec, for
 * every STM kind (the ISSUE's CI-gated do-no-harm guarantee). */
TEST(AdaptiveOff, DisabledControllerIsBitwiseIdentity)
{
    for (core::StmKind kind : core::allStmKindsExtended()) {
        const RunResult plain = runB(benchSpec(kind, 8), 30);

        RunSpec off = benchSpec(kind, 8);
        off.adaptive.enabled = false; // everything else armed
        off.adaptive.epoch_cycles = 7777;
        off.adaptive.hysteresis_epochs = 1;
        off.adaptive.kind_candidates = {core::StmKind::NOrec,
                                        core::StmKind::VrEtlWb};
        off.adaptive.hot_lock_capacity = 64;
        const RunResult gated = runB(off, 30);

        SCOPED_TRACE(core::stmKindName(kind));
        expectSameRun(plain, gated);
        EXPECT_EQ(gated.stm.park_polls, 0u);
        EXPECT_EQ(gated.stm.kind_switches, 0u);
        EXPECT_EQ(gated.stm.lock_migrations, 0u);
        EXPECT_EQ(gated.adaptive, nullptr);
    }
}

/** Park/unpark conservation: throttling may delay tasklets but must
 * never lose transactions — every tasklet finishes its full quota
 * (workload verify checks the array against the commit count too). */
TEST(AdaptivePark, ThrottleConservesTransactions)
{
    RunSpec spec = benchSpec(core::StmKind::TinyEtlWb, 16);
    spec.adaptive.enabled = true;
    spec.adaptive.epoch_cycles = 20000;
    spec.adaptive.hot_lock_capacity = 0;

    const RunResult r = runB(spec, 40);
    EXPECT_EQ(r.stm.commits, 16u * 40u);
    EXPECT_GT(r.stm.park_polls, 0u) << "workload B at 16 tasklets must "
                                       "trigger the throttle";
    ASSERT_NE(r.adaptive, nullptr);
    for (const AdaptiveDecision &d : r.adaptive->decisions) {
        if (d.action == AdaptiveAction::ThrottleDown) {
            EXPECT_GE(static_cast<unsigned>(d.value), kMinTasklets);
            EXPECT_LT(static_cast<unsigned>(d.value), 16u);
        } else if (d.action == AdaptiveAction::ThrottleUp) {
            EXPECT_LE(static_cast<unsigned>(d.value), 16u);
        }
    }
}

/** Live kind switching stays serializable under randomized fault
 * plans: the workload's verify (inside runWorkload) recomputes the
 * array from the commit count and throws on any lost or phantom
 * update; injected aborts and acquire delays reshuffle interleavings
 * across seeds. */
TEST(AdaptiveSwitch, SerializableUnderRandomizedFaults)
{
    u64 switches = 0;
    for (u64 seed : {1, 7, 23}) {
        RunSpec spec = benchSpec(core::StmKind::NOrec, 8);
        spec.seed = seed;
        spec.adaptive.enabled = true;
        spec.adaptive.epoch_cycles = 20000;
        spec.adaptive.kind_candidates = {core::StmKind::NOrec,
                                         core::StmKind::TinyEtlWb,
                                         core::StmKind::VrEtlWb};
        spec.faults = sim::FaultPlan::parse(
            "seed=" + std::to_string(seed) + ";abort=60;acq-delay=120:96");

        const RunResult r = runB(spec, 40);
        EXPECT_EQ(r.stm.commits, 8u * 40u);
        switches += r.stm.kind_switches;
    }
    EXPECT_GT(switches, 0u) << "the explore phase alone must switch";
}

/** Serial-irrevocable escalation and kind switching both quiesce the
 * DPU in txStart; with two or more candidates the STM refuses the
 * combination outright. */
TEST(AdaptiveSwitch, SerialFallbackRejectedWithKindSwitching)
{
    RunSpec spec = benchSpec(core::StmKind::NOrec, 8);
    spec.adaptive.enabled = true;
    spec.adaptive.kind_candidates = {core::StmKind::NOrec,
                                     core::StmKind::TinyEtlWb};
    spec.serial_fallback_override = 4;
    EXPECT_THROW(runB(spec, 10), FatalError);
}

/** The whole control loop is part of the simulated machine: two runs
 * of the same spec produce the same cycles, stats, and decision log. */
TEST(AdaptiveSwitch, DecisionLogIsDeterministic)
{
    RunSpec spec = benchSpec(core::StmKind::NOrec, 8);
    spec.adaptive.enabled = true;
    spec.adaptive.epoch_cycles = 20000;
    spec.adaptive.kind_candidates = {core::StmKind::NOrec,
                                     core::StmKind::VrEtlWb};

    const RunResult a = runB(spec, 40);
    const RunResult b = runB(spec, 40);
    expectSameRun(a, b);
    ASSERT_NE(a.adaptive, nullptr);
    ASSERT_NE(b.adaptive, nullptr);
    EXPECT_EQ(a.adaptive->epochs, b.adaptive->epochs);
    EXPECT_EQ(a.adaptive->final_kind, b.adaptive->final_kind);
    ASSERT_EQ(a.adaptive->decisions.size(), b.adaptive->decisions.size());
    for (size_t i = 0; i < a.adaptive->decisions.size(); ++i) {
        const AdaptiveDecision &x = a.adaptive->decisions[i];
        const AdaptiveDecision &y = b.adaptive->decisions[i];
        EXPECT_EQ(x.epoch, y.epoch);
        EXPECT_EQ(x.cycle, y.cycle);
        EXPECT_EQ(x.action, y.action);
        EXPECT_EQ(x.value, y.value);
    }
}

namespace
{

/** FNV-1a over every field of the decision log, so one number pins the
 * whole timeline (epochs, cycles, actions, operands and signals). */
u64
decisionLogFingerprint(const AdaptiveReport &rep)
{
    u64 h = 0xcbf29ce484222325ull;
    auto mix = [&h](u64 v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    mix(rep.epochs);
    mix(static_cast<u64>(rep.final_kind));
    mix(rep.final_tasklet_limit);
    mix(rep.promotions);
    mix(rep.demotions);
    for (const AdaptiveDecision &d : rep.decisions) {
        mix(d.epoch);
        mix(d.cycle);
        mix(static_cast<u64>(d.action));
        mix(std::bit_cast<u64>(d.value));
        mix(std::bit_cast<u64>(d.metric));
    }
    return h;
}

} // namespace

/** Pins one live kind-switching run to exact values: three candidates,
 * MRAM metadata and a hot-lock cache, so the quiesce switch, the
 * per-kind lock-table translation charge and lazy migration settlement
 * all land in the simulated totals. Any change to how switching or
 * migration is charged moves these numbers. */
TEST(AdaptiveSwitch, PinnedSwitchingRunIsExact)
{
    RunSpec spec = benchSpec(core::StmKind::NOrec, 8);
    spec.tier = core::MetadataTier::Mram;
    spec.adaptive.enabled = true;
    spec.adaptive.epoch_cycles = 20000;
    spec.adaptive.hot_lock_capacity = 4;
    spec.adaptive.kind_candidates = {core::StmKind::NOrec,
                                     core::StmKind::TinyEtlWb,
                                     core::StmKind::VrEtlWb};

    const RunResult r = runB(spec, 40);
    ASSERT_NE(r.adaptive, nullptr);
    EXPECT_EQ(r.dpu.total_cycles, 573687u);
    EXPECT_EQ(r.stm.commits, 320u);
    EXPECT_EQ(r.stm.aborts, 876u);
    EXPECT_EQ(r.stm.kind_switches, 3u);
    EXPECT_EQ(r.stm.lock_migrations, 15u);
    EXPECT_EQ(r.stm.backoff_cycles, 1158557u);
    EXPECT_EQ(r.adaptive->decisions.size(), 10u);
    EXPECT_EQ(decisionLogFingerprint(*r.adaptive), 12402401743264411984ull);
}

/** A run whose only candidate is RunSpec::kind takes no switching path
 * at all: it equals the run with no candidates, for every kind. */
TEST(AdaptiveSwitch, SingleCandidateEqualsPlainRun)
{
    for (core::StmKind kind : core::allStmKindsExtended()) {
        RunSpec plain = benchSpec(kind, 8);
        plain.adaptive.enabled = true;
        plain.adaptive.epoch_cycles = 20000;
        RunSpec single = plain;
        single.adaptive.kind_candidates = {kind};

        const RunResult a = runB(plain, 30);
        const RunResult b = runB(single, 30);
        SCOPED_TRACE(core::stmKindName(kind));
        expectSameRun(a, b);
        EXPECT_EQ(a.stm.park_polls, b.stm.park_polls);
        EXPECT_EQ(a.stm.lock_migrations, b.stm.lock_migrations);
        EXPECT_EQ(b.stm.kind_switches, 0u);
        ASSERT_NE(a.adaptive, nullptr);
        ASSERT_NE(b.adaptive, nullptr);
        EXPECT_EQ(decisionLogFingerprint(*a.adaptive),
                  decisionLogFingerprint(*b.adaptive));
    }
}
