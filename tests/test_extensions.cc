/**
 * @file
 * Tests for the extension modules: the Skip-List workload (invariants
 * across the STM matrix), the adaptive STM selector, and the
 * transaction trace buffer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/stm.hh"
#include "runtime/adaptive.hh"
#include "runtime/shared_array.hh"
#include "workloads/arraybench.hh"
#include "workloads/skiplist.hh"

using namespace pimstm;
using namespace pimstm::core;
using namespace pimstm::runtime;
using namespace pimstm::workloads;

//
// Skip-List.
//

namespace
{

class SkipListAll : public testing::TestWithParam<StmKind>
{
};

std::string
kindName(const testing::TestParamInfo<StmKind> &info)
{
    std::string s = stmKindName(info.param);
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

} // namespace

TEST_P(SkipListAll, InvariantsHoldUnderContention)
{
    SkipListParams p = SkipListParams::highContention(25);
    SkipList wl(p);
    RunSpec s;
    s.kind = GetParam();
    s.tasklets = 6;
    s.seed = 17;
    s.mram_bytes = 8 * 1024 * 1024;
    const auto r = runWorkload(wl, s); // verify() checks the structure
    EXPECT_EQ(r.stm.commits, 6u * 25u);
}

TEST_P(SkipListAll, ReadMostlyMixCommitsReadOnly)
{
    SkipListParams p = SkipListParams::lowContention(25);
    SkipList wl(p);
    RunSpec s;
    s.kind = GetParam();
    s.tasklets = 4;
    s.seed = 23;
    s.mram_bytes = 8 * 1024 * 1024;
    const auto r = runWorkload(wl, s);
    EXPECT_GT(r.stm.read_only_commits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SkipListAll,
                         testing::ValuesIn(allStmKinds()), kindName);

TEST(SkipListTest, HeightsAreDeterministicAndBounded)
{
    SkipListParams p;
    SkipList wl(p);
    u64 tall = 0;
    for (u32 v = 0; v < 1000; ++v) {
        const u32 h = wl.heightFor(v);
        EXPECT_GE(h, 1u);
        EXPECT_LE(h, p.max_height);
        EXPECT_EQ(h, wl.heightFor(v)); // deterministic
        if (h > 1)
            ++tall;
    }
    // Geometric distribution: roughly half the keys have height > 1.
    EXPECT_GT(tall, 300u);
    EXPECT_LT(tall, 700u);
}

TEST(SkipListTest, DeterministicReplay)
{
    auto run_once = [] {
        SkipListParams p = SkipListParams::highContention(20);
        SkipList wl(p);
        RunSpec s;
        s.kind = StmKind::TinyEtlWb;
        s.tasklets = 5;
        s.seed = 31;
        s.mram_bytes = 8 * 1024 * 1024;
        const auto r = runWorkload(wl, s);
        return std::make_pair(r.dpu.total_cycles, r.stm.aborts);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(SkipListTest, LogarithmicTraversalsBeatLinearAtScale)
{
    // The reason to have a skip list at all: at equal set sizes, its
    // transactions read far fewer locations than the linked list's.
    SkipListParams p = SkipListParams::lowContention(30);
    p.initial_size = 64;
    SkipList wl(p);
    RunSpec s;
    s.tasklets = 4;
    s.mram_bytes = 8 * 1024 * 1024;
    const auto r = runWorkload(wl, s);
    const double reads_per_tx =
        static_cast<double>(r.stm.reads) /
        static_cast<double>(r.stm.commits + r.stm.aborts);
    // A 64-element sorted linked list averages ~64 reads per contains;
    // the skip list must be far below that.
    EXPECT_LT(reads_per_tx, 40.0);
}

//
// Adaptive selection.
//

TEST(AdaptiveTest, PicksARunnableKindAndRuns)
{
    AdaptiveFactory factory =
        [](bool probe) -> std::unique_ptr<Workload> {
        return std::make_unique<ArrayBench>(
            ArrayBenchParams::workloadB(probe ? 10 : 40));
    };
    RunSpec spec;
    spec.tasklets = 6;
    spec.mram_bytes = 8 * 1024 * 1024;
    const AdaptiveResult r = adaptiveRun(factory, spec);
    EXPECT_FALSE(r.probe_throughput.empty());
    EXPECT_GT(r.probe_seconds, 0.0);
    EXPECT_GT(r.final.throughput, 0.0);
    EXPECT_EQ(r.final.stm.commits, 6u * 40u);
}

TEST(AdaptiveTest, ChoiceMatchesBestProbe)
{
    AdaptiveFactory factory =
        [](bool probe) -> std::unique_ptr<Workload> {
        return std::make_unique<ArrayBench>(
            ArrayBenchParams::workloadA(probe ? 4 : 10));
    };
    RunSpec spec;
    spec.tasklets = 8;
    spec.mram_bytes = 8 * 1024 * 1024;
    const AdaptiveResult r = adaptiveRun(factory, spec);

    double best = 0;
    for (const auto &[name, tput] : r.probe_throughput)
        best = std::max(best, tput);
    const std::string chosen =
        std::string(stmKindName(r.chosen_kind)) + " (MRAM)";
    ASSERT_TRUE(r.probe_throughput.count(chosen));
    EXPECT_DOUBLE_EQ(r.probe_throughput.at(chosen), best);
}

TEST(AdaptiveTest, RestrictedCandidateSetIsHonoured)
{
    AdaptiveFactory factory =
        [](bool probe) -> std::unique_ptr<Workload> {
        return std::make_unique<ArrayBench>(
            ArrayBenchParams::workloadB(probe ? 5 : 10));
    };
    RunSpec spec;
    spec.tasklets = 2;
    spec.mram_bytes = 8 * 1024 * 1024;
    AdaptiveOptions opt;
    opt.candidates = {StmKind::TinyEtlWt};
    const AdaptiveResult r = adaptiveRun(factory, spec, opt);
    EXPECT_EQ(r.chosen_kind, StmKind::TinyEtlWt);
    EXPECT_EQ(r.probe_throughput.size(), 1u);
}

TEST(AdaptiveTest, CanProbeBothTiers)
{
    AdaptiveFactory factory =
        [](bool probe) -> std::unique_ptr<Workload> {
        return std::make_unique<ArrayBench>(
            ArrayBenchParams::workloadB(probe ? 5 : 10));
    };
    RunSpec spec;
    spec.tasklets = 4;
    spec.mram_bytes = 8 * 1024 * 1024;
    AdaptiveOptions opt;
    opt.candidates = {StmKind::NOrec};
    opt.probe_both_tiers = true;
    const AdaptiveResult r = adaptiveRun(factory, spec, opt);
    EXPECT_EQ(r.probe_throughput.size(), 2u);
    // ArrayBench B metadata fits WRAM and WRAM is faster (§4.2.3).
    EXPECT_EQ(r.chosen_tier, MetadataTier::Wram);
}

//
// Trace buffer.
//

TEST(TraceTest, RecordsOrderedEventsWithCounts)
{
    sim::DpuConfig dc;
    dc.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dc);
    TraceBuffer trace(1024);
    StmConfig cfg;
    cfg.num_tasklets = 3;
    cfg.trace = &trace;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    SharedArray32 arr(dpu, sim::Tier::Mram, 2);
    arr.fill(dpu, 0);

    dpu.addTasklets(3, [&](sim::DpuContext &ctx) {
        for (int i = 0; i < 5; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), tx.read(arr.at(0)) + 1);
            });
        }
    });
    dpu.run();

    EXPECT_EQ(trace.count(TxEvent::Commit), stm->stats().commits);
    EXPECT_EQ(trace.count(TxEvent::Abort), stm->stats().aborts);
    EXPECT_EQ(trace.count(TxEvent::Start), stm->stats().starts);
    EXPECT_EQ(trace.count(TxEvent::Read), stm->stats().reads);
    EXPECT_EQ(trace.count(TxEvent::Write), stm->stats().writes);

    const auto events = trace.snapshot();
    ASSERT_FALSE(events.empty());
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].time, events[i].time);
}

TEST(TraceTest, RingDropsOldestBeyondCapacity)
{
    TraceBuffer trace(4);
    for (u32 i = 0; i < 10; ++i)
        trace.record(i, 0, TxEvent::Read, i);
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.dropped(), 6u);
    EXPECT_EQ(trace.count(TxEvent::Read), 10u);
    const auto events = trace.snapshot();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().arg, 6u);
    EXPECT_EQ(events.back().arg, 9u);
}

TEST(TraceTest, DumpFormatsAndFilters)
{
    TraceBuffer trace(16);
    trace.record(100, 1, TxEvent::Start);
    trace.record(110, 1, TxEvent::Read, sim::makeAddr(sim::Tier::Mram, 64));
    trace.record(120, 2, TxEvent::Abort, 3);
    trace.record(130, 1, TxEvent::Commit);

    std::ostringstream all;
    trace.dump(all);
    EXPECT_NE(all.str().find("t1 start"), std::string::npos);
    EXPECT_NE(all.str().find("MRAM+64"), std::string::npos);
    EXPECT_NE(all.str().find("t2 abort 3"), std::string::npos);

    std::ostringstream only1;
    trace.dump(only1, 1);
    EXPECT_EQ(only1.str().find("t2"), std::string::npos);
    EXPECT_NE(only1.str().find("t1 commit"), std::string::npos);
}

TEST(TraceTest, ClearResets)
{
    TraceBuffer trace(8);
    trace.record(1, 0, TxEvent::Start);
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.count(TxEvent::Start), 0u);
    EXPECT_EQ(trace.dropped(), 0u);
}
