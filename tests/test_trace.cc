/**
 * @file
 * Observability-layer tests (docs/observability.md): ring wrap and
 * snapshot order, STM event-stream equality between the elided and the
 * always-switch scheduler (tracing must describe the simulation, not
 * the host optimization), heatmap/histogram agreement with StmStats
 * across every STM kind, the trace-off bitwise-identity guarantee,
 * Perfetto export validity (parsed by a small in-test JSON parser),
 * the watchdog dump's trace tail, and the process-wide totals.
 *
 * Suites are named Trace* so CI's sanitizer jobs can select them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>
#include <string>

#include "core/stm.hh"
#include "core/trace.hh"
#include "runtime/driver.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::core;

namespace
{

runtime::RunResult
runArrayBenchB(const runtime::RunSpec &spec, u32 tx_per_tasklet)
{
    workloads::ArrayBench wl(
        workloads::ArrayBenchParams::workloadB(tx_per_tasklet));
    return runtime::runWorkload(wl, spec);
}

runtime::RunSpec
tracedSpec(StmKind kind)
{
    runtime::RunSpec spec;
    spec.kind = kind;
    spec.tasklets = 6;
    spec.mram_bytes = 8 * 1024 * 1024;
    spec.trace = true;
    spec.trace_buffer_capacity = 1u << 20; // no drops in these runs
    return spec;
}

bool
isSchedEvent(TxEvent e)
{
    return e >= TxEvent::SchedSwitch;
}

/**
 * Minimal recursive-descent JSON parser: accepts exactly the JSON
 * grammar (objects, arrays, strings with escapes, numbers, true/
 * false/null) and rejects trailing commas / trailing garbage. Enough
 * to gate "loads in Perfetto without errors" without a JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    members(char close, bool want_keys)
    {
        ++pos_; // opening bracket
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == close) {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (want_keys) {
                if (pos_ >= s_.size() || !string())
                    return false;
                skipWs();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return false;
                ++pos_;
                skipWs();
            }
            if (!value())
                return false;
            skipWs();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == close) {
                ++pos_;
                return true;
            }
            if (s_[pos_] != ',')
                return false;
            ++pos_;
        }
    }

    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return members('}', true);
          case '[': return members(']', false);
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace

//
// Ring mechanics.
//

TEST(TraceRing, SnapshotStaysChronologicalAcrossWrap)
{
    TraceBuffer trace(5);
    for (u32 i = 0; i < 13; ++i)
        trace.record(i * 10, i % 3, TxEvent::Write, i);
    EXPECT_EQ(trace.size(), 5u);
    EXPECT_EQ(trace.dropped(), 8u);
    EXPECT_EQ(trace.count(TxEvent::Write), 13u);
    const auto events = trace.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].arg, 8 + i) << "oldest surviving is #8";
        if (i > 0) {
            EXPECT_LT(events[i - 1].time, events[i].time);
        }
    }
}

TEST(TraceRing, AggregatesSurviveRingDrops)
{
    TraceBuffer trace(2); // tiny ring, everything wraps
    trace.noteLockAcquire(7, 50);
    trace.noteLockWait(7, 25);
    trace.noteAbort(AbortReason::ReadConflict, 7);
    trace.noteAbort(AbortReason::ValidationFail, kNoLockIndex);
    trace.noteCommit(1000, 100, 4, 2);
    for (u32 i = 0; i < 100; ++i)
        trace.record(i, 0, TxEvent::Read, i);

    ASSERT_EQ(trace.lockContention().size(), 8u);
    const LockContention &c = trace.lockContention()[7];
    EXPECT_EQ(c.acquires, 1u);
    EXPECT_EQ(c.waits, 1u);
    EXPECT_EQ(c.wait_cycles, 75u);
    EXPECT_EQ(c.aborts_caused, 1u);
    EXPECT_EQ(
        trace.abortsByReason()[static_cast<size_t>(
            AbortReason::ReadConflict)],
        1u);
    EXPECT_EQ(
        trace.abortsByReason()[static_cast<size_t>(
            AbortReason::ValidationFail)],
        1u);
    EXPECT_EQ(trace.txLatency().count, 1u);
    EXPECT_EQ(trace.txLatency().sum, 1000u);
    EXPECT_EQ(trace.commitLatency().min, 100u);
    EXPECT_EQ(trace.readSetSize().max, 4u);
    EXPECT_EQ(trace.writeSetSize().max, 2u);
}

TEST(TraceRing, LogHistogramBucketsByBitWidth)
{
    LogHistogram h;
    h.add(0);
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(4);
    h.add(1024);
    EXPECT_EQ(h.buckets[0], 1u); // {0}
    EXPECT_EQ(h.buckets[1], 1u); // {1}
    EXPECT_EQ(h.buckets[2], 2u); // {2, 3}
    EXPECT_EQ(h.buckets[3], 1u); // {4..7}
    EXPECT_EQ(h.buckets[11], 1u); // {1024..2047}
    EXPECT_EQ(h.count, 6u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 1024u);
    EXPECT_EQ(LogHistogram::bucketLow(11), 1024u);

    LogHistogram other;
    other.add(7);
    h.merge(other);
    EXPECT_EQ(h.count, 7u);
    EXPECT_EQ(h.buckets[3], 2u);
}

//
// The trace describes the simulation, not the host scheduler mode.
//

TEST(TraceSched, StmEventStreamIdenticalElidedVsAlwaysSwitch)
{
    runtime::RunSpec elided = tracedSpec(StmKind::TinyEtlWb);
    runtime::RunSpec switching = elided;
    switching.sim_always_switch = true;

    const auto a = runArrayBenchB(elided, 20);
    const auto b = runArrayBenchB(switching, 20);
    ASSERT_TRUE(a.trace && b.trace);
    EXPECT_EQ(a.trace->dropped(), 0u);
    EXPECT_EQ(b.trace->dropped(), 0u);

    // The host modes differ in scheduler events by construction...
    EXPECT_GT(b.trace->count(TxEvent::SchedSwitch),
              a.trace->count(TxEvent::SchedSwitch));

    // ...but the STM event streams must agree record for record.
    auto stmEvents = [](const TraceBuffer &t) {
        std::vector<TraceRecord> out;
        for (const TraceRecord &r : t.snapshot())
            if (!isSchedEvent(r.event))
                out.push_back(r);
        return out;
    };
    const auto ea = stmEvents(*a.trace);
    const auto eb = stmEvents(*b.trace);
    ASSERT_EQ(ea.size(), eb.size());
    ASSERT_FALSE(ea.empty());
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].time, eb[i].time) << "record " << i;
        EXPECT_EQ(ea[i].tasklet, eb[i].tasklet) << "record " << i;
        EXPECT_EQ(ea[i].event, eb[i].event) << "record " << i;
        EXPECT_EQ(ea[i].arg, eb[i].arg) << "record " << i;
        EXPECT_EQ(ea[i].arg2, eb[i].arg2) << "record " << i;
    }
}

//
// Heatmap / histogram fidelity, all seven kinds.
//

class TraceFidelity : public ::testing::TestWithParam<StmKind>
{};

TEST_P(TraceFidelity, AggregatesMatchStmStats)
{
    const auto r = runArrayBenchB(tracedSpec(GetParam()), 20);
    ASSERT_TRUE(r.trace);
    const TraceBuffer &t = *r.trace;
    EXPECT_EQ(t.dropped(), 0u);

    EXPECT_EQ(t.count(TxEvent::Start), r.stm.starts);
    EXPECT_EQ(t.count(TxEvent::Commit), r.stm.commits);
    EXPECT_EQ(t.count(TxEvent::Abort), r.stm.aborts);
    EXPECT_EQ(t.count(TxEvent::Read), r.stm.reads);
    EXPECT_EQ(t.count(TxEvent::Write), r.stm.writes);
    EXPECT_EQ(t.abortsByReason(), r.stm.abort_reasons);

    // One histogram sample per commit; set sizes bounded by ArrayBench
    // B's transaction shape.
    EXPECT_EQ(t.txLatency().count, r.stm.commits);
    EXPECT_EQ(t.commitLatency().count, r.stm.commits);
    EXPECT_EQ(t.readSetSize().count, r.stm.commits);
    EXPECT_EQ(t.writeSetSize().count, r.stm.commits);
    if (r.stm.commits > 0) {
        EXPECT_GT(t.txLatency().min, 0u);
        EXPECT_LE(t.commitLatency().min, t.txLatency().max);
    }

    // Every heatmap abort attribution corresponds to a real abort.
    u64 attributed = 0;
    for (const LockContention &c : t.lockContention())
        attributed += c.aborts_caused;
    EXPECT_LE(attributed, r.stm.aborts);

    // Lock-acquire events carry their aggregate twin.
    u64 acquires = 0;
    for (const LockContention &c : t.lockContention())
        acquires += c.acquires;
    EXPECT_EQ(acquires, t.count(TxEvent::LockAcquire));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TraceFidelity,
                         ::testing::ValuesIn(allStmKinds()),
                         [](const auto &info) {
                             std::string n = stmKindName(info.param);
                             for (char &c : n)
                                 if (c == ' ')
                                     c = '_';
                             return n;
                         });

//
// Tracing is free when off and invisible when on.
//

TEST(TraceOff, TracedRunIsBitwiseIdenticalToUntraced)
{
    for (StmKind kind : {StmKind::NOrec, StmKind::VrEtlWb}) {
        runtime::RunSpec off = tracedSpec(kind);
        off.trace = false;
        const runtime::RunSpec on = tracedSpec(kind);

        const auto a = runArrayBenchB(off, 20);
        const auto b = runArrayBenchB(on, 20);
        EXPECT_FALSE(a.trace);
        ASSERT_TRUE(b.trace);

        EXPECT_EQ(a.dpu.total_cycles, b.dpu.total_cycles);
        EXPECT_EQ(a.dpu.instructions, b.dpu.instructions);
        EXPECT_EQ(a.dpu.mram_reads, b.dpu.mram_reads);
        EXPECT_EQ(a.dpu.mram_writes, b.dpu.mram_writes);
        EXPECT_EQ(a.dpu.atomic_acquires, b.dpu.atomic_acquires);
        EXPECT_EQ(a.dpu.atomic_stall_cycles, b.dpu.atomic_stall_cycles);
        EXPECT_EQ(a.dpu.phase_cycles, b.dpu.phase_cycles);
        EXPECT_EQ(a.stm.starts, b.stm.starts);
        EXPECT_EQ(a.stm.commits, b.stm.commits);
        EXPECT_EQ(a.stm.aborts, b.stm.aborts);
        EXPECT_EQ(a.stm.abort_reasons, b.stm.abort_reasons);
        EXPECT_EQ(a.stm.reads, b.stm.reads);
        EXPECT_EQ(a.stm.writes, b.stm.writes);
    }
}

//
// Perfetto export.
//

TEST(TracePerfetto, ExportIsValidJsonWithBalancedSpans)
{
    const auto r = runArrayBenchB(tracedSpec(StmKind::VrCtlWb), 20);
    ASSERT_TRUE(r.trace);

    std::ostringstream os;
    os << "[\n";
    bool first = true;
    r.trace->writePerfetto(os, 1, "test-run", first);
    os << "\n]\n";
    const std::string json = os.str();

    EXPECT_TRUE(JsonChecker(json).valid()) << json.substr(0, 400);

    // Spans must balance or Perfetto reports unterminated slices.
    size_t begins = 0, ends = 0, pos = 0;
    while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
        const char ph = json[pos + 6];
        begins += ph == 'B';
        ends += ph == 'E';
        ++pos;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);

    // Appending a second process keeps the array valid (the writer
    // streams many runs into one file).
    std::ostringstream multi;
    multi << "[";
    bool f2 = true;
    r.trace->writePerfetto(multi, 1, "run-a", f2);
    r.trace->writePerfetto(multi, 2, "run-b", f2);
    multi << "]";
    EXPECT_TRUE(JsonChecker(multi.str()).valid());
}

//
// Watchdog integration: the dump ends with the trace tail.
//

TEST(TraceWatchdog, ProgressDumpCarriesTraceTail)
{
    sim::DpuConfig dc;
    dc.mram_bytes = 1 << 20;
    sim::Dpu dpu(dc);
    TraceBuffer trace(8);
    dpu.setTraceSink(&trace);
    dpu.addTasklet([](sim::DpuContext &ctx) {
        ctx.acquire(0);
        ctx.compute(100);
        ctx.acquire(1);
    });
    dpu.addTasklet([](sim::DpuContext &ctx) {
        ctx.acquire(1);
        ctx.compute(100);
        ctx.acquire(0);
    });
    try {
        dpu.run();
        FAIL() << "ABBA deadlock not detected";
    } catch (const sim::WatchdogError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("trace records"), std::string::npos) << what;
        EXPECT_NE(what.find("sched_stall"), std::string::npos) << what;
    }
    dpu.setTraceSink(nullptr);
}

//
// Perf-artifact sums.
//

TEST(TraceTotalsTest, AddMergesRuns)
{
    const auto a = runArrayBenchB(tracedSpec(StmKind::TinyCtlWb), 10);
    const auto b = runArrayBenchB(tracedSpec(StmKind::VrEtlWb), 10);
    ASSERT_TRUE(a.trace);
    ASSERT_TRUE(b.trace);
    const TraceBuffer &ta = *a.trace;
    const TraceBuffer &tb = *b.trace;

    TraceTotals t;
    t.add(ta);
    t.add(tb);
    EXPECT_EQ(t.runs, 2u);
    EXPECT_EQ(t.dropped, ta.dropped() + tb.dropped());
    for (size_t e = 0; e < kNumTxEvents; ++e) {
        const auto ev = static_cast<TxEvent>(e);
        EXPECT_EQ(t.events[e], ta.count(ev) + tb.count(ev)) << e;
    }
    for (size_t r = 0; r < kNumAbortReasons; ++r)
        EXPECT_EQ(t.aborts_by_reason[r],
                  ta.abortsByReason()[r] + tb.abortsByReason()[r]);
    for (size_t s = 0; s < kNumStructures; ++s)
        EXPECT_EQ(t.aborts_by_structure[s],
                  ta.abortsByStructure()[s] + tb.abortsByStructure()[s]);
    EXPECT_EQ(t.tx_latency.count,
              ta.txLatency().count + tb.txLatency().count);
    EXPECT_EQ(t.tx_latency.sum, ta.txLatency().sum + tb.txLatency().sum);
    EXPECT_EQ(t.tx_latency.min,
              std::min(ta.txLatency().min, tb.txLatency().min));
    EXPECT_EQ(t.tx_latency.max,
              std::max(ta.txLatency().max, tb.txLatency().max));
    EXPECT_EQ(t.commit_latency.count,
              ta.commitLatency().count + tb.commitLatency().count);
    EXPECT_EQ(t.read_set_size.count,
              ta.readSetSize().count + tb.readSetSize().count);
    EXPECT_EQ(t.write_set_size.sum,
              ta.writeSetSize().sum + tb.writeSetSize().sum);

    // The heatmap merges cell by cell over the longer table.
    const auto &la = ta.lockContention();
    const auto &lb = tb.lockContention();
    ASSERT_EQ(t.locks.size(), std::max(la.size(), lb.size()));
    ASSERT_FALSE(t.locks.empty());
    for (size_t i = 0; i < t.locks.size(); ++i) {
        const LockContention none;
        const LockContention &ca = i < la.size() ? la[i] : none;
        const LockContention &cb = i < lb.size() ? lb[i] : none;
        EXPECT_EQ(t.locks[i].acquires, ca.acquires + cb.acquires) << i;
        EXPECT_EQ(t.locks[i].waits, ca.waits + cb.waits) << i;
        EXPECT_EQ(t.locks[i].wait_cycles, ca.wait_cycles + cb.wait_cycles)
            << i;
        EXPECT_EQ(t.locks[i].aborts_caused,
                  ca.aborts_caused + cb.aborts_caused)
            << i;
    }
}
