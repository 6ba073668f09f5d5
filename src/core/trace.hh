/**
 * @file
 * Transaction-level observability: a bounded ring buffer of
 * timestamped per-tasklet events (STM operations, lock traffic and
 * scheduler activity on one simulated clock), plus the aggregations
 * the ring alone cannot answer — a per-lock contention heatmap,
 * log2-bucketed latency/set-size histograms and an abort-attribution
 * table. Attached via StmConfig::trace (STM events) and
 * Dpu::setTraceSink (scheduler events); see docs/observability.md.
 *
 * Debugging concurrency on PIM devices is notoriously hard (no
 * debugger attaches to 24 tasklets in a DRAM chip); a post-mortem
 * event trace of the exact interleaving is the pragmatic substitute,
 * and determinism makes every trace replayable. Everything in this
 * file is host-side: tracing never charges simulated cycles, so a
 * traced run is bitwise identical to an untraced one (CI-gated).
 */

#ifndef PIMSTM_CORE_TRACE_HH
#define PIMSTM_CORE_TRACE_HH

#include <array>
#include <bit>
#include <ostream>
#include <string_view>
#include <vector>

#include "core/stats.hh"
#include "sim/addr.hh"
#include "sim/sched_trace.hh"
#include "util/types.hh"

namespace pimstm::core
{

/**
 * Well-known data-structure identities for per-structure abort
 * attribution (a fixed enum, not a runtime registry, so ids are
 * deterministic across runs and host threads). 0 = "no structure":
 * plain word accesses outside any tagged container.
 */
enum class StructureId : u8
{
    None = 0,
    Map,                ///< TxHashMap / BoostedMap
    Set,                ///< BoostedSet
    Queue,              ///< BoostedQueue
    SkipList,           ///< workloads/skiplist
    VacationTables,     ///< vacation free/price tables
    VacationCustomers,  ///< vacation customer slot table
    KvMap,              ///< distributed_kv per-shard store
    KvPins,             ///< distributed_kv per-shard pin table
    NumStructures,
};

constexpr size_t kNumStructures =
    static_cast<size_t>(StructureId::NumStructures);

constexpr std::string_view
structureName(StructureId s)
{
    switch (s) {
      case StructureId::None: return "none";
      case StructureId::Map: return "map";
      case StructureId::Set: return "set";
      case StructureId::Queue: return "queue";
      case StructureId::SkipList: return "skiplist";
      case StructureId::VacationTables: return "vacation-tables";
      case StructureId::VacationCustomers: return "vacation-customers";
      case StructureId::KvMap: return "kv-map";
      case StructureId::KvPins: return "kv-pins";
      default: return "?";
    }
}

enum class TxEvent : u8
{
    Start = 0,
    Read,
    Write,
    Commit,
    Abort,
    /** ORec / rw-lock / seqlock acquired (arg = lock index,
     * arg2 = cycles spent waiting for it, 0 when uncontended). */
    LockAcquire,
    /** A contended lock was polled without acquiring it yet
     * (arg = lock index, arg2 = cycles this wait charged). */
    LockWait,
    /** Read-set validation / snapshot extension (arg = entries). */
    Validate,
    /** @{ Scheduler events forwarded from sim::SchedTraceSink; arg
     * meanings are per sim::SchedEvent. */
    SchedSwitch,
    SchedStall,
    SchedWake,
    BarrierArrive,
    BarrierRelease,
    FaultStall,
    FaultAcqDelay,
    /** @} */
    /** Abstract lock acquired by a boosted operation (arg = stripe,
     * arg2 = cycles spent waiting for it). */
    BoostAcquire,
    /** A held abstract lock was polled without acquiring it
     * (arg = stripe, arg2 = cycles this wait charged). */
    BoostWait,
    /** One semantic inverse operation replayed on abort
     * (arg = remaining undo-log depth). */
    SemanticUndo,
    /** @{ Durable-transaction events (docs/durability.md). */
    /** Redo/undo entries appended to the MRAM log (arg = bytes,
     * arg2 = entries). */
    LogAppend,
    /** MRAM flush fence issued (arg = lines pushed durable). */
    FlushFence,
    /** Commit record durable — the transaction's persistence point
     * (arg = global durable sequence number). */
    DurableCommit,
    /** Post-crash recovery pass completed (arg = logs redone,
     * arg2 = logs discarded or undone). */
    Recovery,
    /** @} */
    NumEvents,
};

constexpr size_t kNumTxEvents = static_cast<size_t>(TxEvent::NumEvents);

constexpr std::string_view
txEventName(TxEvent e)
{
    switch (e) {
      case TxEvent::Start: return "start";
      case TxEvent::Read: return "read";
      case TxEvent::Write: return "write";
      case TxEvent::Commit: return "commit";
      case TxEvent::Abort: return "abort";
      case TxEvent::LockAcquire: return "lock_acquire";
      case TxEvent::LockWait: return "lock_wait";
      case TxEvent::Validate: return "validate";
      case TxEvent::SchedSwitch: return "sched_switch";
      case TxEvent::SchedStall: return "sched_stall";
      case TxEvent::SchedWake: return "sched_wake";
      case TxEvent::BarrierArrive: return "barrier_arrive";
      case TxEvent::BarrierRelease: return "barrier_release";
      case TxEvent::FaultStall: return "fault_stall";
      case TxEvent::FaultAcqDelay: return "fault_acq_delay";
      case TxEvent::BoostAcquire: return "boost_acquire";
      case TxEvent::BoostWait: return "boost_wait";
      case TxEvent::SemanticUndo: return "semantic_undo";
      case TxEvent::LogAppend: return "log_append";
      case TxEvent::FlushFence: return "flush_fence";
      case TxEvent::DurableCommit: return "durable_commit";
      case TxEvent::Recovery: return "recovery";
      default: return "?";
    }
}

/** Sentinel lock index for aborts not attributable to one lock
 * (e.g. NOrec value validation, injected aborts, user retry()). */
constexpr u32 kNoLockIndex = ~u32{0};

/** One traced event. */
struct TraceRecord
{
    Cycles time = 0;
    u8 tasklet = 0;
    TxEvent event = TxEvent::Start;
    /** Address for Read/Write; abort-reason index for Abort; lock
     * index for LockAcquire/LockWait; see TxEvent per-event notes. */
    u32 arg = 0;
    /** Second operand: conflicting address for Abort, wait cycles for
     * LockAcquire/LockWait, event-specific for scheduler events. */
    u64 arg2 = 0;
    /** Data structure the event happened inside (StructureId; 0 when
     * the event is not attributable to one tagged structure). */
    u8 structure = 0;
};

/**
 * log2-bucketed histogram: bucket i counts values v with
 * bit_width(v) == i, i.e. bucket 0 holds {0} and bucket i >= 1 holds
 * [2^(i-1), 2^i). 48 buckets cover every cycle count the simulator
 * can produce.
 */
struct LogHistogram
{
    static constexpr size_t kBuckets = 48;

    std::array<u64, kBuckets> buckets{};
    u64 count = 0;
    u64 sum = 0;
    u64 min = ~u64{0};
    u64 max = 0;

    static size_t
    bucketOf(u64 v)
    {
        const size_t b = static_cast<size_t>(std::bit_width(v));
        return b < kBuckets ? b : kBuckets - 1;
    }

    /** Lower bound of bucket @p b (0, 1, 2, 4, 8, ...). */
    static u64
    bucketLow(size_t b)
    {
        return b == 0 ? 0 : u64{1} << (b - 1);
    }

    void
    add(u64 v)
    {
        ++buckets[bucketOf(v)];
        ++count;
        sum += v;
        if (v < min)
            min = v;
        if (v > max)
            max = v;
    }

    void
    merge(const LogHistogram &o)
    {
        for (size_t b = 0; b < kBuckets; ++b)
            buckets[b] += o.buckets[b];
        count += o.count;
        sum += o.sum;
        if (o.count != 0) {
            if (o.min < min)
                min = o.min;
            if (o.max > max)
                max = o.max;
        }
    }

    double
    mean() const
    {
        return count > 0
            ? static_cast<double>(sum) / static_cast<double>(count)
            : 0.0;
    }
};

/** Per-lock contention counters (one heatmap cell). NOrec's global
 * seqlock is reported as lock index 0. */
struct LockContention
{
    u64 acquires = 0;     ///< successful acquisitions
    u64 waits = 0;        ///< polls of a lock held by another tx
    u64 wait_cycles = 0;  ///< cycles spent in those polls
    u64 aborts_caused = 0;///< aborts attributed to this lock

    bool
    any() const
    {
        return acquires | waits | wait_cycles | aborts_caused;
    }
};

/**
 * Bounded ring buffer of TraceRecords (oldest entries are dropped)
 * plus the run-lifetime aggregations: the ring answers "what was the
 * interleaving", the aggregates answer "which lock is hot and where
 * did the time go" even after the ring has wrapped.
 */
class TraceBuffer : public sim::SchedTraceSink
{
  public:
    explicit TraceBuffer(size_t capacity = 4096)
        : capacity_(capacity)
    {
        records_.reserve(capacity);
    }

    void
    record(Cycles time, unsigned tasklet, TxEvent event, u32 arg = 0,
           u64 arg2 = 0, StructureId structure = StructureId::None)
    {
        TraceRecord r;
        r.time = time;
        r.tasklet = static_cast<u8>(tasklet);
        r.event = event;
        r.arg = arg;
        r.arg2 = arg2;
        r.structure = static_cast<u8>(structure);
        ++counts_[static_cast<size_t>(event)];
        if (records_.size() < capacity_) {
            records_.push_back(r);
        } else {
            records_[head_] = r;
            head_ = (head_ + 1) % capacity_;
            ++dropped_;
        }
    }

    /** @{ Aggregation entry points, called by the Stm wrappers. */

    /** A lock was acquired after @p wait_cycles of waiting. */
    void
    noteLockAcquire(u32 index, u64 wait_cycles)
    {
        touchLock(index).acquires += 1;
        if (wait_cycles != 0)
            touchLock(index).wait_cycles += wait_cycles;
    }

    /** A held lock was polled without acquiring (one wait round). */
    void
    noteLockWait(u32 index, u64 cycles)
    {
        LockContention &c = touchLock(index);
        ++c.waits;
        c.wait_cycles += cycles;
    }

    /** An abort happened; @p lock is the conflicting lock index or
     * kNoLockIndex when the conflict has no single-lock attribution;
     * @p structure the tagged structure the aborting operation was
     * inside (None when untagged). */
    void
    noteAbort(AbortReason reason, u32 lock,
              StructureId structure = StructureId::None)
    {
        ++aborts_by_reason_[static_cast<size_t>(reason)];
        ++aborts_by_structure_[static_cast<size_t>(structure)];
        if (lock != kNoLockIndex)
            ++touchLock(lock).aborts_caused;
    }

    /** A transaction committed: attempt latency (txStart of the
     * committing attempt to commit end), cycles inside doCommit, and
     * the set sizes at commit. */
    void
    noteCommit(u64 tx_latency, u64 commit_latency, u64 read_set,
               u64 write_set)
    {
        tx_latency_.add(tx_latency);
        commit_latency_.add(commit_latency);
        read_set_size_.add(read_set);
        write_set_size_.add(write_set);
    }
    /** @} */

    /** sim::SchedTraceSink: scheduler events share the ring. */
    void
    schedEvent(Cycles time, unsigned tasklet, sim::SchedEvent e,
               u64 arg, u64 arg2) override
    {
        static constexpr TxEvent kMap[] = {
            TxEvent::SchedSwitch,    TxEvent::SchedStall,
            TxEvent::SchedWake,      TxEvent::BarrierArrive,
            TxEvent::BarrierRelease, TxEvent::FaultStall,
            TxEvent::FaultAcqDelay,
        };
        static_assert(std::size(kMap) == sim::kNumSchedEvents);
        record(time, tasklet, kMap[static_cast<size_t>(e)],
               static_cast<u32>(arg), arg2);
    }

    /** sim::SchedTraceSink: last @p n records, for the watchdog dump. */
    void
    dumpTail(std::ostream &os, size_t n) const override;

    /** Events in chronological order (oldest first). */
    std::vector<TraceRecord>
    snapshot() const
    {
        std::vector<TraceRecord> out;
        out.reserve(records_.size());
        for (size_t i = 0; i < records_.size(); ++i)
            out.push_back(records_[(head_ + i) % records_.size()]);
        return out;
    }

    /** Total events of @p e ever recorded (including dropped). */
    u64
    count(TxEvent e) const
    {
        return counts_[static_cast<size_t>(e)];
    }

    u64 dropped() const { return dropped_; }
    size_t size() const { return records_.size(); }
    size_t capacity() const { return capacity_; }

    /** @{ Aggregate accessors (docs/observability.md semantics). */
    const std::vector<LockContention> &
    lockContention() const
    {
        return lock_contention_;
    }

    const std::array<u64, kNumAbortReasons> &
    abortsByReason() const
    {
        return aborts_by_reason_;
    }

    const std::array<u64, kNumStructures> &
    abortsByStructure() const
    {
        return aborts_by_structure_;
    }

    const LogHistogram &txLatency() const { return tx_latency_; }
    const LogHistogram &commitLatency() const { return commit_latency_; }
    const LogHistogram &readSetSize() const { return read_set_size_; }
    const LogHistogram &writeSetSize() const { return write_set_size_; }
    /** @} */

    void
    clear()
    {
        records_.clear();
        head_ = 0;
        dropped_ = 0;
        counts_.fill(0);
        lock_contention_.clear();
        aborts_by_reason_.fill(0);
        aborts_by_structure_.fill(0);
        tx_latency_ = LogHistogram{};
        commit_latency_ = LogHistogram{};
        read_set_size_ = LogHistogram{};
        write_set_size_ = LogHistogram{};
    }

    /** Dump as "cycle tasklet event arg" lines, optionally filtered
     * to one tasklet (pass -1 for all). */
    void dump(std::ostream &os, int tasklet_filter = -1) const;

    /**
     * Append the ring's events to @p os in Chrome chrome://tracing /
     * Perfetto "JSON array format": one emitted process per traced
     * run (@p pid, named @p process_name), one thread per tasklet.
     * Transactions become B/E duration spans, reads/writes/locks
     * instants, atomic stalls spans closed by their wake event.
     * Timestamps are raw simulated cycles in the "us" field — exact,
     * at the price of the UI's time unit reading "us" for cycles.
     * Emits only the events (comma-separated, @p first tracking
     * whether a leading comma is needed); the caller owns the
     * enclosing "[" ... "]".
     */
    void writePerfetto(std::ostream &os, u32 pid,
                       const std::string &process_name,
                       bool &first) const;

  private:
    static void printRecord(std::ostream &os, const TraceRecord &r);

    /** Heatmap cell for @p index, growing the table on demand (the
     * table is host memory; its simulated twin is the lock table the
     * STM already pays for). */
    LockContention &
    touchLock(u32 index)
    {
        if (index >= lock_contention_.size())
            lock_contention_.resize(static_cast<size_t>(index) + 1);
        return lock_contention_[index];
    }

    size_t capacity_;
    std::vector<TraceRecord> records_;
    size_t head_ = 0;
    u64 dropped_ = 0;
    std::array<u64, kNumTxEvents> counts_{};

    std::vector<LockContention> lock_contention_;
    std::array<u64, kNumAbortReasons> aborts_by_reason_{};
    std::array<u64, kNumStructures> aborts_by_structure_{};
    LogHistogram tx_latency_;
    LogHistogram commit_latency_;
    LogHistogram read_set_size_;
    LogHistogram write_set_size_;
};

/**
 * Sum of traced runs: the `trace` block of --perf-json (schema in
 * docs/observability.md), folded from the TraceBuffers of the runs
 * the artifact records.
 */
struct TraceTotals
{
    u64 runs = 0; ///< traced runs folded in
    std::array<u64, kNumTxEvents> events{};
    u64 dropped = 0;
    std::array<u64, kNumAbortReasons> aborts_by_reason{};
    std::array<u64, kNumStructures> aborts_by_structure{};
    LogHistogram tx_latency;
    LogHistogram commit_latency;
    LogHistogram read_set_size;
    LogHistogram write_set_size;
    /** Merged heatmap, indexed by lock index (cross-run: the same
     * index in different runs lands in the same cell). */
    std::vector<LockContention> locks;

    /** Fold one run's trace in. */
    void add(const TraceBuffer &trace);
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_TRACE_HH
