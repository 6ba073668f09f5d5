/**
 * @file
 * The simulated DPU: tasklet fibers, cycle-accounting scheduler,
 * pipeline and MRAM-DMA timing model, atomic-register blocking, and
 * per-phase statistics.
 *
 * Execution model
 * ---------------
 * Tasklet code is ordinary C++ running on a fiber. Every operation with
 * a simulated cost goes through the DpuContext handed to the tasklet
 * body; the context computes the cost under the constants of
 * sim/config.hh, advances the tasklet's local clock and gives up the
 * DPU, which always goes to the globally-earliest runnable tasklet
 * (ties broken by id).
 * Interleaving is thus decided purely by simulated time —
 * deterministic, yet fine-grained enough (a scheduling point on every
 * memory access and atomic op) that real STM conflicts, aborts and lock
 * aliasing all occur.
 *
 * Two pure host-side optimizations keep the schedule identical by
 * construction. A timing charge whose tasklet would be the next pick
 * anyway advances the clock in place and keeps running ("fiber-switch
 * elision"). Any other scheduling point switches straight to the next
 * pick's fiber ("direct handoff") instead of returning to the
 * scheduler loop, which only starts the run and handles finished
 * tasklets, deadlock and crashes. PIMSTM_SIM_ALWAYS_SWITCH=1 (or
 * DpuConfig::always_switch) restores the round trip through the loop
 * on every charge for cross-checking. See docs/simulator.md
 * §"Scheduler and fiber-switch elision".
 */

#ifndef PIMSTM_SIM_DPU_HH
#define PIMSTM_SIM_DPU_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/addr.hh"
#include "sim/atomic_register.hh"
#include "sim/config.hh"
#include "sim/fault.hh"
#include "sim/fiber.hh"
#include "sim/memory.hh"
#include "sim/phase.hh"
#include "sim/sched_trace.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace pimstm::sim
{

class Dpu;
class DpuContext;

/** Signature of a tasklet body. */
using TaskletBody = std::function<void(DpuContext &)>;

/** Aggregate statistics of one DPU run. */
struct DpuStats
{
    /** Simulated cycles from launch to the last tasklet finishing. */
    Cycles total_cycles = 0;

    /** Busy cycles per phase, summed over tasklets. */
    PhaseCycles phase_cycles{};

    u64 instructions = 0;
    u64 wram_accesses = 0;
    u64 mram_reads = 0;
    u64 mram_writes = 0;
    u64 mram_bytes_read = 0;
    u64 mram_bytes_written = 0;
    u64 atomic_acquires = 0;
    /** Times a tasklet found its atomic bit held and had to block. */
    u64 atomic_stalls = 0;
    /** Cycles spent blocked on a held atomic bit, summed over tasklets. */
    Cycles atomic_stall_cycles = 0;

    /**
     * @{ Fault-injection counters (zero unless a FaultPlan is armed;
     * simulated state, so they replay deterministically).
     */
    /** Injected tasklet stalls delivered. */
    u64 injected_stalls = 0;
    /** Cycles added by injected stalls. */
    Cycles injected_stall_cycles = 0;
    /** Injected atomic-register acquire delays delivered. */
    u64 injected_acq_delays = 0;
    /** Cycles added by injected acquire delays. */
    Cycles injected_acq_delay_cycles = 0;
    /** Tasklets terminated cleanly by an injected crash. */
    u64 tasklet_crashes = 0;
    /** Whole-DPU crashes delivered this run (0 or 1: a crash ends the
     * run; restarts accumulate via operator+=). */
    u64 dpu_crashes = 0;
    /** @} */

    /**
     * @{ Persist-boundary counters (zero unless durable mode issues
     * flush fences; simulated state, deterministic).
     */
    /** Flush fences executed. */
    u64 mram_fences = 0;
    /** Unflushed lines pushed to the persist boundary by fences. */
    u64 mram_fence_lines = 0;
    /** @} */

    /**
     * @{ Host-side scheduler counters (not simulated time; excluded
     * from cross-mode determinism checks — an elided and an
     * always-switch run of the same workload agree on every field
     * above but differ here by construction).
     */
    /** Tasklet resumptions, by the loop or by a handoff. */
    u64 sched_switches = 0;
    /** Timing charges absorbed in place without a fiber switch. */
    u64 sched_elisions = 0;
    /** @} */

    Cycles
    busyCycles() const
    {
        Cycles total = 0;
        for (Cycles c : phase_cycles)
            total += c;
        return total;
    }

    /** Fold another run's counters in (crash-restart accumulation:
     * the driver sums the stats of every launch of a durable run). */
    DpuStats &
    operator+=(const DpuStats &o)
    {
        total_cycles += o.total_cycles;
        for (size_t p = 0; p < phase_cycles.size(); ++p)
            phase_cycles[p] += o.phase_cycles[p];
        instructions += o.instructions;
        wram_accesses += o.wram_accesses;
        mram_reads += o.mram_reads;
        mram_writes += o.mram_writes;
        mram_bytes_read += o.mram_bytes_read;
        mram_bytes_written += o.mram_bytes_written;
        atomic_acquires += o.atomic_acquires;
        atomic_stalls += o.atomic_stalls;
        atomic_stall_cycles += o.atomic_stall_cycles;
        injected_stalls += o.injected_stalls;
        injected_stall_cycles += o.injected_stall_cycles;
        injected_acq_delays += o.injected_acq_delays;
        injected_acq_delay_cycles += o.injected_acq_delay_cycles;
        tasklet_crashes += o.tasklet_crashes;
        dpu_crashes += o.dpu_crashes;
        mram_fences += o.mram_fences;
        mram_fence_lines += o.mram_fence_lines;
        sched_switches += o.sched_switches;
        sched_elisions += o.sched_elisions;
        return *this;
    }
};

/**
 * Per-tasklet view of the DPU, passed to the tasklet body. All methods
 * must be called from inside that tasklet's fiber.
 */
class DpuContext
{
  public:
    DpuContext(Dpu &dpu, unsigned id, u64 seed);

    /** @{ Identity. */
    unsigned taskletId() const { return id_; }
    Dpu &dpu() { return dpu_; }
    unsigned numTasklets() const;
    /** @} */

    /** Per-tasklet deterministic RNG. */
    Rng &rng() { return rng_; }

    /** @{ Compute: charge @p instrs pipeline-issued instructions. */
    void compute(u64 instrs);
    /** @} */

    /** @{ Timed data access. Word accesses must be 4-byte aligned. */
    u32 read32(Addr a);
    void write32(Addr a, u32 v);
    u64 read64(Addr a);
    void write64(Addr a, u64 v);
    void readBlock(Addr a, void *dst, size_t n);
    void writeBlock(Addr a, const void *src, size_t n);
    /** @} */

    /**
     * @{ Charge the cost of a memory access on @p tier without touching
     * backing storage. The STM uses this to price accesses to metadata
     * whose values live in host structures (read/write sets, lock
     * tables), per the configured metadata placement.
     */
    void touchRead(Tier tier, size_t bytes);
    void touchWrite(Tier tier, size_t bytes);

    /**
     * Charge @p count dependent random accesses of @p bytes_each to
     * @p tier in one scheduling event. Unlike touchRead/touchWrite
     * (which model one streamed DMA), this prices the latency-bound
     * pattern of pointer-chasing kernels — each access pays full DMA
     * latency — while still reserving DMA-engine bandwidth, so the
     * cross-tasklet contention model stays intact without a fiber
     * switch per word. Used by batch-simulated kernels (Lee expansion).
     */
    void touchRandom(Tier tier, u64 count, size_t bytes_each,
                     bool is_write);
    /** @} */

    /** @{ Atomic register operations. acquire() blocks until granted. */
    void acquire(u32 key);
    void release(u32 key);
    /** @} */

    /**
     * MRAM flush fence (docs/durability.md): wait for the DMA engine
     * to drain, push every unflushed line to the persist boundary, and
     * charge kMramFenceBaseCycles plus one beat per line. Only the
     * durable commit protocol issues fences; a run that never fences
     * is bitwise identical to one built without the persist model.
     */
    void flushFence();

    /** All-tasklet rendezvous. */
    void barrier();

    /** Reschedule without charging cycles. */
    void yield();

    /** Stall for @p cycles of simulated time (busy wait / back-off). */
    void delay(Cycles cycles);

    /** Current simulated time. */
    Cycles now() const;

    /** @{ Phase accounting used by the STM layer. */
    void setPhase(Phase p) { phase_ = p; }
    Phase phase() const { return phase_; }

    /** Mark transaction start: subsequent cycles accumulate separately
     * so they can be re-binned as Wasted if the transaction aborts. */
    void txAccountingBegin();
    /** Flush accumulated tx cycles to their phases (commit path). */
    void txAccountingCommit();
    /** Re-bin all accumulated tx cycles as Wasted (abort path). */
    void txAccountingAbort();
    /** @} */

  private:
    friend class Dpu;

    void charge(Phase p, Cycles c);

    Dpu &dpu_;
    unsigned id_;
    Rng rng_;
    Phase phase_ = Phase::NonTx;
    bool in_tx_ = false;
    PhaseCycles tx_acc_{};
};

/** One simulated DPU. */
class Dpu
{
  public:
    explicit Dpu(const DpuConfig &cfg);
    ~Dpu();

    Dpu(const Dpu &) = delete;
    Dpu &operator=(const Dpu &) = delete;

    /**
     * Register one tasklet; call before run(). Returns its id. The
     * tasklet runs on its slot's fiber, kept from a previous launch
     * (re-armed) or created on first use, and on a stack that an
     * earlier fiber on the host thread running the DPU finished with
     * (see Fiber::init).
     */
    unsigned addTasklet(TaskletBody body);

    /** Convenience: register @p n tasklets sharing one body. */
    void addTasklets(unsigned n, const TaskletBody &body);

    /**
     * Run all registered tasklets to completion. Exceptions thrown by
     * tasklet bodies propagate out. May be called again after
     * resetRun() with fresh tasklets.
     */
    void run();

    /**
     * Clear tasklets and run-statistics; memory contents persist.
     * Every tasklet body (and all it captured) is destroyed, but each
     * slot's fiber stays for the next launch's addTasklet (a finished
     * fiber has already handed its stack back); a fiber left mid-body
     * by a whole-DPU crash is destroyed with its stack and its
     * never-unwound frames. By default the fault injector restarts its
     * per-tasklet operation counts too (each run sees the plan from
     * scratch). Multi-launch hosts — e.g. the distributed KV's 2PC
     * rounds — pass @p reset_faults = false so op counts accumulate
     * across launches and a `crash=TID@OPS` event stays one-shot for
     * the DPU's whole lifetime instead of re-firing every round.
     */
    void resetRun(bool reset_faults = true);

    /**
     * Return this DPU to the state of a freshly constructed
     * Dpu(cfg): tasklets and statistics cleared, memory tiers
     * re-zeroed (only their materialized extents — the point of
     * pooling), atomic register freed, configuration adopted. A
     * recycled DPU produces bitwise-identical simulations to a fresh
     * one; runtime::DpuPool uses this to recycle instances across
     * sweep points instead of reconstructing 64 MB tiers.
     */
    void recycle(const DpuConfig &cfg);

    /** @{ Components. */
    Memory &wram() { return wram_; }
    Memory &mram() { return mram_; }
    Memory &memory(Tier t) { return t == Tier::Wram ? wram_ : mram_; }
    AtomicRegister &atomics() { return atomic_reg_; }
    const DpuConfig &config() const { return cfg_; }
    /** @} */

    /** Statistics of the current / most recent run. */
    const DpuStats &stats() const { return stats_; }

    /** Current simulated cycle. */
    Cycles now() const { return now_; }

    /** Number of registered tasklets. */
    unsigned numTasklets() const { return static_cast<unsigned>(tasklets_.size()); }

    /** Tasklets currently in the Ready state (maintained incrementally;
     * the pipeline model prices instruction issue with this). */
    unsigned runnableCount() const { return runnable_count_; }

    /** Tasklets whose body has returned. */
    unsigned finishedCount() const { return finished_count_; }

    /** True when every timing charge forces a fiber switch (the
     * PIMSTM_SIM_ALWAYS_SWITCH / DpuConfig::always_switch
     * cross-checking mode); false in the default elided mode. */
    bool alwaysSwitch() const { return always_switch_; }

    /** Fault-delivery engine, or nullptr when the plan is empty (the
     * common case — callers hook injection behind this null check). */
    FaultInjector *faultInjector() { return fault_injector_.get(); }

    /**
     * @{ Whole-DPU crash delivery (docs/durability.md). beginCrash()
     * arms the pending-crash flag; the caller then throws
     * DpuCrashException from its fiber, the trampoline swallows it and
     * the scheduler stops at once, abandoning every other tasklet
     * mid-stack (their fibers are destroyed by the next resetRun, never
     * unwound — exactly a power loss). Dpu::run then wipes WRAM,
     * resolves unfenced MRAM lines (crashScramble, seeded by plan seed
     * and crash ordinal), clears the atomic register and throws
     * DpuCrashError, leaving the DPU restartable via
     * resetRun(reset_faults=false).
     */
    void beginCrash() { crash_pending_ = true; }
    /** @} */

    /**
     * @{ Scheduler trace sink. Host-only observability: emission sites
     * are behind a null check and never charge simulated cycles, so a
     * traced run is bitwise identical to an untraced one. The sink is
     * borrowed, not owned — callers must clear it (or keep the sink
     * alive) for the Dpu's remaining lifetime; recycle() clears it.
     */
    void setTraceSink(SchedTraceSink *sink) { trace_sink_ = sink; }
    /** @} */

    /** A tasklet body that terminated abnormally during run(). */
    struct TaskletFault
    {
        unsigned tasklet;
        std::string message;
        /** True for injected crashes (clean termination); false for
         * escaped exceptions (the run fails with a TaskletError). */
        bool injected_crash;
    };

    /** Faults recorded during the current / most recent run. */
    const std::vector<TaskletFault> &taskletFaults() const
    {
        return tasklet_faults_;
    }

    /** Progress notification: an STM commit happened. Re-arms the
     * livelock watchdog; a no-op (one branch) when it is disabled. */
    void
    noteProgress()
    {
        if (watchdog_cycles_ != 0)
            watchdog_deadline_ = now_ + watchdog_cycles_;
    }

    /**
     * @{ Epoch hook: a host-side callback fired the first time a timing
     * charge moves the clock past each period boundary — the sampling
     * tick of the adaptation controller (docs/adaptive.md). The hook
     * runs on the charging tasklet's fiber stack, charges no simulated
     * cycles, and must not touch simulated memory; like the watchdog,
     * the disarmed check is a single never-taken compare in consume().
     * The hook is borrowed state: recycle() clears it, and passing
     * period 0 (or an empty hook) disarms. Calling mid-run re-arms
     * relative to the current cycle.
     */
    void setEpochHook(Cycles period, std::function<void()> hook);
    /** @} */

    /**
     * @{ Diagnostic providers for the watchdog dump. An STM instance
     * registers a callback describing its held ownership records and
     * abort histogram; @p key (the instance address) unregisters it.
     */
    void addDiagnostic(const void *key,
                       std::function<void(std::ostream &)> fn);
    void removeDiagnostic(const void *key);
    /** @} */

    /** Structured progress dump (per-tasklet state, held atomic bits,
     * registered STM diagnostics) as used in WatchdogError::what(). */
    std::string progressDump(const std::string &verdict) const;

  private:
    friend class DpuContext;

    enum class TaskletState : u8
    {
        Ready,          ///< runnable at ready_at
        BlockedAtomic,  ///< waiting for an atomic register bit
        BlockedBarrier, ///< waiting at the barrier
        Finished,
    };

    struct Tasklet
    {
        std::unique_ptr<DpuContext> ctx;
        TaskletState state = TaskletState::Ready;
        Cycles ready_at = 0;
        unsigned waiting_bit = 0;      // valid when BlockedAtomic
        Cycles blocked_since = 0;      // for atomic stall accounting
    };

    /** One entry of the ready min-heap: a Ready, not-running tasklet
     * keyed by its wake-up time. Entries are never stale — a Ready
     * tasklet's ready_at only changes while it runs, and the running
     * tasklet is not in the heap. */
    struct ReadyEntry
    {
        Cycles ready_at;
        unsigned tid;
    };

    /** Min-heap order on (ready_at, tid) — mirrors the scheduler's
     * earliest-clock, lowest-id-on-tie selection rule exactly. */
    static bool
    laterThan(const ReadyEntry &a, const ReadyEntry &b)
    {
        return a.ready_at > b.ready_at ||
               (a.ready_at == b.ready_at && a.tid > b.tid);
    }

    /** Cost in cycles of issuing @p instrs instructions now. */
    Cycles instrCost(u64 instrs) const;

    /** Charge @p cycles to the running tasklet @p tid; keeps running
     * in place when @p tid would be the scheduler's next pick anyway,
     * else suspends it until now + cycles. */
    void consume(unsigned tid, Cycles cycles);

    /** Push @p tid (state Ready) into the ready heap. */
    void pushReady(unsigned tid);

    /** Pop the ready heap's top: the next pick. */
    ReadyEntry popReady();

    /** Replace the ready heap's top with @p e (one sift-down). */
    void replaceReadyTop(const ReadyEntry &e);

    /** Make @p e's tasklet, just taken off the ready heap, the running
     * one: clock, switch count and trace, as for every resumption. */
    void dispatch(const ReadyEntry &e);

    /** Dispatch @p next and switch the running tasklet @p tid's fiber
     * straight to its fiber (no switch when it is @p tid itself). */
    void handOff(unsigned tid, const ReadyEntry &next);

    /** True when the running tasklet @p tid, becoming runnable again at
     * @p at, is exactly what scheduleLoop would pick next. */
    bool currentStaysNext(unsigned tid, Cycles at) const;

    /** Requeue the running tasklet (ready_at already set) and yield. */
    void yieldRunning(unsigned tid);

    /** Move the running tasklet to BlockedAtomic on @p bit and yield. */
    void blockOnAtomic(unsigned tid, unsigned bit);

    /** Barrier arrival of the running tasklet: block, maybe release,
     * and yield until the generation advances. */
    void arriveBarrier(unsigned tid);

    /** Schedule an MRAM DMA of @p bytes; returns completion time. */
    Cycles mramAccess(unsigned tid, size_t bytes, bool is_write);

    /** Schedule @p count dependent random MRAM accesses; returns the
     * completion time of the last one. */
    Cycles mramRandomAccess(unsigned tid, u64 count, size_t bytes_each,
                            bool is_write);

    /** Suspend the running tasklet @p tid (already requeued, or
     * blocked) and hand the DPU to the next pick, or return to
     * scheduleLoop when there is none, a crash is pending or every
     * charge switches. */
    void suspend(unsigned tid);

    /** Wake tasklets blocked on atomic @p bit. */
    void wakeAtomicWaiters(unsigned bit);

    /** Release the barrier if every live tasklet has arrived. */
    void maybeReleaseBarrier();

    /** Fail the run with a WatchdogError carrying the progress dump. */
    [[noreturn]] void watchdogFire(WatchdogError::Kind kind);

    /** Advance epoch_next_ past now_ and invoke the epoch hook. */
    void fireEpoch();

    void scheduleLoop();

    DpuConfig cfg_;
    Memory wram_;
    Memory mram_;
    AtomicRegister atomic_reg_;
    std::vector<Tasklet> tasklets_;
    /** Fiber of each tasklet slot (indexed by id). Outlives resetRun()
     * and recycle() so a relaunch re-arms it; it holds a stack only
     * while its body runs. */
    std::vector<std::unique_ptr<Fiber>> fibers_;
    DpuStats stats_;

    Cycles now_ = 0;
    Cycles mram_engine_free_ = 0;
    unsigned running_tid_ = 0;
    bool in_run_ = false;
    /** An injected whole-DPU crash is unwinding the current run. */
    bool crash_pending_ = false;

    // Incremental scheduler state: counts are updated at every tasklet
    // state transition so the hot path (instrCost on each compute /
    // memory touch, the pick in scheduleLoop, the alive count in
    // maybeReleaseBarrier) never scans all tasklets.
    unsigned runnable_count_ = 0;
    unsigned finished_count_ = 0;
    unsigned blocked_atomic_count_ = 0;
    std::vector<ReadyEntry> ready_heap_;
    bool always_switch_ = false;

    // Barrier state.
    unsigned barrier_count_ = 0;
    u64 barrier_generation_ = 0;

    // Robustness layer. The injector exists only for non-empty plans;
    // the livelock deadline is UINT64_MAX when the watchdog is off, so
    // the hot-path check in consume() is a single always-false compare.
    std::unique_ptr<FaultInjector> fault_injector_;
    SchedTraceSink *trace_sink_ = nullptr;
    Cycles watchdog_cycles_ = 0;
    Cycles watchdog_deadline_ = ~Cycles{0};
    // Epoch hook (disarmed: next = UINT64_MAX, same trick as the
    // watchdog so the off cost is one never-taken compare).
    Cycles epoch_period_ = 0;
    Cycles epoch_next_ = ~Cycles{0};
    std::function<void()> epoch_hook_;
    std::vector<TaskletFault> tasklet_faults_;
    std::vector<std::pair<const void *, std::function<void(std::ostream &)>>>
        diagnostics_;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_DPU_HH
