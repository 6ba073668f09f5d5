/**
 * @file
 * Deterministic fault injection and progress-failure reporting.
 *
 * A FaultPlan is a small, seeded description of adverse events to
 * inject into one simulated DPU: tasklet stalls at chosen instruction
 * counts, tasklet crashes at chosen STM-operation counts, probabilistic
 * atomic-register acquire delays, and probabilistic spurious
 * validation-failure aborts. The plan is parsed from the `--faults=`
 * bench flag (grammar in docs/robustness.md) and carried by
 * DpuConfig / runtime::RunSpec.
 *
 * Everything is deterministic: probabilistic faults draw from per-
 * tasklet Xoshiro streams derived from the plan seed (independent of
 * the workload's RNG streams), so the same plan + seed replays the
 * same schedule bit-for-bit. An empty plan means no injector is
 * constructed at all — the fast path is a single null-pointer check.
 *
 * This header also defines the failure vocabulary of the robustness
 * layer: TaskletCrashException (the injected crash unwinding a tasklet
 * fiber), TaskletError (any other exception escaping a tasklet body,
 * re-attributed to its tasklet id), and WatchdogError (the progress
 * watchdog's livelock / deadlock verdict, carrying the diagnostic dump
 * and a distinct process exit code).
 */

#ifndef PIMSTM_SIM_FAULT_HH
#define PIMSTM_SIM_FAULT_HH

#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hh"
#include "util/types.hh"

namespace pimstm::sim
{

/** Tasklet id wildcard in stall / crash plan items ("*"). */
constexpr unsigned kAllTasklets = ~0u;

/** One-shot stall: when @p tid has issued @p at_instrs instructions,
 * it stalls for @p cycles. */
struct StallFault
{
    unsigned tid = kAllTasklets;
    u64 at_instrs = 0;
    Cycles cycles = 0;
};

/** Crash: @p tid terminates cleanly at its @p at_op-th STM operation
 * (1-based; operations are tx starts, reads, writes and commits). */
struct CrashFault
{
    unsigned tid = kAllTasklets;
    u64 at_op = 0;
};

/**
 * Parsed `--faults=` specification. Default-constructed (or "none") is
 * the empty plan: no injector is built and behaviour is bitwise
 * identical to a build without the robustness layer.
 */
struct FaultPlan
{
    /** Seed for the probabilistic fault streams (item `seed=U64`). */
    u64 seed = 1;

    /** One-shot stalls (items `stall=TID@INSTRS:CYCLES`). */
    std::vector<StallFault> stalls;

    /** Crash points (items `crash=TID@OPS`). */
    std::vector<CrashFault> crashes;

    /**
     * Whole-DPU crash points (items `dpu-crash=OPS`): the DPU dies at
     * its OPS-th STM operation counted across all tasklets (1-based).
     * WRAM is destroyed, MRAM keeps only flushed lines (unfenced lines
     * are dropped or torn, seeded from the plan seed), and the DPU is
     * left restartable; Dpu::run throws DpuCrashError.
     */
    std::vector<u64> dpu_crashes;

    /** Per-acquire delay probability in permille (item
     * `acq-delay=PERMILLE:CYCLES`). */
    u32 acq_delay_permille = 0;

    /** Cycles added to an atomic-register acquire when the delay
     * fires. */
    Cycles acq_delay_cycles = 0;

    /** Per-STM-operation spurious-abort probability in permille (item
     * `abort=PERMILLE`; 1000 = abort storm). */
    u32 abort_permille = 0;

    /** True iff the plan injects nothing. */
    bool
    empty() const
    {
        return stalls.empty() && crashes.empty() && dpu_crashes.empty()
            && acq_delay_permille == 0 && abort_permille == 0;
    }

    /**
     * Parse a `--faults=` specification (';'-separated items; see
     * docs/robustness.md for the grammar). Throws FatalError on any
     * malformed item so harnesses reject bad plans up front.
     */
    static FaultPlan parse(const std::string &spec);
};

/** Outcome of the per-STM-operation fault hook. */
enum class StmFault : u8
{
    None,
    /** Abort the transaction with AbortReason::ValidationFail. */
    SpuriousAbort,
    /** Terminate the tasklet cleanly mid-transaction. */
    Crash,
    /** Kill the whole DPU at this operation (docs/durability.md). */
    DpuCrash,
};

/**
 * Per-DPU fault delivery engine. Owned by sim::Dpu; null when the plan
 * is empty. All queries are deterministic functions of (plan, per-
 * tasklet event counts, per-tasklet RNG stream).
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, unsigned max_tasklets);

    /** Restore the initial state (new run on the same DPU). */
    void reset();

    /** Account @p instrs instructions issued by @p tid; returns the
     * stall cycles to inject now (0 almost always). */
    Cycles onInstructions(unsigned tid, u64 instrs);

    /** Per-acquire delay injection for @p tid (0 = none). */
    Cycles acquireDelay(unsigned tid);

    /**
     * Count one STM operation by @p tid and decide its fate. Crash
     * points are deterministic (plan-listed op counts); spurious
     * aborts draw from the tasklet's fault stream and are only
     * delivered when @p can_abort (tx starts cannot abort).
     */
    StmFault onStmOp(unsigned tid, bool can_abort);

    const FaultPlan &
    plan() const
    {
        return plan_;
    }

    /** Whole-DPU crashes delivered so far (seeds the torn-write RNG of
     * the Nth crash; not reset by resetRun(reset_faults=false)). */
    u64 dpuCrashesDelivered() const { return dpu_crashes_delivered_; }

  private:
    struct TaskletState
    {
        u64 instrs = 0;
        u64 stm_ops = 0;
        /** Instruction counts (ascending) with pending stalls. */
        std::vector<std::pair<u64, Cycles>> stalls;
        size_t next_stall = 0;
        /** STM-op counts (ascending) with pending crashes. */
        std::vector<u64> crashes;
        size_t next_crash = 0;
        Rng rng;
    };

    FaultPlan plan_;
    std::vector<TaskletState> tasklets_;

    /** Global (cross-tasklet) STM-op count driving dpu-crash points. */
    u64 global_ops_ = 0;
    /** Plan-listed dpu-crash op counts, ascending. */
    std::vector<u64> dpu_crashes_;
    size_t next_dpu_crash_ = 0;
    u64 dpu_crashes_delivered_ = 0;
};

/**
 * Injected tasklet crash. Thrown by core::Stm after releasing all
 * transaction-held metadata, caught at the tasklet trampoline in
 * sim::Dpu, where it terminates the tasklet cleanly and is recorded as
 * a DPU fault (it does not fail the run).
 */
struct TaskletCrashException
{
    unsigned tasklet;
};

/**
 * Injected whole-DPU crash unwinding the tasklet that hit the crash
 * point. Caught at the tasklet trampoline; the scheduler then stops
 * immediately (other tasklets are abandoned mid-stack, exactly like a
 * power loss), applies the memory crash effects and throws
 * DpuCrashError from Dpu::run.
 */
struct DpuCrashException
{
    unsigned tasklet;
};

/**
 * Host-level result of an injected whole-DPU crash: WRAM is wiped,
 * unfenced MRAM lines are dropped or torn, and the DPU is restartable
 * via resetRun(). Durable runs catch this, run recovery and restart;
 * non-durable runs let it escape (guardedMain exits with code 3, like
 * a watchdog verdict — the machine did not complete its program).
 */
class DpuCrashError : public std::runtime_error
{
  public:
    DpuCrashError(u64 at_cycle, const std::string &message)
        : std::runtime_error(message), at_cycle_(at_cycle)
    {
    }

    u64
    atCycle() const
    {
        return at_cycle_;
    }

  private:
    u64 at_cycle_;
};

/**
 * Any other exception escaping a tasklet body, re-thrown on the host
 * stack with the originating tasklet attributed. Without this, a
 * panic() inside a fiber would unwind through the hand-rolled stack
 * switch with no attribution at all.
 */
class TaskletError : public std::runtime_error
{
  public:
    TaskletError(unsigned tasklet, const std::string &message)
        : std::runtime_error("tasklet " + std::to_string(tasklet) + ": "
                             + message),
          tasklet_(tasklet)
    {
    }

    unsigned
    tasklet() const
    {
        return tasklet_;
    }

  private:
    unsigned tasklet_;
};

/** Process exit code for watchdog-detected progress failures, distinct
 * from generic failure (1) and usage errors (2). */
constexpr int kWatchdogExitCode = 3;

/**
 * Thrown instead of hanging when the progress watchdog detects a
 * deadlock (every live tasklet blocked on the atomic register) or a
 * livelock (no transaction committed system-wide for the configured
 * cycle budget). what() carries the full structured diagnostic dump.
 */
class WatchdogError : public std::runtime_error
{
  public:
    enum class Kind : u8
    {
        Deadlock,
        Livelock,
    };

    WatchdogError(Kind kind, const std::string &dump)
        : std::runtime_error(dump), kind_(kind)
    {
    }

    Kind
    kind() const
    {
        return kind_;
    }

  private:
    Kind kind_;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_FAULT_HH
