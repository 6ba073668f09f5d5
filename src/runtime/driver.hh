/**
 * @file
 * The workload driver: runs one benchmark configuration (workload x STM
 * kind x metadata tier x tasklet count x seed) on a fresh simulated DPU
 * and returns everything the paper's plots need — throughput, abort
 * rate, time breakdown and workload-specific metrics.
 */

#ifndef PIMSTM_RUNTIME_DRIVER_HH
#define PIMSTM_RUNTIME_DRIVER_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stm.hh"
#include "core/trace.hh"
#include "sim/dpu.hh"

namespace pimstm::runtime
{

/**
 * Interface every benchmark implements. A Workload instance describes
 * one problem instance; the driver owns the DPU and STM lifecycles.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Display name, e.g. "ArrayBench A". */
    virtual const char *name() const = 0;

    /** Fill in workload-specific STM requirements (set capacities,
     * data-size hint). Called before the STM is constructed. */
    virtual void configure(core::StmConfig &cfg) const = 0;

    /** Allocate and initialize shared state in simulated memory. */
    virtual void setup(sim::Dpu &dpu, core::Stm &stm) = 0;

    /** Body executed by each tasklet. */
    virtual void tasklet(sim::DpuContext &ctx, core::Stm &stm) = 0;

    /** Check invariants after the run; throw on violation. */
    virtual void verify(sim::Dpu &dpu, core::Stm &stm) = 0;

    /** Application-level operations completed (workload-defined). */
    virtual u64 appOps() const { return 0; }

    /** Extra metrics to surface in results. */
    virtual std::map<std::string, double>
    extraMetrics() const
    {
        return {};
    }
};

/**
 * Online-adaptation configuration (docs/adaptive.md): an epoch
 * feedback controller samples per-epoch stat deltas and actuates the
 * backoff/contention-manager knobs, a dynamic tasklet throttle,
 * hot-lock WRAM migration, and live STM-kind switching. Disabled by
 * default; with enabled = false the run is bitwise identical to a
 * build without the subsystem (CI-gated).
 */
struct AdaptiveSpec
{
    bool enabled = false;

    /** Controller sampling period in simulated cycles. */
    Cycles epoch_cycles = 100000;

    /** @{ Per-knob enables (all on once enabled, for ablations).
     * Hot-lock migration is off when hot_lock_capacity is 0, and kind
     * switching when kind_candidates holds fewer than two kinds. */
    bool tune_backoff = true;
    bool tune_throttle = true;
    /** @} */

    /** Kind-switch candidates (RunSpec::kind is always implicitly one;
     * switching is on with two or more). */
    std::vector<core::StmKind> kind_candidates;

    /** Consecutive epochs a signal must persist before acting
     * (hysteresis against flapping). */
    unsigned hysteresis_epochs = 2;

    /** Ceiling for the doubling backoff base. */
    Cycles backoff_base_max = 256;

    /** Hot-lock migration: WRAM cache capacity in entries. The fixed
     * policy constants (throttle band, CM poll budget, kind-switch
     * margin, promotion heat) live in runtime/adaptive.hh. */
    u32 hot_lock_capacity = 16;
};

struct AdaptiveReport; // defined in runtime/adaptive.hh

/** One run configuration. */
struct RunSpec
{
    core::StmKind kind = core::StmKind::NOrec;
    core::MetadataTier tier = core::MetadataTier::Mram;
    unsigned tasklets = 1;
    u64 seed = 1;

    /** MRAM size for the simulated DPU (shrinkable for big sweeps). */
    size_t mram_bytes = 64 * 1024 * 1024;

    /** Disable fiber-switch elision (DpuConfig::always_switch): every
     * timing charge pays a fiber switch. Slower, bitwise-identical
     * results — used by tests/CI to cross-check the elided fast path. */
    bool sim_always_switch = false;

    /** Deterministic fault-injection plan (empty = no injection; see
     * docs/robustness.md). */
    sim::FaultPlan faults;

    /** Livelock watchdog budget in cycles (0 = off). */
    Cycles watchdog_cycles = 0;

    /** Usable atomic-register bits (0 = the hardware's 256). */
    unsigned atomic_bits_override = 0;

    /**
     * The STM knobs of the run: backoff, contention manager, lock-table
     * size, NOrec start wait, serial fallback, boosting
     * (docs/boosting.md) and durable mode (docs/durability.md; launch()
     * then recovers every whole-DPU crash a `dpu-crash=` fault plan
     * delivers, and the run continues).
     * runWorkload starts the run's StmConfig from this one, except for
     * the fields it owns: `kind`, `metadata_tier` and `num_tasklets`
     * come from the fields above, `trace` from the run's own buffer and
     * `hot_lock_capacity` from `adaptive` (0 when the controller is
     * off). Workload::configure then sets `max_read_set`,
     * `max_write_set` and `data_words_hint`.
     */
    core::StmConfig stm;

    /** Record a transaction/scheduler trace (docs/observability.md).
     * Host-only: a traced run is bitwise identical to an untraced one. */
    bool trace = false;

    /** Ring capacity (records) of the per-run trace buffer; aggregates
     * (heatmap, histograms) are unaffected by drops. */
    size_t trace_buffer_capacity = 4096;

    /** Online-adaptation controller (docs/adaptive.md). */
    AdaptiveSpec adaptive;
};

/** Result of one run. */
struct RunResult
{
    core::StmStats stm;
    sim::DpuStats dpu;

    /** Simulated wall-clock of the run, seconds. */
    double seconds = 0.0;

    /** Committed transactions per second (the paper's main metric). */
    double throughput = 0.0;

    /** Workload-defined operations per second. */
    double app_ops_per_sec = 0.0;

    double abort_rate = 0.0;

    std::map<std::string, double> extra;

    /** Share of busy cycles per phase, in sim::Phase order. */
    std::array<double, sim::kNumPhases> phase_share{};

    /** The run's trace buffer (null unless RunSpec::trace). Shared so
     * callers can keep it after the RunResult is copied around. */
    std::shared_ptr<core::TraceBuffer> trace;

    /** Epoch-controller decision log (null unless the adaptive
     * controller ran; runtime/adaptive.hh). */
    std::shared_ptr<AdaptiveReport> adaptive;
};

/**
 * One DPU launch: the host starts the program and waits for every
 * tasklet (PIM-STM §3.1). Resets @p dpu for a new run, keeping the
 * fault injector's op counts, and deals item i to tasklet i mod
 * min(@p tasklets, @p items); each tasklet runs its items in
 * ascending order through @p item. After every round, @p on_round
 * gets the DPU, so the caller can fold in the round's stats and
 * faults.
 *
 * A whole-DPU crash (sim::DpuCrashError) ends a round. On a durable
 * @p stm, launch recovers it (docs/durability.md): the round goes to
 * @p on_round, Stm::recoverAfterCrash runs, the same items are dealt
 * again and the DPU runs on. An item whose outcome is host state may
 * skip itself on the re-run. Each `dpu-crash=` point fires once per
 * DPU lifetime, so the loop needs no budget. On a non-durable @p stm
 * the crash propagates.
 */
void launch(sim::Dpu &dpu, core::Stm &stm, unsigned tasklets, size_t items,
            const std::function<void(sim::DpuContext &, size_t)> &item,
            const std::function<void(const sim::Dpu &)> &on_round);

/**
 * Run @p workload under @p spec: one launch() of spec.tasklets copies
 * of Workload::tasklet. Throws PlacementError when the STM
 * metadata or the workload's data does not fit in simulated memory —
 * sweep harnesses catch this to mark the point "not runnable". Any
 * other error, a refused configuration or a failed verify() among
 * them, propagates.
 */
RunResult runWorkload(Workload &workload, const RunSpec &spec);

/** Creates a fresh problem instance per run (runs must not share
 * workload state when they execute concurrently). */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/** Outcome of one spec within runWorkloadMany. */
struct RunOutcome
{
    /** False when the placement did not fit (PlacementError). */
    bool ok = false;
    RunResult result;
    std::string error; ///< PlacementError message when !ok
};

/**
 * Run one workload instance per spec, concurrently on the global
 * util::ThreadPool. outcome[i] corresponds to specs[i]; results are
 * bitwise independent of the job count because every run is a
 * self-contained simulation. PlacementError (memory that does not
 * fit) is captured per-outcome; any other exception propagates.
 */
std::vector<RunOutcome> runWorkloadMany(const WorkloadFactory &factory,
                                        const std::vector<RunSpec> &specs);

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_DRIVER_HH
