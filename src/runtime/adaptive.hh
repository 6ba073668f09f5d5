/**
 * @file
 * Adaptive STM selection — the natural consequence of the paper's
 * central finding that *no one-size-fits-all STM exists* (§4.2.2) and
 * of its own pointer to ProteusTM [13]: since PIM-STM lets an
 * application switch implementations "via trivial configuration
 * changes", a thin selector can probe the taxonomy on a shortened
 * version of the workload and run the real job under the winner.
 *
 * The probe phase runs each candidate on a small replica of the
 * workload (same seed, same tasklet count) and ranks candidates by
 * committed throughput; infeasible configurations (WRAM metadata that
 * does not fit) are skipped exactly like the paper's "not runnable"
 * cases. The measured probe cost is reported so callers can reason
 * about amortization.
 */

#ifndef PIMSTM_RUNTIME_ADAPTIVE_HH
#define PIMSTM_RUNTIME_ADAPTIVE_HH

#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "runtime/driver.hh"

namespace pimstm::runtime
{

/** Factory producing a workload instance; @p probe selects the
 * shortened probe replica vs the full job. */
using AdaptiveFactory =
    std::function<std::unique_ptr<Workload>(bool probe)>;

struct AdaptiveOptions
{
    /** Candidate set (defaults to the full taxonomy when empty). */
    std::vector<core::StmKind> candidates;
    /** Probe both tiers too? Otherwise only spec.tier is probed. */
    bool probe_both_tiers = false;
};

struct AdaptiveResult
{
    core::StmKind chosen_kind = core::StmKind::NOrec;
    core::MetadataTier chosen_tier = core::MetadataTier::Mram;

    /** Probe throughput per candidate (missing = not runnable). */
    std::map<std::string, double> probe_throughput;

    /** Simulated seconds spent probing (amortization cost). */
    double probe_seconds = 0;

    /** Result of the full run under the chosen configuration. */
    RunResult final;
};

/**
 * Probe the candidates on the shortened workload, pick the best, and
 * run the real job under it.
 */
AdaptiveResult adaptiveRun(const AdaptiveFactory &factory,
                           const RunSpec &spec,
                           const AdaptiveOptions &options = {});

//
// Online epoch feedback controller (docs/adaptive.md). Where
// adaptiveRun() decides once, before the run, the controller keeps
// deciding during it: every AdaptiveSpec::epoch_cycles of simulated
// time it samples the stat deltas below and actuates the backoff /
// contention-manager knobs, the dynamic tasklet throttle, hot-lock
// WRAM migration, and live STM-kind switching.
//

/** Per-epoch deltas of the contention signals the controller reads. */
struct EpochSample
{
    u64 commits = 0;
    u64 aborts = 0;
    std::array<u64, core::kNumAbortReasons> abort_reasons{};
    u64 lock_waits = 0;
    /** Cycles spent polling held locks (wait-on-contention + NOrec). */
    u64 lock_wait_cycles = 0;
    /** Cycles spent in post-abort randomized backoff. */
    u64 backoff_cycles = 0;
    u64 park_polls = 0;
    /** Simulated time the sample covers. */
    Cycles epoch_cycles = 0;

    double
    abortRate() const
    {
        const u64 total = commits + aborts;
        return total == 0 ? 0.0
                          : static_cast<double>(aborts) /
                                static_cast<double>(total);
    }

    /** Wasted cycles (backoff + lock waits) per committed tx.
     * All-waste epochs read as +inf. */
    double
    wastePerCommit() const
    {
        const double waste = static_cast<double>(backoff_cycles) +
                             static_cast<double>(lock_wait_cycles);
        if (commits == 0)
            return waste > 0 ? std::numeric_limits<double>::infinity()
                             : 0.0;
        return waste / static_cast<double>(commits);
    }

    /** Share of the epoch's available tasklet-cycles spent on backoff
     * and lock waits — the throttle signal. Unlike waste-per-commit,
     * it is insensitive to transaction size: a kind that commits
     * slowly but cleanly does not look contended. */
    double
    wasteShare(unsigned effective_tasklets) const
    {
        if (epoch_cycles == 0 || effective_tasklets == 0)
            return 0.0;
        const double waste = static_cast<double>(backoff_cycles) +
                             static_cast<double>(lock_wait_cycles);
        return waste / (static_cast<double>(epoch_cycles) *
                        static_cast<double>(effective_tasklets));
    }

    /** Commits per 1000 simulated cycles — the score used by both the
     * kind policy and the backoff probe-and-revert check. */
    double
    commitRate() const
    {
        return epoch_cycles == 0
            ? 0.0
            : 1000.0 * static_cast<double>(commits) /
                  static_cast<double>(epoch_cycles);
    }
};

/** What the controller did at an epoch boundary. */
enum class AdaptiveAction : u8
{
    None = 0,
    ThrottleDown,  ///< lower the tasklet limit (value = new limit)
    ThrottleUp,    ///< raise it (value = new limit, 0 = off)
    EnableCmWait,  ///< turn on wait-on-contention (value = polls)
    DisableCmWait, ///< back to abort-immediately
    RaiseBackoff,  ///< double the backoff base (value = new base)
    LowerBackoff,  ///< back to the configured base (value = base)
    Migrate,       ///< hot-lock migration (value = promotions)
    SwitchKind,    ///< live STM-kind switch (value = StmKind)
};

const char *adaptiveActionName(AdaptiveAction a);

/** One controller decision, timestamped for the timeline. */
struct AdaptiveDecision
{
    unsigned epoch = 0;
    Cycles cycle = 0;
    AdaptiveAction action = AdaptiveAction::None;
    /** Action-specific operand (new limit / polls / base / kind). */
    double value = 0;
    /** The signal that triggered it (waste-per-commit, abort rate,
     * score ratio, demotion count — action-specific). */
    double metric = 0;
};

/**
 * The controller's decision state. Kept separate from the actuation
 * wrapper so the policy is a pure function of (state, sample, spec) —
 * unit-testable on synthetic counter streams with no simulator.
 */
struct ControllerState
{
    unsigned num_tasklets = 0;

    /** @{ Actuator shadows (what the controller believes is set). */
    unsigned tasklet_limit = 0; // 0 = off
    unsigned cm_wait_polls = 0;
    Cycles backoff_base = 16;
    unsigned backoff_max_shift = 12;
    /** @} */

    /** The relax target of LowerBackoff. */
    Cycles default_backoff_base = 16;

    /** @{ Probe-and-revert for the contention ladder (EnableCmWait,
     * RaiseBackoff): each step is a bet that waiting beats retrying;
     * the next epoch's commit rate settles it. A step that does not
     * improve the rate is reverted and the ladder is held off until
     * the pressure episode ends. */
    bool cm_probe = false;
    bool backoff_probe = false;
    bool backoff_hold = false;
    double pre_raise_rate = 0;
    /** @} */

    /** @{ Probe-and-revert for ThrottleDown, same shape: parking
     * tasklets must raise the commit rate, else concurrency was not
     * the problem (NOrec commits through contention that would drown
     * a lock-based kind). */
    bool throttle_probe = false;
    bool throttle_hold = false;
    unsigned pre_throttle_limit = 0;
    double pre_throttle_rate = 0;
    /** @} */

    /** @{ Hysteresis streaks. */
    unsigned high_streak = 0;     // waste above throttle_high
    unsigned low_streak = 0;      // waste below throttle_low
    unsigned pressure_streak = 0; // abort rate above 0.5
    unsigned calm_streak = 0;     // abort rate below 0.05
    /** @} */

    /** @{ Kind policy: explore-then-commit over EWMA scores (commits
     * per 1000 cycles). kind_best remembers each kind's high-water
     * mark; a collapse of the current kind's score below
     * reexplore_ratio x its best restarts exploration. */
    std::array<double, core::kNumStmKinds> kind_score{};
    std::array<double, core::kNumStmKinds> kind_best{};
    std::array<bool, core::kNumStmKinds> kind_tried{};
    core::StmKind current_kind = core::StmKind::NOrec;
    unsigned cooldown = 0;
    /** @} */

    unsigned epoch = 0;
};

/** Decision log of one run, surfaced as the `adaptive` perf-json
 * block and by the --adaptive-timeline of scripts/trace_report.py. */
struct AdaptiveReport
{
    unsigned epochs = 0;
    std::vector<AdaptiveDecision> decisions;
    core::StmKind final_kind = core::StmKind::NOrec;
    unsigned final_tasklet_limit = 0;
    u64 promotions = 0;
    u64 demotions = 0;
};

/**
 * The actuation wrapper: binds the pure policy to a live Stm/Dpu.
 * Wire it up as `dpu.setEpochHook(spec.epoch_cycles, [&]{ c.onEpoch(); })`.
 * The hook only reads host-side counters and mutates host-side knobs;
 * all simulated costs of its decisions are charged where they land
 * (park polls, lazy migration settlement, quiesce switch translation).
 */
class AdaptiveController
{
  public:
    AdaptiveController(core::Stm &stm, sim::Dpu &dpu,
                       const AdaptiveSpec &spec);

    /** Epoch-hook body: sample deltas, decide, actuate, log. */
    void onEpoch();

    /** Decision log (stable across calls; shared for RunResult). */
    std::shared_ptr<AdaptiveReport> report();

    /**
     * The pure policy: consume one sample, mutate @p st, return the
     * actions to apply. @p spec.kind_candidates must already contain
     * st.current_kind (the constructor copies the STM's list, which
     * leads with the running kind).
     */
    static std::vector<AdaptiveDecision> decide(ControllerState &st,
                                                const EpochSample &s,
                                                const AdaptiveSpec &spec);

    /**
     * The pure migration policy: given per-entry heat deltas and the
     * controller's hot-set model (@p hot_flags, 1 = hot, mutated to the
     * new set), pick promotions (heat >= min_heat, hottest first) and
     * the demotions needed to stay within @p capacity (coldest hot
     * entries evicted only when a hotter candidate needs the slot).
     */
    static void pickMigrations(const std::vector<u32> &heat_delta,
                               std::vector<u8> &hot_flags, u32 capacity,
                               u32 min_heat, std::vector<u32> &promote,
                               std::vector<u32> &demote);

  private:
    void apply(const AdaptiveDecision &d);

    core::Stm &stm_;
    sim::Dpu &dpu_;
    AdaptiveSpec spec_;
    ControllerState state_;

    /** Last-epoch snapshots for delta computation. */
    core::StmStats last_stats_;
    Cycles last_cycle_ = 0;
    std::vector<u32> last_heat_;
    std::vector<u8> hot_flags_;

    std::shared_ptr<AdaptiveReport> report_;
};

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_ADAPTIVE_HH
