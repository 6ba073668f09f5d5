#include "runtime/adaptive.hh"

#include <algorithm>
#include <string>

#include "util/logging.hh"

namespace pimstm::runtime
{

namespace
{

std::string
candidateName(core::StmKind kind, core::MetadataTier tier)
{
    std::string s = core::stmKindName(kind);
    s += tier == core::MetadataTier::Wram ? " (WRAM)" : " (MRAM)";
    return s;
}

} // namespace

AdaptiveResult
adaptiveRun(const AdaptiveFactory &factory, const RunSpec &spec,
            const AdaptiveOptions &options)
{
    const std::vector<core::StmKind> &candidates =
        options.candidates.empty() ? core::allStmKinds()
                                   : options.candidates;
    std::vector<core::MetadataTier> tiers{spec.tier};
    if (options.probe_both_tiers) {
        tiers = {core::MetadataTier::Mram, core::MetadataTier::Wram};
    }

    AdaptiveResult result;
    double best = -1.0;
    bool any = false;

    // Probe all (tier, kind) candidates concurrently on the global
    // pool; the selection below walks the outcomes in candidate order,
    // so the chosen STM (and the probe-time sum, which is FP-order
    // sensitive) match the old serial loop exactly. Infeasible
    // configurations (e.g. WRAM metadata that does not fit) come back
    // as !ok and are skipped, like the paper.
    std::vector<RunSpec> probe_specs;
    for (const core::MetadataTier tier : tiers) {
        for (const core::StmKind kind : candidates) {
            RunSpec probe_spec = spec;
            probe_spec.kind = kind;
            probe_spec.tier = tier;
            probe_specs.push_back(probe_spec);
        }
    }
    const auto outcomes = runWorkloadMany(
        [&] { return factory(/*probe=*/true); }, probe_specs);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok)
            continue;
        const RunResult &r = outcomes[i].result;
        result.probe_seconds += r.seconds;
        result.probe_throughput[candidateName(probe_specs[i].kind,
                                              probe_specs[i].tier)] =
            r.throughput;
        if (r.throughput > best) {
            best = r.throughput;
            result.chosen_kind = probe_specs[i].kind;
            result.chosen_tier = probe_specs[i].tier;
            any = true;
        }
    }
    fatalIf(!any, "no STM candidate was runnable for this workload");

    RunSpec final_spec = spec;
    final_spec.kind = result.chosen_kind;
    final_spec.tier = result.chosen_tier;
    auto wl = factory(/*probe=*/false);
    result.final = runWorkload(*wl, final_spec);
    return result;
}

//
// Epoch feedback controller
//

const char *
adaptiveActionName(AdaptiveAction a)
{
    switch (a) {
      case AdaptiveAction::None: return "none";
      case AdaptiveAction::ThrottleDown: return "throttle-down";
      case AdaptiveAction::ThrottleUp: return "throttle-up";
      case AdaptiveAction::EnableCmWait: return "enable-cm-wait";
      case AdaptiveAction::DisableCmWait: return "disable-cm-wait";
      case AdaptiveAction::RaiseBackoff: return "raise-backoff";
      case AdaptiveAction::LowerBackoff: return "lower-backoff";
      case AdaptiveAction::Migrate: return "migrate";
      case AdaptiveAction::SwitchKind: return "switch-kind";
      default: return "?";
    }
}

namespace
{

size_t
kindIndex(core::StmKind k)
{
    return static_cast<size_t>(k);
}

/** Throttle policy: park surplus tasklets when the share of tasklet
 * cycles wasted on backoff and lock waits stays above the high
 * threshold, unpark when it stays below the low one (hysteresis band
 * between). */
void
decideThrottle(ControllerState &st, const EpochSample &s,
               const AdaptiveSpec &spec,
               std::vector<AdaptiveDecision> &out)
{
    const unsigned effective =
        st.tasklet_limit == 0 ? st.num_tasklets : st.tasklet_limit;

    // Safety valve: a throttled epoch with zero commits means the
    // runnable tasklets are stuck behind the parked ones (e.g. a
    // barrier) — lift the throttle entirely, at once.
    if (st.tasklet_limit != 0 && s.commits == 0) {
        st.tasklet_limit = 0;
        st.high_streak = st.low_streak = 0;
        st.throttle_probe = false;
        out.push_back({st.epoch, 0, AdaptiveAction::ThrottleUp, 0.0,
                       s.wasteShare(effective)});
        return;
    }

    // Settle last epoch's throttle-down: parking must have bought
    // commit rate, else revert and hold off for this episode.
    if (st.throttle_probe) {
        st.throttle_probe = false;
        if (s.commitRate() < 1.05 * st.pre_throttle_rate) {
            st.tasklet_limit = st.pre_throttle_limit;
            st.throttle_hold = true;
            st.high_streak = st.low_streak = 0;
            out.push_back({st.epoch, 0, AdaptiveAction::ThrottleUp,
                           static_cast<double>(st.pre_throttle_limit),
                           st.pre_throttle_rate > 0
                               ? s.commitRate() / st.pre_throttle_rate
                               : 0.0});
            return;
        }
    }

    const double waste = s.wasteShare(effective);
    if (waste > spec.throttle_high) {
        ++st.high_streak;
        st.low_streak = 0;
        if (!st.throttle_hold &&
            st.high_streak >= spec.hysteresis_epochs &&
            effective > spec.min_tasklets) {
            const unsigned next =
                std::max(spec.min_tasklets, effective * 2 / 3);
            st.throttle_probe = true;
            st.pre_throttle_limit = st.tasklet_limit;
            st.pre_throttle_rate = s.commitRate();
            st.tasklet_limit = next;
            st.high_streak = 0;
            out.push_back({st.epoch, 0, AdaptiveAction::ThrottleDown,
                           static_cast<double>(next), waste});
        }
    } else if (waste < spec.throttle_low) {
        ++st.low_streak;
        st.high_streak = 0;
        st.throttle_hold = false; // pressure episode over
        if (st.low_streak >= spec.hysteresis_epochs &&
            st.tasklet_limit != 0) {
            // Multiplicative recovery: symmetric with the 2/3 cut and
            // fast enough that a passed phase does not linger (a +1
            // ramp would hold 14 tasklets parked for ~28 epochs).
            unsigned next = effective * 2;
            if (next >= st.num_tasklets)
                next = 0; // fully unparked: throttle off
            st.tasklet_limit = next;
            st.low_streak = 0;
            out.push_back({st.epoch, 0, AdaptiveAction::ThrottleUp,
                           static_cast<double>(next), waste});
        }
    } else {
        st.high_streak = st.low_streak = 0;
    }
}

/** Backoff / contention-manager policy: under sustained conflict
 * pressure, first wait on held locks instead of aborting, then raise
 * the backoff floor (the window ceiling stays put — see apply()).
 * Every raise is a probe: if the next epoch's commit rate drops, it
 * is reverted and raises are held off until the pressure episode
 * ends. Relax step by step when pressure is gone. */
void
decideBackoff(ControllerState &st, const EpochSample &s,
              const AdaptiveSpec &spec,
              std::vector<AdaptiveDecision> &out)
{
    const double rate = s.abortRate();
    const double waste = static_cast<double>(s.backoff_cycles) +
                         static_cast<double>(s.lock_wait_cycles);
    const bool backoff_dominated =
        waste > 0 && static_cast<double>(s.backoff_cycles) >= waste * 0.5;

    // Settle last epoch's ladder step: waiting must have bought
    // commit rate, else retrying was the better use of those cycles.
    if (st.cm_probe) {
        st.cm_probe = false;
        if (s.commitRate() < 1.02 * st.pre_raise_rate) {
            st.cm_wait_polls = 0;
            st.backoff_hold = true;
            out.push_back({st.epoch, 0, AdaptiveAction::DisableCmWait,
                           0.0,
                           st.pre_raise_rate > 0
                               ? s.commitRate() / st.pre_raise_rate
                               : 0.0});
        }
    }
    if (st.backoff_probe) {
        st.backoff_probe = false;
        if (s.commitRate() < 1.02 * st.pre_raise_rate) {
            st.backoff_base = st.default_backoff_base;
            st.backoff_hold = true;
            out.push_back({st.epoch, 0, AdaptiveAction::LowerBackoff,
                           static_cast<double>(st.backoff_base),
                           st.pre_raise_rate > 0
                               ? s.commitRate() / st.pre_raise_rate
                               : 0.0});
        }
    }

    if (rate > 0.5) {
        ++st.pressure_streak;
        st.calm_streak = 0;
        if (st.pressure_streak >= spec.hysteresis_epochs &&
            !st.backoff_hold) {
            st.pressure_streak = 0;
            if (st.cm_wait_polls == 0) {
                st.cm_wait_polls = spec.cm_polls;
                st.cm_probe = true;
                st.pre_raise_rate = s.commitRate();
                out.push_back({st.epoch, 0, AdaptiveAction::EnableCmWait,
                               static_cast<double>(spec.cm_polls), rate});
            } else if (backoff_dominated &&
                       st.backoff_base < spec.backoff_base_max) {
                st.backoff_base = std::min<Cycles>(
                    st.backoff_base * 2, spec.backoff_base_max);
                st.backoff_probe = true;
                st.pre_raise_rate = s.commitRate();
                out.push_back({st.epoch, 0, AdaptiveAction::RaiseBackoff,
                               static_cast<double>(st.backoff_base),
                               rate});
            }
        }
    } else if (rate < 0.05) {
        ++st.calm_streak;
        st.pressure_streak = 0;
        if (st.calm_streak >= spec.hysteresis_epochs) {
            st.calm_streak = 0;
            st.backoff_hold = false; // pressure episode over
            if (st.backoff_base != st.default_backoff_base) {
                st.backoff_base = st.default_backoff_base;
                out.push_back({st.epoch, 0, AdaptiveAction::LowerBackoff,
                               static_cast<double>(st.backoff_base),
                               rate});
            } else if (st.cm_wait_polls != 0) {
                st.cm_wait_polls = 0;
                out.push_back({st.epoch, 0,
                               AdaptiveAction::DisableCmWait, 0.0, rate});
            }
        }
    } else {
        st.pressure_streak = st.calm_streak = 0;
    }
}

/** Kind policy: explore-then-commit. Score each kind by EWMA commits
 * per 1000 cycles; visit untried candidates once, then settle on the
 * best; a collapse of the incumbent's score restarts exploration
 * (phase-change detection). */
void
decideKind(ControllerState &st, const EpochSample &s,
           const AdaptiveSpec &spec, std::vector<AdaptiveDecision> &out)
{
    if (spec.kind_candidates.size() < 2)
        return;
    const auto cur_it =
        std::find(spec.kind_candidates.begin(),
                  spec.kind_candidates.end(), st.current_kind);
    if (cur_it == spec.kind_candidates.end())
        return;
    const size_t cur = kindIndex(st.current_kind);

    const double score = s.commitRate();
    st.kind_score[cur] = st.kind_tried[cur]
        ? 0.5 * st.kind_score[cur] + 0.5 * score
        : score;
    st.kind_tried[cur] = true;
    st.kind_best[cur] = std::max(st.kind_best[cur], st.kind_score[cur]);

    if (st.cooldown > 0) {
        --st.cooldown;
        return;
    }

    // Phase change: the incumbent used to do much better than now —
    // what we learned about the other kinds is stale too, so re-probe.
    if (st.kind_best[cur] > 0 &&
        st.kind_score[cur] < spec.reexplore_ratio * st.kind_best[cur]) {
        for (core::StmKind k : spec.kind_candidates) {
            if (k != st.current_kind)
                st.kind_tried[kindIndex(k)] = false;
        }
        st.kind_best[cur] = st.kind_score[cur];
    }

    // Explore: give every untried candidate one scored epoch.
    for (core::StmKind k : spec.kind_candidates) {
        if (st.kind_tried[kindIndex(k)])
            continue;
        st.current_kind = k;
        st.cooldown = 1; // let it run a full epoch before judging
        out.push_back({st.epoch, 0, AdaptiveAction::SwitchKind,
                       static_cast<double>(kindIndex(k)),
                       st.kind_score[cur]});
        return;
    }

    // Commit: switch to the best-scoring candidate when it beats the
    // incumbent by the margin.
    size_t best = cur;
    for (core::StmKind k : spec.kind_candidates) {
        if (st.kind_score[kindIndex(k)] > st.kind_score[best])
            best = kindIndex(k);
    }
    if (best != cur &&
        st.kind_score[best] >
            st.kind_score[cur] * (1.0 + spec.kind_switch_margin)) {
        st.current_kind = static_cast<core::StmKind>(best);
        st.cooldown = spec.kind_cooldown_epochs;
        out.push_back({st.epoch, 0, AdaptiveAction::SwitchKind,
                       static_cast<double>(best),
                       st.kind_score[cur] > 0
                           ? st.kind_score[best] / st.kind_score[cur]
                           : 0.0});
    }
}

} // namespace

std::vector<AdaptiveDecision>
AdaptiveController::decide(ControllerState &st, const EpochSample &s,
                           const AdaptiveSpec &spec)
{
    ++st.epoch;
    std::vector<AdaptiveDecision> out;
    if (spec.tune_throttle)
        decideThrottle(st, s, spec, out);
    if (spec.tune_backoff)
        decideBackoff(st, s, spec, out);
    decideKind(st, s, spec, out);
    return out;
}

void
AdaptiveController::pickMigrations(const std::vector<u32> &heat_delta,
                                   std::vector<u8> &hot_flags,
                                   u32 capacity, u32 min_heat,
                                   std::vector<u32> &promote,
                                   std::vector<u32> &demote)
{
    promote.clear();
    demote.clear();
    if (capacity == 0 || heat_delta.empty())
        return;
    if (hot_flags.size() < heat_delta.size())
        hot_flags.resize(heat_delta.size(), 0);

    // Promotion candidates: cold entries hot enough this epoch,
    // hottest first (index ascending on ties, for determinism).
    std::vector<std::pair<u32, u32>> cands; // (heat, index)
    std::vector<std::pair<u32, u32>> hot;   // (heat, index), current set
    for (u32 i = 0; i < heat_delta.size(); ++i) {
        if (hot_flags[i])
            hot.push_back({heat_delta[i], i});
        else if (heat_delta[i] >= min_heat)
            cands.push_back({heat_delta[i], i});
    }
    std::sort(cands.begin(), cands.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first
                                  : a.second < b.second;
    });
    // Current set coldest-first: those are the eviction victims.
    std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first < b.first
                                  : a.second > b.second;
    });

    size_t victim = 0;
    u32 free = capacity > hot.size()
        ? capacity - static_cast<u32>(hot.size())
        : 0;
    for (const auto &[heat, idx] : cands) {
        if (free > 0) {
            --free;
        } else if (victim < hot.size() && hot[victim].first < heat) {
            // Evict the coldest hot entry to make room.
            demote.push_back(hot[victim].second);
            hot_flags[hot[victim].second] = 0;
            ++victim;
        } else {
            break; // candidates are sorted: nothing else fits either
        }
        promote.push_back(idx);
        hot_flags[idx] = 1;
    }
}

AdaptiveController::AdaptiveController(core::Stm &stm, sim::Dpu &dpu,
                                       const AdaptiveSpec &spec)
    : stm_(stm), dpu_(dpu), spec_(spec),
      report_(std::make_shared<AdaptiveReport>())
{
    // The STM's candidate list, running kind first, is what a switch
    // request can reach.
    spec_.kind_candidates = stm.candidates();

    const core::StmConfig &cfg = stm.config();
    state_.num_tasklets = cfg.num_tasklets;
    state_.cm_wait_polls = cfg.cm_wait_polls;
    state_.backoff_base = cfg.abort_backoff ? cfg.abort_backoff_base : 0;
    state_.backoff_max_shift = cfg.abort_backoff_max_shift;
    state_.default_backoff_base = state_.backoff_base;
    state_.current_kind = stm.kind();
    report_->final_kind = stm.kind();
}

std::shared_ptr<AdaptiveReport>
AdaptiveController::report()
{
    report_->final_kind = state_.current_kind;
    report_->final_tasklet_limit = state_.tasklet_limit;
    return report_;
}

void
AdaptiveController::apply(const AdaptiveDecision &d)
{
    switch (d.action) {
      case AdaptiveAction::ThrottleDown:
      case AdaptiveAction::ThrottleUp:
        stm_.setTaskletLimit(static_cast<unsigned>(d.value));
        break;
      case AdaptiveAction::EnableCmWait:
        stm_.setCmWaitPolls(static_cast<unsigned>(d.value));
        break;
      case AdaptiveAction::DisableCmWait:
        stm_.setCmWaitPolls(0);
        break;
      case AdaptiveAction::RaiseBackoff:
      case AdaptiveAction::LowerBackoff: {
        // A raised base lifts the window floor, not its ceiling:
        // shrink the shift so base << shift stays at the configured
        // maximum (16 << 12 would become a 1M-cycle window at base
        // 256 otherwise, and makespan pays for every sleep).
        const auto base = static_cast<Cycles>(d.value);
        unsigned shift = state_.backoff_max_shift;
        for (Cycles b = state_.default_backoff_base;
             b < base && shift > 0; b <<= 1)
            --shift;
        stm_.setBackoffParams(base, shift);
        break;
      }
      case AdaptiveAction::SwitchKind:
        stm_.requestKindSwitch(
            static_cast<core::StmKind>(static_cast<int>(d.value)));
        break;
      default:
        break;
    }
}

void
AdaptiveController::onEpoch()
{
    const core::StmStats &agg = stm_.stats();

    EpochSample s;
    s.commits = agg.commits - last_stats_.commits;
    s.aborts = agg.aborts - last_stats_.aborts;
    for (size_t r = 0; r < core::kNumAbortReasons; ++r)
        s.abort_reasons[r] =
            agg.abort_reasons[r] - last_stats_.abort_reasons[r];
    s.lock_waits = agg.lock_waits - last_stats_.lock_waits;
    s.lock_wait_cycles =
        agg.lock_wait_cycles - last_stats_.lock_wait_cycles;
    s.backoff_cycles = agg.backoff_cycles - last_stats_.backoff_cycles;
    s.park_polls = agg.park_polls - last_stats_.park_polls;
    s.epoch_cycles = dpu_.now() - last_cycle_;
    last_stats_ = agg;
    last_cycle_ = dpu_.now();

    ++report_->epochs;

    // Hot-lock migration works on per-entry heat deltas, outside the
    // pure policy (the heat vector can be large; everything else is a
    // fixed-size sample).
    if (stm_.hotLockCapacity() != 0) {
        const std::vector<u32> &heat = stm_.lockHeat();
        std::vector<u32> delta(heat.size(), 0);
        for (size_t i = 0; i < heat.size(); ++i) {
            const u32 prev = i < last_heat_.size() ? last_heat_[i] : 0;
            delta[i] = heat[i] - prev;
        }
        last_heat_ = heat;
        std::vector<u32> promote, demote;
        pickMigrations(delta, hot_flags_, stm_.hotLockCapacity(),
                       spec_.min_heat, promote, demote);
        if (!promote.empty() || !demote.empty()) {
            stm_.migrateLocks(promote, demote);
            report_->promotions += promote.size();
            report_->demotions += demote.size();
            report_->decisions.push_back(
                {state_.epoch + 1, dpu_.now(), AdaptiveAction::Migrate,
                 static_cast<double>(promote.size()),
                 static_cast<double>(demote.size())});
        }
    }

    std::vector<AdaptiveDecision> decisions = decide(state_, s, spec_);
    for (AdaptiveDecision &d : decisions) {
        d.cycle = dpu_.now();
        apply(d);
        report_->decisions.push_back(d);
    }
}

} // namespace pimstm::runtime
