/**
 * @file
 * Ablation A6: the online epoch feedback controller vs static
 * configurations (docs/adaptive.md). Sweeps every STM kind over the
 * tasklet series with the controller off (static) and on (adaptive,
 * tuning backoff/CM, the tasklet throttle and hot-lock migration), on
 * one phased workload whose contention regime changes mid-run and on
 * two stable ArrayBench workloads.
 *
 * --check asserts the acceptance gates: the best adaptive point must
 * be at least as good as the best static point on the phased workload
 * (no static configuration is right for all three phases; the
 * controller re-tunes at phase boundaries), and within 2% of the best
 * static point on every stable workload (the controller must not
 * hurt workloads that need no adaptation).
 *
 * A separate single run with live STM-kind switching enabled records
 * the controller's decision timeline; --perf-json surfaces it as the
 * deterministic `adaptive` block (exact-match gated by
 * scripts/check_perf_json.py against BENCH_sim.adaptive.json).
 *
 * The common contention-knob flags --backoff=BASE:SHIFT and
 * --cm=POLLS:CYCLES (bench/common.hh KnobFlags) apply to the static
 * sweeps and set the controller's starting point.
 */

#include <sstream>

#include "bench/common.hh"
#include "runtime/adaptive.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

/** Best-throughput point of one (workload, mode) sweep. */
struct BestPoint
{
    double tput = 0;
    double abort_rate = 0;
    core::StmKind kind{};
    unsigned tasklets = 0;
};

/** Controller configuration used by the adaptive sweeps: every knob
 * except kind switching (no candidates; exercised by the timeline run
 * below, where a single deterministic run keeps the decision log
 * readable). */
runtime::AdaptiveSpec
sweepAdaptiveSpec(bool full)
{
    runtime::AdaptiveSpec a;
    a.enabled = true;
    a.epoch_cycles = full ? 200000 : 50000;
    return a;
}

/** Render an AdaptiveReport as the deterministic `adaptive` perf-json
 * block: simulated cycles and decisions only, no host time. */
std::string
reportJson(const runtime::AdaptiveReport &rep)
{
    std::ostringstream os;
    os << "{\n      \"epochs\": " << rep.epochs
       << ",\n      \"final_kind\": \""
       << core::stmKindName(rep.final_kind)
       << "\",\n      \"final_tasklet_limit\": "
       << rep.final_tasklet_limit
       << ",\n      \"promotions\": " << rep.promotions
       << ",\n      \"demotions\": " << rep.demotions
       << ",\n      \"decisions\": [";
    for (size_t i = 0; i < rep.decisions.size(); ++i) {
        const auto &d = rep.decisions[i];
        os << (i ? "," : "") << "\n        {\"epoch\": " << d.epoch
           << ", \"cycle\": " << d.cycle << ", \"action\": \""
           << runtime::adaptiveActionName(d.action)
           << "\", \"value\": " << d.value << "}";
    }
    os << (rep.decisions.empty() ? "]" : "\n      ]") << "\n    }";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            if (a == "--check") {
                check = true;
                return true;
            }
            return false;
        });

    return guardedMain([&] {
        const std::vector<unsigned> tasklet_series =
            opt.full ? std::vector<unsigned>{1, 2, 4, 8, 11, 16, 24}
                     : std::vector<unsigned>{1, 4, 8, 16};

        struct Case
        {
            const char *name;
            bool phased; ///< gated "adaptive >= best static"
            WorkloadFactory factory;
        };
        const std::vector<Case> cases = {
            {"Phased", true,
             [&] {
                 return std::make_unique<PhasedWorkload>(
                     opt.full ? PhasedParams::full()
                              : PhasedParams::quick());
             }},
            {"ArrayBench A", false,
             [&] {
                 return std::make_unique<ArrayBench>(
                     ArrayBenchParams::workloadA(opt.full ? 50 : 20));
             }},
            {"ArrayBench B", false,
             [&] {
                 return std::make_unique<ArrayBench>(
                     ArrayBenchParams::workloadB(opt.full ? 200 : 80));
             }},
        };

        Table table({"workload", "mode", "stm", "tasklets",
                     "tput_tx_per_s", "abort_rate"});
        // cases.size() x {static, adaptive}
        std::vector<std::array<BestPoint, 2>> best(cases.size());

        for (size_t c = 0; c < cases.size(); ++c) {
            for (const bool adaptive : {false, true}) {
                for (core::StmKind kind : core::allStmKinds()) {
                    for (const unsigned tasklets : tasklet_series) {
                        runtime::RunSpec base;
                        base.mram_bytes = 8 * 1024 * 1024;
                        opt.applyTo(base);
                        if (adaptive)
                            base.adaptive = sweepAdaptiveSpec(opt.full);
                        const auto pr = runPoint(
                            cases[c].factory, kind,
                            core::MetadataTier::Mram, tasklets,
                            opt.seeds, base);
                        if (!pr.runnable)
                            continue;
                        table.newRow()
                            .cell(cases[c].name)
                            .cell(adaptive ? "adaptive" : "static")
                            .cell(core::stmKindName(kind))
                            .cell(tasklets)
                            .cell(pr.throughput_mean, 1)
                            .cell(pr.abort_rate_mean, 4);
                        BestPoint &b = best[c][adaptive ? 1 : 0];
                        if (pr.throughput_mean > b.tput) {
                            b.tput = pr.throughput_mean;
                            b.abort_rate = pr.abort_rate_mean;
                            b.kind = kind;
                            b.tasklets = tasklets;
                        }
                    }
                }
            }
        }

        std::cout << "== Ablation A6  epoch feedback controller vs "
                     "static configs ==\n";
        if (opt.csv)
            table.printCsv(std::cout);
        else
            table.printText(std::cout);
        std::cout << "\n";
        for (size_t c = 0; c < cases.size(); ++c) {
            const BestPoint &s = best[c][0];
            const BestPoint &a = best[c][1];
            std::cout << cases[c].name << ": best static "
                      << core::stmKindName(s.kind) << "/t" << s.tasklets
                      << " " << s.tput << " tx/s (abort "
                      << s.abort_rate << "), best adaptive "
                      << core::stmKindName(a.kind) << "/t" << a.tasklets
                      << " " << a.tput << " tx/s (abort "
                      << a.abort_rate << "), ratio "
                      << (s.tput > 0 ? a.tput / s.tput : 0) << "x\n";
        }

        // Deterministic kind-switch timeline: one run of the phased
        // workload with every knob live, starting from NOrec with the
        // full word-based taxonomy spread as candidates. Its decision
        // log becomes the `adaptive` perf-json block.
        {
            auto wl = cases[0].factory();
            runtime::RunSpec spec;
            spec.mram_bytes = 8 * 1024 * 1024;
            opt.applyTo(spec);
            spec.kind = core::StmKind::NOrec;
            spec.tasklets = 16;
            spec.seed = 1;
            spec.adaptive = sweepAdaptiveSpec(opt.full);
            spec.adaptive.kind_candidates = {core::StmKind::NOrec,
                                             core::StmKind::TinyEtlWb,
                                             core::StmKind::VrEtlWb};
            const auto r = runtime::runWorkload(*wl, spec);
            std::cout << "\nKind-switch timeline (Phased, NOrec start, "
                      << r.adaptive->epochs << " epochs): final kind "
                      << core::stmKindName(r.adaptive->final_kind)
                      << ", " << r.adaptive->decisions.size()
                      << " decisions, " << r.stm.kind_switches
                      << " switches, " << r.stm.lock_migrations
                      << " migrations\n";
            if (PerfReporter::instance().enabled())
                PerfReporter::instance().setExtraBlock(
                    "adaptive", reportJson(*r.adaptive));
        }

        if (check) {
            int failures = 0;
            for (size_t c = 0; c < cases.size(); ++c) {
                const BestPoint &s = best[c][0];
                const BestPoint &a = best[c][1];
                if (cases[c].phased) {
                    if (a.tput < s.tput) {
                        std::cerr << "CHECK FAILED: " << cases[c].name
                                  << " adaptive best " << a.tput
                                  << " tx/s < static best " << s.tput
                                  << " tx/s\n";
                        ++failures;
                    }
                } else if (a.tput < 0.98 * s.tput) {
                    std::cerr << "CHECK FAILED: " << cases[c].name
                              << " adaptive best " << a.tput
                              << " tx/s < 0.98x static best " << s.tput
                              << " tx/s\n";
                    ++failures;
                }
            }
            if (failures)
                return 1;
            std::cout << "CHECK OK: adaptive >= best static on the "
                         "phased workload and within 2% of best "
                         "static on every stable workload\n";
        }
        return 0;
    });
}
