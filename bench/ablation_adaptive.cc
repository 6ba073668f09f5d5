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
 * --cm=POLLS:CYCLES (bench/common.hh BenchOptions) apply to the static
 * sweeps and set the controller's starting point.
 */

#include <sstream>

#include "bench/common.hh"
#include "runtime/adaptive.hh"
#include "runtime/shared_array.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

/** Parameters shaping a PhasedWorkload instance. */
struct PhasedParams
{
    /** Words in the large read/scan region. */
    u32 large_words = 8192;
    /** Words in the tiny contended RMW region. */
    u32 hot_words = 8;

    /** @{ Phase 1 — read-heavy, low contention. */
    u32 read_txs = 40;  ///< transactions per tasklet
    u32 read_ops = 40;  ///< random reads per transaction
    /** @} */

    /** @{ Phase 2 — high-contention writes on the hot region. */
    u32 write_txs = 120;
    u32 rmw_ops = 4;
    /** @} */

    /** @{ Phase 3 — scans with sparse updates: long read sets plus a
     * few random-word RMWs. The writers make this the regime where
     * value-validation STMs (NOrec) revalidate whole scans per
     * concurrent commit while per-word-lock kinds are untouched. */
    u32 scan_txs = 16;
    u32 scan_ops = 128;
    u32 scan_rmw = 2;
    /** @} */

    static PhasedParams
    quick()
    {
        return {};
    }

    static PhasedParams
    full()
    {
        PhasedParams p;
        p.read_txs = 120;
        p.write_txs = 400;
        p.scan_txs = 40;
        return p;
    }

    u32 totalWords() const { return large_words + hot_words; }
};

/**
 * The phased workload of this ablation: each tasklet
 * runs three back-to-back phases whose contention regimes differ —
 * read-heavy random reads over a large region, then tiny
 * read-modify-write transactions on a hot region (high contention),
 * then long scans with sparse random-word updates. No single static
 * configuration is right for all three, which is what the epoch
 * controller exploits (docs/adaptive.md).
 *
 * Invariant: every write is a +1 RMW on some word, so
 *     sum(array) == phase-2 commits x rmw_ops
 *                 + phase-3 commits x scan_rmw.
 */
class PhasedWorkload : public runtime::Workload
{
  public:
    explicit PhasedWorkload(const PhasedParams &params)
        : params_(params)
    {}

    const char *name() const override { return "Phased"; }

    void
    configure(core::StmConfig &cfg) const override
    {
        cfg.max_read_set =
            std::max({params_.read_ops,
                      params_.scan_ops + params_.scan_rmw,
                      params_.rmw_ops}) +
            8;
        cfg.max_write_set =
            std::max(params_.rmw_ops, params_.scan_rmw) + 8;
        cfg.data_words_hint = params_.totalWords();
    }

    void
    setup(sim::Dpu &dpu, core::Stm &) override
    {
        array_ = runtime::SharedArray32(dpu, sim::Tier::Mram,
                                        params_.totalWords());
        array_.fill(dpu, 0);
        rmw_commits_ = 0;
        scan_commits_ = 0;
    }

    void
    tasklet(sim::DpuContext &ctx, core::Stm &stm) override
    {
        // Phase 1: read-heavy over the large region.
        for (u32 t = 0; t < params_.read_txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                for (u32 i = 0; i < params_.read_ops; ++i) {
                    const u32 idx = static_cast<u32>(
                        ctx.rng().below(params_.large_words));
                    tx.read(array_.at(idx));
                }
            });
        }
        // Phase 2: contended RMWs on the hot region.
        for (u32 t = 0; t < params_.write_txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                for (u32 i = 0; i < params_.rmw_ops; ++i) {
                    const u32 idx = params_.large_words +
                        static_cast<u32>(
                            ctx.rng().below(params_.hot_words));
                    const u32 v = tx.read(array_.at(idx));
                    tx.write(array_.at(idx), v + 1);
                }
            });
            // Tasklets are fibers of one simulated DPU: no host race.
            ++rmw_commits_;
        }
        // Phase 3: long scans with a few sparse random-word updates —
        // the concurrent writers force value-validation kinds to
        // revalidate whole scans while per-word locks see no conflict.
        for (u32 t = 0; t < params_.scan_txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                const u32 span = params_.large_words > params_.scan_ops
                    ? params_.large_words - params_.scan_ops
                    : 1;
                const u32 start =
                    static_cast<u32>(ctx.rng().below(span));
                for (u32 i = 0; i < params_.scan_ops; ++i)
                    tx.read(array_.at(start + i));
                for (u32 i = 0; i < params_.scan_rmw; ++i) {
                    const u32 idx = static_cast<u32>(
                        ctx.rng().below(params_.large_words));
                    const u32 v = tx.read(array_.at(idx));
                    tx.write(array_.at(idx), v + 1);
                }
            });
            ++scan_commits_;
        }
    }

    void
    verify(sim::Dpu &dpu, core::Stm &) override
    {
        u64 sum = 0;
        for (u32 i = 0; i < params_.totalWords(); ++i)
            sum += array_.peek(dpu, i);
        const u64 expected =
            rmw_commits_ * static_cast<u64>(params_.rmw_ops) +
            scan_commits_ * static_cast<u64>(params_.scan_rmw);
        fatalIf(sum != expected, "PhasedWorkload invariant broken: sum ",
                sum, " != committed RMW count ", expected);
    }

  private:
    PhasedParams params_;
    runtime::SharedArray32 array_;
    u64 rmw_commits_ = 0;
    u64 scan_commits_ = 0;
};

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
                        runtime::RunSpec base = opt.run;
                        base.mram_bytes = 8 * 1024 * 1024;
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
            runtime::RunSpec spec = opt.run;
            spec.mram_bytes = 8 * 1024 * 1024;
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
