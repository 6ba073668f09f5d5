#include "paper_sweep.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <tuple>

#include "core/stm.hh"
#include "runtime/dpu_pool.hh"
#include "runtime/driver.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/linkedlist.hh"

namespace perfbench
{

using pimstm::core::MetadataTier;
using pimstm::core::StmKind;
using pimstm::runtime::Workload;

namespace
{

/**
 * Forwards to a sweep workload, timing its set-up and verification as
 * child spans of runWorkload. Also remembers whether set-up ran: a
 * FatalError before it is the paper's designed "WRAM metadata does not
 * fit" case, anything else is a failed point.
 */
class TimedWorkload final : public Workload
{
  public:
    TimedWorkload(std::unique_ptr<Workload> inner, Spans &spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    const char *name() const override { return inner_->name(); }

    void
    configure(pimstm::core::StmConfig &cfg) const override
    {
        inner_->configure(cfg);
    }

    void
    setup(pimstm::sim::Dpu &dpu, pimstm::core::Stm &stm) override
    {
        SpanScope span(spans_, kSpanWorkloadSetup);
        setup_ran_ = true;
        inner_->setup(dpu, stm);
    }

    void
    tasklet(pimstm::sim::DpuContext &ctx, pimstm::core::Stm &stm) override
    {
        inner_->tasklet(ctx, stm);
    }

    void
    verify(pimstm::sim::Dpu &dpu, pimstm::core::Stm &stm) override
    {
        SpanScope span(spans_, kSpanWorkloadVerify);
        inner_->verify(dpu, stm);
    }

    u64 appOps() const override { return inner_->appOps(); }

    bool setupRan() const { return setup_ran_; }

  private:
    std::unique_ptr<Workload> inner_;
    Spans &spans_;
    bool setup_ran_ = false;
};

/** fig6_summary's workload set at its --quick sizes. */
std::vector<pimstm::runtime::WorkloadFactory>
sweepWorkloads()
{
    using namespace pimstm::workloads;
    return {
        [] { return std::make_unique<ArrayBench>(ArrayBenchParams::workloadA(6)); },
        [] { return std::make_unique<ArrayBench>(ArrayBenchParams::workloadB(80)); },
        [] { return std::make_unique<LinkedList>(LinkedListParams::lowContention(30)); },
        [] { return std::make_unique<LinkedList>(LinkedListParams::highContention(30)); },
        [] { return std::make_unique<KMeans>(KMeansParams::lowContention(6)); },
        [] { return std::make_unique<KMeans>(KMeansParams::highContention(6)); },
    };
}

constexpr unsigned kTasklets[] = {1, 2, 4, 8, 11, 16};
/**
 * The closed loop's fixed low and high loads, in tasklets. Low is 2,
 * the lightest load at which tasklets contend: a single tasklet never
 * conflicts, and for KMeans its latency does not depend on the seed.
 */
constexpr unsigned kLowLoad = 2;
constexpr unsigned kHighLoad = 16;
/** Seed replicas per point, as fig6_summary runs by default (seed,
 * seed + 7919, seed + 2 * 7919). Averaging them also averages the
 * abort storms whose host cost swings most with the seed. */
constexpr unsigned kReplicas = 3;
/** Set-up repetitions per pass (setup_s is their median). */
constexpr unsigned kSetupRepeats = 9;
/** Simulated MRAM per DPU, as fig6_summary. */
constexpr u64 kSweepMramBytes = 8 * 1024 * 1024;
/** Points that must lie beyond a reported percentile. */
constexpr size_t kPointsBeyond = 10;

/** One point's mean simulated latency and the transactions it covers. */
struct PointLatency
{
    double latency_s = 0.0;
    u64 commits = 0;
};

/**
 * Percentile num/den of the transaction-weighted distribution of
 * per-point mean latency: each committed transaction counts once, at
 * its point's mean. Latency is observed per point, not per
 * transaction, so the rank is capped to leave at least kPointsBeyond
 * points beyond it.
 */
Metric
latencyMetric(const std::string &name, std::vector<PointLatency> pts,
              u64 num, u64 den)
{
    std::sort(pts.begin(), pts.end(),
              [](const PointLatency &a, const PointLatency &b) {
                  return a.latency_s < b.latency_s;
              });
    u64 total = 0;
    for (const PointLatency &p : pts)
        total += p.commits;
    u64 tail = 0;
    for (size_t i = pts.size() > kPointsBeyond ? pts.size() - kPointsBeyond : 0;
         i < pts.size(); ++i)
        tail += pts[i].commits;
    const u64 rank = std::min(std::max<u64>(1, (total * num + den - 1) / den),
                              std::max<u64>(1, total - tail));
    u64 seen = 0;
    size_t at = 0;
    for (; at < pts.size(); ++at) {
        seen += pts[at].commits;
        if (seen >= rank)
            break;
    }
    const double value = at < pts.size() ? pts[at].latency_s * 1e6 : 0.0;
    return {name, value, "us",
            "tx-weighted: n=" + std::to_string(total) + " tx in "
                + std::to_string(pts.size()) + " points, "
                + std::to_string(pts.size() - std::min(at + 1, pts.size()))
                + " points beyond"};
}

/** One runWorkload call of the sweep. */
struct Run
{
    MetadataTier tier;
    size_t workload; ///< index into sweepWorkloads()
    StmKind kind;
    unsigned tasklets;
    u64 seed;
    std::unique_ptr<TimedWorkload> wl;
};

/** Every run of a pass, in fig6_summary's order: metadata tier,
 * workload, STM, tasklets, replica. */
std::vector<Run>
sweepRuns(u64 seed, Spans &spans)
{
    const auto factories = sweepWorkloads();
    std::vector<Run> runs;
    for (MetadataTier tier : {MetadataTier::Mram, MetadataTier::Wram})
        for (size_t w = 0; w < factories.size(); ++w)
            for (StmKind kind : pimstm::core::allStmKinds())
                for (unsigned t : kTasklets)
                    for (unsigned r = 0; r < kReplicas; ++r)
                        runs.push_back({tier, w, kind, t, seed + r * 7919,
                                        std::make_unique<TimedWorkload>(
                                            factories[w](), spans)});
    return runs;
}

enum class Outcome
{
    Ran,
    NotRunnable, ///< the designed "WRAM metadata does not fit" case
    Failed,
};

/** One runWorkload call; on failure @p error says why. */
Outcome
execute(Run &run, Spans &spans, pimstm::runtime::RunResult &r,
        std::string &error)
{
    pimstm::runtime::RunSpec spec;
    spec.mram_bytes = kSweepMramBytes;
    spec.kind = run.kind;
    spec.tier = run.tier;
    spec.tasklets = run.tasklets;
    spec.seed = run.seed;
    try {
        SpanScope span(spans, kSpanRunWorkload);
        r = pimstm::runtime::runWorkload(*run.wl, spec);
    } catch (const std::exception &e) {
        if (dynamic_cast<const pimstm::FatalError *>(&e)
            && !run.wl->setupRan() && run.tier == MetadataTier::Wram)
            return Outcome::NotRunnable;
        error = std::string(run.wl->name()) + ": " + e.what();
        return Outcome::Failed;
    }
    return Outcome::Ran;
}

/** A run's simulated outcome, for the repeat check. */
u64
fingerprint(const pimstm::runtime::RunResult &r)
{
    return pimstm::deriveSeed(r.dpu.total_cycles, r.stm.commits,
                              r.stm.aborts ^ (r.dpu.sched_switches << 20));
}

} // namespace

PassResult
runPaperSweepPass(u64 seed, Spans &spans)
{
    PassResult p;
    // Set-up: every run's problem instance, then the DPU pool emptied
    // and warmed up again by one run of each workload and metadata tier
    // (the first STM at kLowLoad tasklets), which materializes a DPU's
    // memory as the sweep's own runs do. It is repeated and the median
    // reported; the last repetition's instances are the ones run. The
    // warm-up runs are untimed repeats of sweep runs: each must match
    // its repeat in the timed phase exactly.
    const size_t per_workload =
        pimstm::core::allStmKinds().size() * std::size(kTasklets) * kReplicas;
    static_assert(kTasklets[1] == kLowLoad);
    const size_t warm_offset = 1 * kReplicas;
    const auto factories = sweepWorkloads();
    auto &pool = pimstm::runtime::DpuPool::global();
    Spans untraced(false);
    std::vector<Run> runs;
    std::vector<std::pair<size_t, u64>> warm_prints;
    std::vector<double> setups;
    for (unsigned rep = 0; rep < kSetupRepeats; ++rep) {
        const auto t0 = Clock::now();
        runs = sweepRuns(seed, spans);
        pool.clear();
        for (size_t i = warm_offset; i < runs.size(); i += per_workload) {
            Run warm{runs[i].tier, runs[i].workload, runs[i].kind,
                     runs[i].tasklets, runs[i].seed,
                     std::make_unique<TimedWorkload>(
                         factories[runs[i].workload](), untraced)};
            pimstm::runtime::RunResult r;
            std::string error;
            const Outcome o = execute(warm, untraced, r, error);
            p.attempted += o == Outcome::NotRunnable ? 0 : 1;
            if (o == Outcome::Failed) {
                ++p.failed;
                p.errors.push_back("set-up: " + error);
            } else if (o == Outcome::Ran) {
                warm_prints.emplace_back(i, fingerprint(r));
            }
        }
        setups.push_back(secondsSince(t0));
    }
    p.setup_s = median(setups);
    const auto t1 = Clock::now();

    const auto pool0 = pool.stats();
    const auto ix0 = pimstm::core::txIndexTotals();
    std::vector<u64> prints(runs.size(), 0);
    // Per point (its kReplicas runs): summed throughput and commits.
    std::vector<double> tput_sum(runs.size() / kReplicas, 0.0);
    std::vector<u64> commits(runs.size() / kReplicas, 0);
    std::vector<unsigned> ok_runs(runs.size() / kReplicas, 0);
    for (size_t i = 0; i < runs.size(); ++i) {
        Run &run = runs[i];
        pimstm::runtime::RunResult r;
        std::string error;
        const Outcome o = execute(run, spans, r, error);
        if (o == Outcome::NotRunnable) {
            ++p.not_runnable;
            continue;
        }
        ++p.attempted;
        if (o == Outcome::Failed) {
            ++p.failed;
            p.errors.push_back(error);
            continue;
        }
        ++p.points;
        p.app_ops += run.wl->appOps();
        Counters &c = p.counters;
        c.cycles += r.dpu.total_cycles;
        c.switches += r.dpu.sched_switches;
        c.elisions += r.dpu.sched_elisions;
        c.instructions += r.dpu.instructions;
        c.mram_bytes += r.dpu.mram_bytes_read + r.dpu.mram_bytes_written;
        c.atomic_stall_cycles += r.dpu.atomic_stall_cycles;
        for (size_t ph = 0; ph < c.phase_cycles.size(); ++ph)
            c.phase_cycles[ph] += r.dpu.phase_cycles[ph];
        c.addStm(r.stm);
        prints[i] = fingerprint(r);
        if (r.throughput <= 0) {
            ++p.failed;
            p.errors.push_back(std::string(run.wl->name())
                               + ": no transaction committed");
            continue;
        }
        tput_sum[i / kReplicas] += r.throughput;
        commits[i / kReplicas] += r.stm.commits;
        ++ok_runs[i / kReplicas];
    }
    p.host_s = secondsSince(t1);

    const auto ix1 = pimstm::core::txIndexTotals();
    p.counters.txindex_lookups = ix1.lookups - ix0.lookups;
    p.counters.txindex_probes = ix1.probes - ix0.probes;
    p.pool_misses = pool.stats().misses - pool0.misses;
    for (const auto &[i, print] : warm_prints)
        if (prints[i] != print) {
            ++p.failed;
            p.errors.push_back("simulated metric differs when sweep run "
                               + std::to_string(i) + " is repeated");
        }

    // Fig. 6's reduction: each point's throughput is its replicas' mean.
    std::vector<double> tput;
    std::vector<PointLatency> lat_lo, lat_hi;
    // Highest throughput per (tier, workload, kind) within the latency
    // limit: the closed loop's capacity.
    std::map<std::tuple<int, size_t, int>, double> cap;
    for (size_t pt = 0; pt < tput_sum.size(); ++pt) {
        if (ok_runs[pt] != kReplicas)
            continue; // not runnable, or a failure already counted
        const Run &run = runs[pt * kReplicas];
        const double mean_tput = tput_sum[pt] / kReplicas;
        tput.push_back(mean_tput);
        // Little's law: mean simulated time per committed transaction
        // of one tasklet.
        const double lat = run.tasklets / mean_tput;
        if (run.tasklets == kLowLoad)
            lat_lo.push_back({lat, commits[pt]});
        if (run.tasklets == kHighLoad)
            lat_hi.push_back({lat, commits[pt]});
        if (lat <= kSweepLatencyLimitS) {
            double &best = cap[{static_cast<int>(run.tier), run.workload,
                                static_cast<int>(run.kind)}];
            best = std::max(best, mean_tput);
        }
    }
    std::vector<double> caps;
    for (const auto &[key, best] : cap)
        caps.push_back(best);
    p.sim.push_back({"sim_tx_per_s", geomean(tput), "1/s",
                     "geomean over " + std::to_string(tput.size()) + " points"});
    p.sim.push_back(latencyMetric("sim_p50_us.lo", lat_lo, 50, 100));
    p.sim.push_back(latencyMetric("sim_p99_us.lo", lat_lo, 99, 100));
    p.sim.push_back(latencyMetric("sim_p50_us.hi", lat_hi, 50, 100));
    p.sim.push_back(latencyMetric("sim_p99_us.hi", lat_hi, 99, 100));
    p.sim.push_back(latencyMetric("sim_p999_us.hi", lat_hi, 999, 1000));
    p.sim.push_back({"slo_capacity_rps", geomean(caps), "req/s",
                     "geomean over " + std::to_string(caps.size())
                         + " configurations of peak tx/s with mean latency <= 2 ms"});
    return p;
}

} // namespace perfbench
