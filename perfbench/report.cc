#include "report.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench
{

using pimstm::core::AbortReason;
using pimstm::sim::Phase;

void
Counters::addStm(const pimstm::core::StmStats &s, int sign)
{
    auto add = [sign](u64 &dst, u64 v) {
        dst = sign > 0 ? dst + v : dst - v;
    };
    add(starts, s.starts);
    add(commits, s.commits);
    add(aborts, s.aborts);
    for (size_t i = 0; i < abort_reasons.size(); ++i)
        add(abort_reasons[i], s.abort_reasons[i]);
    add(reads, s.reads);
    add(validations, s.validations);
    add(lock_wait_cycles, s.lock_wait_cycles);
    add(backoff_cycles, s.backoff_cycles);
    add(log_bytes, s.log_bytes);
    add(fences, s.flush_fences);
    add(durable_commits, s.durable_commits);
}

Counters &
Counters::operator+=(const Counters &o)
{
    cycles += o.cycles;
    switches += o.switches;
    elisions += o.elisions;
    instructions += o.instructions;
    mram_bytes += o.mram_bytes;
    atomic_stall_cycles += o.atomic_stall_cycles;
    for (size_t p = 0; p < phase_cycles.size(); ++p)
        phase_cycles[p] += o.phase_cycles[p];
    starts += o.starts;
    commits += o.commits;
    aborts += o.aborts;
    for (size_t i = 0; i < abort_reasons.size(); ++i)
        abort_reasons[i] += o.abort_reasons[i];
    reads += o.reads;
    validations += o.validations;
    lock_wait_cycles += o.lock_wait_cycles;
    backoff_cycles += o.backoff_cycles;
    log_bytes += o.log_bytes;
    fences += o.fences;
    durable_commits += o.durable_commits;
    txindex_lookups += o.txindex_lookups;
    txindex_probes += o.txindex_probes;
    prepare_rounds += o.prepare_rounds;
    commit_rounds += o.commit_rounds;
    tx_commits += o.tx_commits;
    tx_conflict_retries += o.tx_conflict_retries;
    serial_fallbacks += o.serial_fallbacks;
    deferred_ops += o.deferred_ops;
    wal_persists += o.wal_persists;
    link_bytes += o.link_bytes;
    return *this;
}

namespace
{

/** Short names of sim::Phase, in enum order. */
constexpr const char *kPhaseNames[pimstm::sim::kNumPhases] = {
    "non-tx", "start", "read", "write",
    "validate", "commit", "other", "wasted"};

/** The abort reasons the paper's STMs produce. */
constexpr AbortReason kReasons[] = {
    AbortReason::ReadConflict, AbortReason::WriteConflict,
    AbortReason::UpgradeConflict, AbortReason::ValidationFail,
    AbortReason::CommitConflict};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The simulated per-layer metrics (shared by digest and report). */
std::vector<Metric>
simulatedLayerMetrics(const PassResult &p)
{
    const Counters &c = p.counters;
    const ServingStats &s = p.serving;
    u64 busy = 0;
    for (u64 v : c.phase_cycles)
        busy += v;
    const double n = static_cast<double>(s.requests);
    auto d = [](u64 v) { return static_cast<double>(v); };

    std::vector<Metric> m = {
        {"sim.switches", d(c.switches), "count", ""},
        {"sim.elision_share", ratio(d(c.elisions), d(c.switches + c.elisions)),
         "ratio", ""},
        {"sim.cycles", d(c.cycles), "cycles", ""},
        {"sim.instructions", d(c.instructions), "count", ""},
        {"sim.mram_bytes", d(c.mram_bytes), "B", ""},
        {"sim.atomic_stall_cycles", d(c.atomic_stall_cycles), "cycles", ""},
    };
    for (size_t ph = 0; ph < pimstm::sim::kNumPhases; ++ph)
        m.push_back({std::string("sim.phase_share.") + kPhaseNames[ph],
                     ratio(d(c.phase_cycles[ph]), d(busy)), "ratio", ""});
    m.push_back({"sim.service_us", ratio(s.service_s * 1e6, n), "us", ""});

    m.push_back({"core.commits", d(c.commits), "count", ""});
    m.push_back({"core.aborts", d(c.aborts), "count", ""});
    m.push_back({"core.abort_rate", ratio(d(c.aborts), d(c.commits + c.aborts)),
                 "ratio", ""});
    for (AbortReason r : kReasons)
        m.push_back({"core.abort." + std::string(abortReasonName(r)),
                     d(c.abort_reasons[static_cast<size_t>(r)]), "count", ""});
    m.push_back({"core.wasted_share",
                 ratio(d(c.phase_cycles[static_cast<size_t>(Phase::Wasted)]),
                       d(busy)),
                 "ratio", ""});
    m.push_back({"core.lock_wait_cycles", d(c.lock_wait_cycles), "cycles", ""});
    m.push_back({"core.backoff_cycles", d(c.backoff_cycles), "cycles", ""});
    m.push_back({"core.reads_per_tx", ratio(d(c.reads), d(c.commits + c.aborts)),
                 "reads/tx", ""});
    m.push_back({"core.validations", d(c.validations), "count", ""});
    m.push_back({"core.txindex_lookups", d(c.txindex_lookups), "count", ""});
    m.push_back({"core.txindex_avg_probe",
                 ratio(d(c.txindex_probes), d(c.txindex_lookups)), "probes",
                 ""});
    m.push_back({"core.log_bytes_per_commit",
                 ratio(d(c.log_bytes), d(c.commits)), "B", ""});
    m.push_back({"core.fences_per_commit", ratio(d(c.fences), d(c.commits)),
                 "fences", ""});
    m.push_back({"core.durable_commits", d(c.durable_commits), "count", ""});

    m.push_back({"runtime.points", d(p.points), "count", ""});
    m.push_back({"runtime.pool_misses", d(p.pool_misses), "count", ""});
    m.push_back({"runtime.wait_us", ratio(s.wait_s * 1e6, n), "us", ""});
    m.push_back({"runtime.rounds", d(s.rounds), "count", ""});
    m.push_back({"runtime.mean_batch", ratio(n, d(s.batches)), "req", ""});
    m.push_back({"runtime.occupancy", ratio(s.busy_s, s.fleet_s), "ratio",
                 ""});
    m.push_back({"runtime.shed", d(s.shed), "count", ""});
    m.push_back({"runtime.peak_queue", d(s.peak_queue), "req", ""});
    m.push_back({"runtime.reported_p99_us", s.reported_p99_us, "us", ""});

    m.push_back({"hostapp.round_overhead_us", ratio(s.overhead_s * 1e6, n),
                 "us", ""});
    m.push_back({"hostapp.prepare_rounds", d(c.prepare_rounds), "count", ""});
    m.push_back({"hostapp.commit_rounds", d(c.commit_rounds), "count", ""});
    m.push_back({"hostapp.tx_commit_share", ratio(d(c.tx_commits), d(s.moves)),
                 "ratio", ""});
    m.push_back({"hostapp.tx_conflict_retries", d(c.tx_conflict_retries),
                 "count", ""});
    m.push_back({"hostapp.serial_fallbacks", d(c.serial_fallbacks), "count",
                 ""});
    m.push_back({"hostapp.deferred_ops", d(c.deferred_ops), "count", ""});
    m.push_back({"hostapp.wal_persists", d(c.wal_persists), "count", ""});
    m.push_back({"hostapp.bytes_per_req", ratio(d(c.link_bytes), d(s.offered)),
                 "B", ""});
    m.push_back({"workloads.app_ops", d(p.app_ops), "count", ""});
    return m;
}

} // namespace

std::vector<std::pair<std::string, double>>
simulatedDigest(const PassResult &p)
{
    std::vector<std::pair<std::string, double>> out;
    for (const Metric &m : p.sim)
        out.emplace_back(m.name, m.value);
    for (const Metric &m : simulatedLayerMetrics(p))
        out.emplace_back(m.name, m.value);
    out.emplace_back("bench.not_runnable", static_cast<double>(p.not_runnable));
    out.emplace_back("bench.attempted", static_cast<double>(p.attempted));
    return out;
}

std::string
digestDiff(const std::vector<std::pair<std::string, double>> &a,
           const std::vector<std::pair<std::string, double>> &b)
{
    if (a.size() != b.size())
        return "digest sizes differ";
    for (size_t i = 0; i < a.size(); ++i) {
        // Exact comparison on purpose: simulated values must repeat
        // bit for bit.
        if (a[i].first != b[i].first || a[i].second != b[i].second) {
            std::ostringstream os;
            os.precision(17);
            os << a[i].first << ": " << a[i].second << " vs "
               << b[i].second;
            return os.str();
        }
    }
    return {};
}

std::vector<Metric>
layerMetrics(const PassResult &p,
             const std::map<std::string, SpanTotals> &spans,
             const TracedExtras &x)
{
    auto span = [&](const char *name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals run = span(kSpanRunWorkload);
    const SpanTotals exec = span(kSpanExecute);
    const double dpu_host_s = run.self_s + exec.self_s;

    std::vector<Metric> m = simulatedLayerMetrics(p);
    auto d = [](u64 v) { return static_cast<double>(v); };
    m.push_back({"sim.dpu_run_s", run.self_s, "s", ""});
    m.push_back({"sim.host_ns_per_switch",
                 ratio(dpu_host_s * 1e9, d(p.counters.switches)), "ns", ""});
    m.push_back({"runtime.run_s", run.total_s, "s", ""});
    m.push_back({"runtime.slowest_point_share", ratio(run.max_s, run.total_s),
                 "ratio", ""});
    m.push_back({"runtime.serving_self_s", span(kSpanRunServing).self_s, "s",
                 ""});
    m.push_back({"runtime.stream_s", span(kSpanMakeStream).total_s, "s", ""});
    m.push_back({"runtime.capacity_s", x.capacity_s, "s", ""});
    m.push_back({"runtime.capacity_probes", d(x.capacity_probes), "count", ""});
    m.push_back({"hostapp.execute_s", exec.self_s, "s", ""});
    m.push_back({"hostapp.host_us_per_batch",
                 ratio(exec.total_s * 1e6, d(exec.count)), "us", ""});
    m.push_back({"hostapp.build_s", span(kSpanFleetBuild).total_s, "s", ""});
    m.push_back({"workloads.setup_s", span(kSpanWorkloadSetup).total_s, "s",
                 ""});
    m.push_back({"workloads.verify_s", span(kSpanWorkloadVerify).total_s, "s",
                 ""});
    m.push_back({"util.parallel_speedup", x.parallel_speedup, "ratio", ""});
    m.push_back({"bench.tracing_overhead",
                 ratio(x.traced_host_s, x.untraced_host_s) - 1.0, "ratio",
                 ""});
    return m;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
