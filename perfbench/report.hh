/**
 * @file
 * What one pass of a workload measured, and how the benchmark turns
 * passes into its end-to-end and per-layer metrics.
 *
 * A pass is one execution of a workload's set-up and timed phase. The
 * simulated part of a pass (everything under Counters and
 * PassResult::sim) depends only on the workload and its seed, so it
 * must repeat exactly between passes, between traced and untraced
 * passes, and across host thread counts.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "sim/phase.hh"
#include "spans.hh"

namespace perfbench
{

using pimstm::u32;
using pimstm::u64;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< printed beside the value (e.g. sample counts)
};

/** Simulated counters of a pass's timed phase, summed over DPU runs. */
struct Counters
{
    /** @{ sim */
    u64 cycles = 0;
    u64 switches = 0;
    u64 elisions = 0;
    u64 instructions = 0;
    u64 mram_bytes = 0;
    u64 atomic_stall_cycles = 0;
    std::array<u64, pimstm::sim::kNumPhases> phase_cycles{};
    /** @} */
    /** @{ core */
    u64 starts = 0;
    u64 commits = 0;
    u64 aborts = 0;
    std::array<u64, pimstm::core::kNumAbortReasons> abort_reasons{};
    u64 reads = 0;
    u64 validations = 0;
    u64 lock_wait_cycles = 0;
    u64 backoff_cycles = 0;
    u64 log_bytes = 0;
    u64 fences = 0;
    u64 durable_commits = 0;
    u64 txindex_lookups = 0;
    u64 txindex_probes = 0;
    /** @} */
    /** @{ hostapp two-phase commit */
    u64 prepare_rounds = 0;
    u64 commit_rounds = 0;
    u64 tx_commits = 0;
    u64 tx_conflict_retries = 0;
    u64 serial_fallbacks = 0;
    u64 deferred_ops = 0;
    u64 wal_persists = 0;
    u64 link_bytes = 0;
    /** @} */

    void addStm(const pimstm::core::StmStats &s, int sign = 1);
    Counters &operator+=(const Counters &o);
};

/** Serving statistics of the fixed-rate runs (zero for closed loops). */
struct ServingStats
{
    u64 requests = 0; ///< completed requests
    double wait_s = 0.0;
    double service_s = 0.0;
    double overhead_s = 0.0;
    u64 rounds = 0;
    u64 batches = 0;
    double busy_s = 0.0;
    double fleet_s = 0.0; ///< shards x summed round makespans
    u64 shed = 0;
    u64 peak_queue = 0;
    double reported_p99_us = 0.0; ///< harness's log2 p99 at the high rate
    u64 moves = 0;                ///< movek requests offered
    u64 offered = 0;              ///< requests offered in the timed phase
};

struct PassResult
{
    double host_s = 0.0;  ///< timed phase, host seconds
    double setup_s = 0.0; ///< set-up before it, host seconds
    /** kv_* capacity search: its host seconds. */
    double capacity_s = 0.0;

    /** Simulated end-to-end metrics (sim_tx_per_s, capacity, ...). */
    std::vector<Metric> sim;
    Counters counters;
    ServingStats serving;

    /** @{ runtime::runWorkload bookkeeping (paper_sweep). */
    u64 points = 0;
    u64 not_runnable = 0; ///< designed "WRAM metadata does not fit"
    u64 pool_misses = 0;
    u64 app_ops = 0;
    /** @} */
    u64 capacity_probes = 0;

    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> errors;
};

/**
 * Everything of @p p that must repeat exactly, as named values (the
 * simulated end-to-end metrics and every simulated counter).
 */
std::vector<std::pair<std::string, double>>
simulatedDigest(const PassResult &p);

/** First difference between two digests, or empty when identical. */
std::string digestDiff(const std::vector<std::pair<std::string, double>> &a,
                       const std::vector<std::pair<std::string, double>> &b);

/** Extra host measurements only the traced run makes. */
struct TracedExtras
{
    double untraced_host_s = 0.0;
    double traced_host_s = 0.0;
    double parallel_speedup = 1.0; ///< 1 when the workload uses 1 thread
    double capacity_s = 0.0;       ///< traced capacity search, kv_*
    u64 capacity_probes = 0;
};

/** Every per-layer metric, from a traced pass and its spans. */
std::vector<Metric> layerMetrics(const PassResult &p,
                                 const std::map<std::string, SpanTotals> &spans,
                                 const TracedExtras &x);

/** @{ Span names shared by the workloads and layerMetrics. */
inline constexpr const char *kSpanRunWorkload = "runtime::runWorkload";
inline constexpr const char *kSpanWorkloadSetup = "Workload::setup";
inline constexpr const char *kSpanWorkloadVerify = "Workload::verify";
inline constexpr const char *kSpanFleetBuild = "hostapp::DistributedKv+preload";
inline constexpr const char *kSpanMakeStream = "runtime::makeStream";
inline constexpr const char *kSpanRunServing = "runtime::runServing";
inline constexpr const char *kSpanExecute = "hostapp::DistributedKv::execute";
inline constexpr const char *kSpanCapacity = "bench::capacitySearch";
/** @} */

double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
