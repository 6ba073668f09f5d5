/**
 * @file
 * Open-loop traffic serving: the production-shaped front-end for the
 * DPU fleet (ROADMAP item 2, docs/serving.md).
 *
 * All current benches are closed-loop sweeps — the next request is
 * issued only after the previous one completes, so the system can
 * never be observed past saturation. This layer models how production
 * actually drives a store: requests arrive on their own schedule
 * (Poisson or bursty/MMPP-2), key popularity is Zipfian, a batcher
 * accumulates requests under a latency budget, bounded per-shard
 * queues shed load when shards saturate, and latency is accounted per
 * request from *arrival* (not dispatch) to completion — so queueing
 * delay, batch-formation delay and the host-link cost all land in the
 * reported percentiles.
 *
 * Layering: this file knows nothing about the KV store or vacation —
 * `runtime` sits below `hostapp`. A backend implements
 * ServingBackend; the harness owns arrivals, queues, batching, shed
 * accounting and SLO reporting. bench/serve_kv.cc provides the
 * DistributedKv and vacation backends.
 *
 * Time model: the harness runs on *simulated* time only. The clock
 * advances by arrival timestamps (drawn from the seeded stream) and
 * by the backend's modelled round cost (DPU cycles + host-link
 * transfers). No host wall-clock ever enters a decision, so a serving
 * run is bitwise deterministic for any host thread count.
 */

#ifndef PIMSTM_RUNTIME_SERVING_HH
#define PIMSTM_RUNTIME_SERVING_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace pimstm::runtime
{

//
// Arrival processes
//

/** Shape of the request arrival process. */
enum class ArrivalKind : u8
{
    /** Memoryless: exponential inter-arrival times at a fixed rate. */
    Poisson,
    /**
     * Bursty: a 2-state Markov-modulated Poisson process. The process
     * alternates between a normal state and a burst state whose rate
     * is kBurstFactor times the normal rate; dwell times in each
     * state are exponential. Parameters are chosen so the *long-run
     * mean* rate equals `rate_per_s`, which makes Poisson and Bursty
     * runs directly comparable at equal offered load.
     */
    Bursty,
};

// Bursty (MMPP-2) shape; unused by Poisson arrivals.
constexpr double kBurstFactor = 8.0;    ///< burst rate / normal rate
constexpr double kBurstFraction = 0.10; ///< long-run fraction of time bursting
constexpr double kBurstDwellS = 2e-3;   ///< mean dwell per visit to the burst
static_assert(kBurstFraction > 0 && kBurstFraction < 1,
              "kBurstFraction must be in (0,1)");
static_assert(kBurstFactor > 1, "kBurstFactor must exceed 1");
static_assert(kBurstDwellS > 0, "kBurstDwellS must be positive");

/** Parameters of an arrival process. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double rate_per_s = 50e3; ///< long-run mean arrival rate
};

/**
 * Draws a deterministic sequence of absolute arrival timestamps.
 * Same (config, seed) => same sequence, on every platform the repo
 * supports (pure IEEE double arithmetic).
 */
class ArrivalProcess
{
  public:
    ArrivalProcess(const ArrivalConfig &cfg, u64 seed);

    /** Absolute time of the next arrival (seconds, nondecreasing). */
    double next();

  private:
    double exponential(double mean);

    ArrivalConfig cfg_;
    Rng rng_;
    double now_ = 0.0;
    double normal_rate_ = 0.0; ///< rate in the normal MMPP state
    double burst_rate_ = 0.0;
    double dwell_normal_s_ = 0.0;
    bool bursting_ = false;
    double state_end_s_ = 0.0; ///< when the current MMPP state expires
};

//
// Key popularity
//

/**
 * YCSB-style Zipfian rank generator over [0, n): rank 0 is the most
 * popular. theta in (0, 1) sets the skew (0.99 is the YCSB default);
 * theta == 0 degrades to uniform. The zeta(n) normalizer is computed
 * once at construction (O(n)).
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(u64 n, double theta);

    u64 next(Rng &rng);

    u64 universe() const { return n_; }
    double theta() const { return theta_; }

  private:
    u64 n_;
    double theta_;
    double alpha_ = 0.0;
    double zetan_ = 0.0;
    double eta_ = 0.0;
};

//
// Request streams
//

/**
 * One request of the open-loop stream. `key` is a popularity *rank*
 * in [0, keys): 0 hottest. The backend maps ranks to its own key
 * space and interprets `op` (an index into StreamConfig::op_weights)
 * and the `value` payload.
 */
struct ServingRequest
{
    double arrival_s = 0.0;
    u32 key = 0;
    u8 op = 0;
    u32 value = 0;
};

/** Parameters of a generated request stream. */
struct StreamConfig
{
    ArrivalConfig arrival;
    u64 keys = 1u << 16;      ///< popularity universe (ranks)
    double zipf_theta = 0.99; ///< 0 => uniform popularity
    /** Relative weights of the op classes (backend-interpreted op ids
     * 0..k-1). Need not be normalized; must sum > 0. */
    std::vector<double> op_weights{1.0};
    u64 seed = 1;
};

/**
 * Generate @p count requests deterministically from @p cfg. Arrival
 * times, ranks, op classes and value payloads each draw from an
 * independent derived stream, so e.g. changing the op mix does not
 * perturb the arrival schedule.
 */
std::vector<ServingRequest> makeStream(const StreamConfig &cfg, u64 count);

//
// Backend contract
//

/** Modelled cost of one dispatched round, as charged by the backend. */
struct RoundCost
{
    /** End-to-end round makespan: launch overhead + host-link
     * transfers + slowest shard, seconds. */
    double round_seconds = 0.0;
    /** Simulated busy seconds of each shard this round (size must be
     * numShards(); zeros for uninvolved shards). */
    std::vector<double> shard_busy_seconds;
};

/**
 * What the harness needs from a store: a shard count, request
 * routing, and the ability to execute one batched round and report
 * its modelled cost. Implementations live above `runtime` (e.g.
 * bench/serve_kv.cc wraps hostapp::DistributedKv).
 */
class ServingBackend
{
  public:
    virtual ~ServingBackend() = default;

    virtual unsigned numShards() const = 0;

    /** Which shard serves @p req (stable per request). */
    virtual unsigned shardOf(const ServingRequest &req) const = 0;

    /**
     * Execute one round: @p batches has exactly numShards() entries,
     * each the ordered requests dispatched to that shard (possibly
     * empty). Returns the modelled cost. Must be deterministic.
     */
    virtual RoundCost
    executeRound(const std::vector<std::vector<ServingRequest>> &batches)
        = 0;
};

//
// Harness configuration and report
//

/** Batch-formation / admission-control knobs. */
struct ServingConfig
{
    /**
     * Latency budget of the batcher: a round is dispatched as soon as
     * the *oldest* queued request has waited this long (or earlier,
     * when a shard queue reaches max_batch_per_shard while the
     * dispatcher is idle).
     */
    double batch_budget_s = 200e-6;

    /** Max requests dispatched to one shard per round. */
    u32 max_batch_per_shard = 16;

    /**
     * Admission bound: a request arriving to a shard whose queue
     * already holds this many waiting requests is shed (rejected and
     * counted, never silently dropped).
     */
    u32 queue_cap_per_shard = 64;

    /** Reporting granularity of the completion timeline. */
    double timeline_window_s = 5e-3;

    /** Emitted timeline points are merged down to at most this many. */
    u32 max_timeline_points = 48;
};

/** Per-shard serving accounting. */
struct ShardServingStats
{
    u64 offered = 0;   ///< requests routed to this shard
    u64 completed = 0; ///< requests served
    u64 shed = 0;      ///< requests rejected at admission
    u32 peak_queue = 0;
    double busy_seconds = 0.0; ///< simulated shard-busy time
    /** Shard-view latency (ns): arrival -> end of the shard's own
     * service in its round, excluding the round's slower siblings. */
    core::LogHistogram latency_ns;
};

/** One aggregated window of the completion timeline. */
struct TimelinePoint
{
    double t_end_s = 0.0; ///< window end (simulated seconds)
    u64 completed = 0;
    u64 shed = 0;
    u64 p99_ns = 0; ///< end-to-end p99 within the window
};

/** Everything a serving run measured. */
struct ServingReport
{
    u64 offered = 0;
    u64 completed = 0;
    u64 shed = 0;
    u64 rounds = 0;  ///< executeRound calls
    u64 batches = 0; ///< non-empty per-shard batches dispatched

    double makespan_s = 0.0;  ///< completion time of the last round
    double busy_seconds = 0.0; ///< summed shard busy time
    /** numShards() x summed round makespans: the fleet-time the run
     * occupied. busy_seconds / capacity_seconds = mean occupancy. */
    double capacity_seconds = 0.0;

    /** End-to-end latency (ns): arrival -> round completion, which
     * includes queueing, batch formation, launch overhead, host-link
     * transfers and the slowest-shard makespan. */
    core::LogHistogram e2e_ns;

    std::vector<ShardServingStats> shards;
    std::vector<TimelinePoint> timeline;

    double
    throughputPerSec() const
    {
        return makespan_s > 0
            ? static_cast<double>(completed) / makespan_s
            : 0.0;
    }

    double
    meanOccupancy() const
    {
        return capacity_seconds > 0 ? busy_seconds / capacity_seconds
                                    : 0.0;
    }
};

/**
 * Conservative quantile over a log2 histogram: the smallest bucket
 * upper bound covering at least ceil(q * count) samples. Returns the
 * *upper* bound (inclusive) of that bucket — an over-estimate by at
 * most 2x, never an under-estimate — so an SLO judged against it is
 * honest. 0 when the histogram is empty.
 */
u64 histogramPercentile(const core::LogHistogram &h, double q);

/**
 * Run the open-loop serving harness: admit @p stream (in arrival
 * order) into bounded per-shard queues, form rounds under the batch
 * budget, dispatch them to @p backend, and account latency and sheds.
 * After the stream ends the queues drain. Guarantees
 * offered == completed + shed.
 */
ServingReport runServing(ServingBackend &backend,
                         const std::vector<ServingRequest> &stream,
                         const ServingConfig &cfg);

//
// SLO + capacity search
//

/** The SLO a serving run is judged against. */
struct SloSpec
{
    double p99_s = 2e-3;          ///< end-to-end p99 budget
    bool require_zero_shed = true; ///< shed > 0 fails the SLO
};

/** Does @p r meet @p slo? */
bool meetsSlo(const ServingReport &r, const SloSpec &slo);

/** One probe of the capacity search. */
struct CapacityProbe
{
    double rate_per_s = 0.0;
    bool ok = false; ///< met the SLO
    u64 p99_ns = 0;
    u64 shed = 0;
    double throughput_per_s = 0.0;
};

/** Result of findCapacity. */
struct CapacityResult
{
    /** Highest probed rate that met the SLO (0 when even lo failed). */
    double capacity_per_s = 0.0;
    /** The report measured at capacity_per_s. */
    ServingReport at_capacity;
    std::vector<CapacityProbe> probes;
};

/** Bisection steps findCapacity spends refining the bracketed knee. */
constexpr unsigned kCapacityRefineIters = 7;

/**
 * Max-throughput-under-SLO search: @p run maps an offered rate to a
 * ServingReport (fresh backend + fresh stream per probe, same seed).
 * Doubles from @p lo_rate until the SLO breaks (or @p max_rate),
 * then bisects the bracket for kCapacityRefineIters iterations.
 * Deterministic: probe sequence depends only on the arguments and the
 * (deterministic) reports.
 */
CapacityResult
findCapacity(const std::function<ServingReport(double)> &run,
             const SloSpec &slo, double lo_rate, double max_rate);

//
// Reporting
//

/** One JSON object describing @p r (for the `serving` perf-json
 * block; schema in docs/serving.md). Deterministic field order. */
std::string servingReportJson(const ServingReport &r);

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_SERVING_HH
