/**
 * @file
 * The two open-loop KV serving workloads. A pass serves the workload's
 * stream at its two fixed rates; the capacity search under the SLO runs
 * once per process. Every serving run builds a fresh fleet and a fresh
 * stream from the workload seed.
 */

#ifndef PERFBENCH_KV_WORKLOADS_HH
#define PERFBENCH_KV_WORKLOADS_HH

#include <string>
#include <vector>

#include "report.hh"
#include "runtime/serving.hh"

namespace perfbench
{

/** What distinguishes the two KV workloads. */
struct KvWorkload
{
    unsigned shards = 64;
    bool durable = false;
    pimstm::runtime::ArrivalKind arrival =
        pimstm::runtime::ArrivalKind::Poisson;
    std::vector<double> op_weights; ///< get / put / movek
    /** Fixed rates, about 1/4 and 3/4 of the parent commit's capacity
     * on the default seed. The capacity search starts from hi_rate. */
    double lo_rate = 0.0;
    double hi_rate = 0.0;
    /** Host threads of the traced run's extra pass, which must repeat
     * the one-thread simulated results and gives util.parallel_speedup;
     * 1 means no extra pass. Timed passes always run on one thread. */
    unsigned compare_threads = 1;
};

KvWorkload kvServeWorkload();
KvWorkload kvDurable2pcWorkload();

/** @{ Shared by both KV workloads. */
inline constexpr unsigned kTaskletsPerShard = 4;
inline constexpr double kZipfTheta = 0.99;
/** Requests per serving run: 12 beyond p99.9 in one stream. */
inline constexpr u64 kRequestsPerRun = 12000;
/** @} */

/** Independent streams served at the high rate. Its percentiles are
 * taken over all their requests, so no single stream's worst burst
 * sets the tail. */
inline constexpr u64 kHighRateRuns = 10;
/** The capacity search probes below kCeilingOverHigh x hi_rate: three
 * doublings, as a bursty stream without long bursts can pass 2x. */
inline constexpr double kCeilingOverHigh = 8.0;

/** The SLO the capacity search judges, on exact latency. */
inline constexpr double kSloP99S = 2e-3;
/** Largest last-arrival -> last-completion gap of a non-growing backlog. */
inline constexpr double kBacklogS = 2e-3;

/**
 * One pass: the low fixed rate once and the high fixed rate on
 * kHighRateRuns streams, each on a fresh fleet. Its runServing calls
 * are the timed phase.
 */
PassResult runKvPass(const KvWorkload &w, u64 seed, Spans &spans);

/**
 * The capacity search, once per process: its simulated answer is
 * deterministic, and its host time is reported per layer
 * (runtime.capacity_s). Fills sim with slo_capacity_rps.
 */
PassResult runKvCapacity(const KvWorkload &w, u64 seed, Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_KV_WORKLOADS_HH
