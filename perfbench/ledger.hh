/**
 * @file
 * Exact simulated latency of every served request, reconstructed from
 * outside the serving harness, and its split into a per-request ledger.
 *
 * runtime::runServing reports latency only as log2 histograms (bucket
 * upper bounds, up to 2x high). Run with a 1 ns timeline window and an
 * unlimited point count, every timeline point that has completions is
 * one round's completion instant: rounds are at least the 50 us launch
 * overhead apart, so no two share a window. Joining those points, in
 * order, with the requests and RoundCost the backend saw in each round
 * gives each request's exact arrival->completion latency, split as
 *
 *   wait     = dispatch - arrival          (admission queue + batching)
 *   service  = own shard's busy time        (DPU service)
 *   overhead = round makespan - own shard   (launch, transfers, slower
 *                                            sibling shards)
 *
 * so that wait + service + overhead == latency for every request.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <optional>
#include <vector>

#include "runtime/serving.hh"

namespace perfbench
{

using pimstm::u32;
using pimstm::u64;

/** What the benchmark's backend saw in one executeRound call. */
struct RoundRecord
{
    std::vector<u32> requests; ///< stream indices, in dispatch order
    std::vector<u32> shards;   ///< shard of each request
    pimstm::runtime::RoundCost cost;
};

/** Exact latency and ledger of one serving run. */
struct LatencyLedger
{
    u64 offered = 0;
    u64 shed = 0;
    /** Latency (ns) of each completed request, sorted ascending. */
    std::vector<u64> latency_ns;
    /** @{ Ledger sums over completed requests (seconds). */
    double wait_s = 0.0;
    double service_s = 0.0;
    double overhead_s = 0.0;
    /** @} */
    double last_arrival_s = 0.0;

    u64 completed() const { return latency_ns.size(); }

    /**
     * Exact quantile num/den over every offered request, a shed
     * request counting as exceeding every limit: the value at rank
     * ceil(offered * num / den), computed in integers. nullopt when
     * that rank falls on a shed request.
     */
    std::optional<u64> quantileNs(u64 num, u64 den) const;

    /** Offered requests strictly beyond that quantile's rank. */
    u64 beyond(u64 num, u64 den) const;
};

/**
 * Join @p report's 1 ns timeline with @p rounds and @p stream. Throws
 * std::runtime_error when the join or any ledger identity fails: one
 * timeline point per round with matching counts; reconstructed sum and
 * max within 2 ns per request of the harness's exact e2e sum and max;
 * wait, service and overhead non-negative and summing to each
 * request's latency.
 */
LatencyLedger
reconstructLatency(const pimstm::runtime::ServingReport &report,
                   const std::vector<pimstm::runtime::ServingRequest> &stream,
                   const std::vector<RoundRecord> &rounds);

/** Harness settings under which reconstructLatency is exact. */
pimstm::runtime::ServingConfig ledgerServingConfig();

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
