/**
 * @file
 * Unit tests of the benchmark's own machinery: the latency
 * reconstruction and ledger against a synthetic backend with
 * hand-computed latencies, exact percentiles with shed requests, and
 * the capacity search's refusal to answer when the knee lies outside
 * its bracket. Build and run with `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "capacity.hh"
#include "ledger.hh"

using namespace perfbench;
using pimstm::runtime::RoundCost;
using pimstm::runtime::ServingRequest;

namespace
{

/**
 * Two shards; every round costs 100 us end to end, shard 0 is busy
 * 30 us and shard 1 60 us when they have work. Records each round the
 * way the benchmark's KV backend does (stream index in `value`).
 */
class FixedCostBackend final : public pimstm::runtime::ServingBackend
{
  public:
    unsigned numShards() const override { return 2; }

    unsigned
    shardOf(const ServingRequest &r) const override
    {
        return r.key % 2;
    }

    RoundCost
    executeRound(const std::vector<std::vector<ServingRequest>> &batches) override
    {
        RoundRecord rec;
        rec.cost.round_seconds = 100e-6;
        rec.cost.shard_busy_seconds = {0.0, 0.0};
        for (u32 s = 0; s < 2; ++s) {
            for (const ServingRequest &r : batches[s]) {
                rec.requests.push_back(r.value);
                rec.shards.push_back(s);
            }
            if (!batches[s].empty())
                rec.cost.shard_busy_seconds[s] = s == 0 ? 30e-6 : 60e-6;
        }
        rounds.push_back(rec);
        return rec.cost;
    }

    std::vector<RoundRecord> rounds;
};

ServingRequest
request(double arrival_s, u32 key, u32 index)
{
    ServingRequest r;
    r.arrival_s = arrival_s;
    r.key = key;
    r.value = index;
    return r;
}

constexpr double kNs = 1e-9;

} // namespace

TEST(Ledger, MatchesHandComputedLatencies)
{
    // r0 (shard 0) and r1 (shard 1) share round 1: the batcher waits
    // for r0's 200 us budget, dispatches at 200 us, completes at
    // 300 us. r2 arrives alone at 1000 us: dispatch 1200, done 1300.
    const std::vector<ServingRequest> stream = {
        request(0.0, 0, 0), request(10e-6, 1, 1), request(1000e-6, 0, 2)};
    FixedCostBackend backend;
    const auto rep =
        pimstm::runtime::runServing(backend, stream, ledgerServingConfig());
    const LatencyLedger led = reconstructLatency(rep, stream, backend.rounds);

    ASSERT_EQ(led.completed(), 3u);
    EXPECT_EQ(led.offered, 3u);
    EXPECT_NEAR(static_cast<double>(led.latency_ns[0]), 290000.0, 1.0);
    EXPECT_NEAR(static_cast<double>(led.latency_ns[1]), 300000.0, 1.0);
    EXPECT_NEAR(static_cast<double>(led.latency_ns[2]), 300000.0, 1.0);
    // wait: 200 + 190 + 200; service: 30 + 60 + 30; overhead: 70 + 40 + 70.
    EXPECT_NEAR(led.wait_s, 590e-6, 3 * kNs);
    EXPECT_NEAR(led.service_s, 120e-6, 3 * kNs);
    EXPECT_NEAR(led.overhead_s, 180e-6, 3 * kNs);
    EXPECT_NEAR(rep.makespan_s, 1300e-6, kNs);
    EXPECT_NEAR(static_cast<double>(*led.quantileNs(50, 100)), 300000.0, 1.0);
}

TEST(Ledger, RejectsARoundThatDoesNotMatchTheTimeline)
{
    const std::vector<ServingRequest> stream = {
        request(0.0, 0, 0), request(10e-6, 1, 1), request(1000e-6, 0, 2)};
    FixedCostBackend backend;
    const auto rep =
        pimstm::runtime::runServing(backend, stream, ledgerServingConfig());

    auto dropped = backend.rounds;
    dropped[0].requests.pop_back();
    dropped[0].shards.pop_back();
    EXPECT_THROW(reconstructLatency(rep, stream, dropped), std::runtime_error);

    auto missing = backend.rounds;
    missing.pop_back();
    EXPECT_THROW(reconstructLatency(rep, stream, missing), std::runtime_error);

    // A shard busier than its round's makespan leaves a negative
    // overhead: the ledger cannot sum to the latency honestly.
    auto overbusy = backend.rounds;
    overbusy[1].cost.shard_busy_seconds[0] = 150e-6;
    EXPECT_THROW(reconstructLatency(rep, stream, overbusy), std::runtime_error);
}

TEST(Ledger, ShedRequestsExceedEveryPercentile)
{
    LatencyLedger led;
    led.offered = 4;
    led.shed = 1;
    led.latency_ns = {10, 20, 30};
    EXPECT_EQ(*led.quantileNs(50, 100), 20u);  // rank 2 of 4
    EXPECT_EQ(*led.quantileNs(75, 100), 30u);  // rank 3
    EXPECT_FALSE(led.quantileNs(99, 100));     // rank 4: the shed one
    EXPECT_EQ(led.beyond(50, 100), 2u);

    // Integer ranks: 99% of 10000 is rank 9900 exactly, leaving 100.
    LatencyLedger big;
    big.offered = 10000;
    big.latency_ns.resize(10000);
    for (u64 i = 0; i < 10000; ++i)
        big.latency_ns[i] = i + 1;
    EXPECT_EQ(*big.quantileNs(99, 100), 9900u);
    EXPECT_EQ(big.beyond(99, 100), 100u);
    EXPECT_EQ(*big.quantileNs(999, 1000), 9990u);
    EXPECT_EQ(big.beyond(999, 1000), 10u);
}

TEST(Capacity, BisectsAKneeInsideTheBracketToOnePercent)
{
    const double knee = 12345.0;
    const CapacityResult r =
        searchCapacity([&](double rate) { return rate < knee; }, 1000, 1e6);
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_LT(r.capacity_per_s, knee);
    EXPECT_GE(r.failing_per_s, knee);
    EXPECT_LE(r.failing_per_s, r.capacity_per_s * 1.01);
}

TEST(Capacity, FailsWhenTheKneeLiesAboveTheCeiling)
{
    const CapacityResult r =
        searchCapacity([](double rate) { return rate < 2e6; }, 1000, 1e6);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.capacity_per_s, 0.0);
    for (const CapacityProbe &p : r.probes)
        EXPECT_LT(p.rate_per_s, 1e6); // the ceiling itself is never probed
}

TEST(Capacity, FailsWhenTheFloorAlreadyFails)
{
    const CapacityResult r =
        searchCapacity([](double rate) { return rate < 500; }, 1000, 1e6);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(r.capacity_per_s, 0.0);
    EXPECT_EQ(r.probes.size(), 1u);
}
