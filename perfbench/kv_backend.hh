/**
 * @file
 * The benchmark's serving backend: a hostapp::DistributedKv fleet
 * behind runtime::runServing, driven only through the fleet's public
 * calls. It records what each round carried (for the latency ledger)
 * and checks every answer it gets back.
 *
 * Request encoding: ServingRequest::key is a popularity rank (key
 * rank + 1 on the fleet, its shadow key rank + 1 + keyspace on another
 * shard); ServingRequest::value carries the request's stream index,
 * which the benchmark writes after runtime::makeStream. Every value put
 * into the store encodes the rank it was written for (rank << 16), so
 * a get that returns another rank's value is caught.
 */

#ifndef PERFBENCH_KV_BACKEND_HH
#define PERFBENCH_KV_BACKEND_HH

#include <string>
#include <vector>

#include "hostapp/distributed_kv.hh"
#include "ledger.hh"
#include "report.hh"
#include "spans.hh"

namespace perfbench
{

/** Op classes of the request stream (StreamConfig::op_weights order). */
enum KvRequestOp : pimstm::u8
{
    kKvGet = 0,
    kKvPut = 1,
    kKvMove = 2, ///< relocate a rank between its key and shadow (2PC)
};

class KvBackend final : public pimstm::runtime::ServingBackend
{
  public:
    /** Builds the fleet and preloads every rank. */
    KvBackend(u32 keyspace, const pimstm::hostapp::DistributedKvConfig &cfg,
              Spans &spans);

    unsigned numShards() const override { return kv_.numShards(); }

    unsigned shardOf(const pimstm::runtime::ServingRequest &req) const override;

    pimstm::runtime::RoundCost executeRound(
        const std::vector<std::vector<pimstm::runtime::ServingRequest>>
            &batches) override;

    const std::vector<RoundRecord> &rounds() const { return rounds_; }

    /**
     * End-of-run checks: no live pins, no key outside the rank/shadow
     * universe, every stored value written for its own rank. Returns
     * one description per failed check.
     */
    std::vector<std::string> verify() const;

    /** Simulated counters since the preload finished. */
    Counters counters();

  private:
    u32 keyOf(u32 rank) const { return rank + 1; }

    u32 keyspace_;
    pimstm::hostapp::DistributedKv kv_;
    Spans &spans_;
    std::vector<RoundRecord> rounds_;
    std::vector<double> busy0_;
    /** Successful gets that returned a value written for another rank. */
    u64 wrong_gets_ = 0;

    /** @{ Counter baselines taken after the preload. */
    u64 cycles0_ = 0;
    u64 switches0_ = 0;
    u64 elisions0_ = 0;
    pimstm::hostapp::TwoPcStats twopc0_;
    std::vector<pimstm::core::StmStats> stm0_;
    /** @} */
};

} // namespace perfbench

#endif // PERFBENCH_KV_BACKEND_HH
