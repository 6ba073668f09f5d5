#include "kv_backend.hh"

#include <sstream>

#include "util/logging.hh"

namespace perfbench
{

using pimstm::hostapp::CrossShardTx;
using pimstm::hostapp::KvOp;
using pimstm::runtime::ServingRequest;

namespace
{

u32
valueFor(u32 rank, u32 stamp)
{
    return (rank << 16) | (stamp & 0xffffu);
}

u32
rankOfValue(u32 value)
{
    return value >> 16;
}

} // namespace

KvBackend::KvBackend(u32 keyspace,
                     const pimstm::hostapp::DistributedKvConfig &cfg,
                     Spans &spans)
    : keyspace_(keyspace), kv_(cfg), spans_(spans)
{
    pimstm::panicIf(keyspace == 0 || keyspace >= (1u << 15),
                    "keyspace must fit the rank encoding");
    std::vector<KvOp> preload;
    preload.reserve(keyspace);
    for (u32 r = 0; r < keyspace; ++r)
        preload.push_back(KvOp::put(keyOf(r), valueFor(r, 0xffffu)));
    for (const auto &res : kv_.execute(preload))
        pimstm::panicIf(!res.ok, "preload put failed");

    busy0_.resize(kv_.numShards());
    cycles0_ = kv_.simCycles();
    switches0_ = kv_.schedSwitches();
    elisions0_ = kv_.schedElisions();
    twopc0_ = kv_.stats();
    for (unsigned s = 0; s < kv_.numShards(); ++s)
        stm0_.push_back(kv_.shardStm(s).stats());
}

unsigned
KvBackend::shardOf(const ServingRequest &req) const
{
    return kv_.shardOf(keyOf(req.key));
}

pimstm::runtime::RoundCost
KvBackend::executeRound(
    const std::vector<std::vector<ServingRequest>> &batches)
{
    RoundRecord rec;
    std::vector<KvOp> ops;
    std::vector<u32> get_rank; // per op: rank for gets, ~0 otherwise
    std::vector<CrossShardTx> txs;
    for (size_t s = 0; s < batches.size(); ++s) {
        for (const ServingRequest &r : batches[s]) {
            rec.requests.push_back(r.value);
            rec.shards.push_back(static_cast<u32>(s));
            const u32 key = keyOf(r.key);
            switch (r.op) {
              case kKvGet:
                ops.push_back(KvOp::get(key));
                get_rank.push_back(r.key);
                break;
              case kKvPut:
                ops.push_back(KvOp::put(key, valueFor(r.key, r.value)));
                get_rank.push_back(~0u);
                break;
              default: {
                // Ping-pong the rank between its key and its shadow;
                // the direction follows the store's current state.
                const u32 shadow = key + keyspace_;
                u32 v = 0;
                txs.push_back(kv_.peek(key, v)
                                  ? CrossShardTx::move(key, shadow)
                                  : CrossShardTx::move(shadow, key));
                break;
              }
            }
        }
    }

    const double e0 = kv_.elapsedSeconds();
    for (unsigned s = 0; s < kv_.numShards(); ++s)
        busy0_[s] = kv_.shardBusySeconds(s);
    pimstm::hostapp::KvBatchResult res;
    {
        SpanScope span(spans_, kSpanExecute);
        if (spans_.enabled())
            spans_.attachRequests(span.id(), rec.requests);
        res = kv_.execute(ops, txs);
    }
    for (size_t i = 0; i < ops.size(); ++i)
        if (get_rank[i] != ~0u && res.ops[i].ok
            && rankOfValue(res.ops[i].value) != get_rank[i])
            ++wrong_gets_;

    rec.cost.round_seconds = kv_.elapsedSeconds() - e0;
    rec.cost.shard_busy_seconds.resize(kv_.numShards());
    for (unsigned s = 0; s < kv_.numShards(); ++s)
        rec.cost.shard_busy_seconds[s] = kv_.shardBusySeconds(s) - busy0_[s];
    rounds_.push_back(rec);
    return rec.cost;
}

std::vector<std::string>
KvBackend::verify() const
{
    std::vector<std::string> errors;
    if (kv_.livePins() != 0)
        errors.push_back("serving left " + std::to_string(kv_.livePins())
                         + " pins outstanding");
    u32 present = 0;
    for (u32 key = 1; key <= 2 * keyspace_; ++key) {
        u32 v = 0;
        if (!kv_.peek(key, v))
            continue;
        ++present;
        const u32 rank = (key - 1) % keyspace_;
        if (rankOfValue(v) != rank) {
            std::ostringstream os;
            os << "key " << key << " holds a value written for rank "
               << rankOfValue(v) << ", not " << rank;
            errors.push_back(os.str());
        }
    }
    if (present != kv_.population())
        errors.push_back("the store holds "
                         + std::to_string(kv_.population() - present)
                         + " keys outside the rank/shadow universe");
    if (wrong_gets_ != 0)
        errors.push_back(std::to_string(wrong_gets_)
                         + " gets returned another rank's value");
    return errors;
}

Counters
KvBackend::counters()
{
    Counters c;
    c.cycles = kv_.simCycles() - cycles0_;
    c.switches = kv_.schedSwitches() - switches0_;
    c.elisions = kv_.schedElisions() - elisions0_;
    for (unsigned s = 0; s < kv_.numShards(); ++s) {
        c.addStm(kv_.shardStm(s).stats());
        c.addStm(stm0_[s], -1);
    }
    const pimstm::hostapp::TwoPcStats &t = kv_.stats();
    c.prepare_rounds = t.prepare_rounds - twopc0_.prepare_rounds;
    c.commit_rounds = t.commit_rounds - twopc0_.commit_rounds;
    c.tx_commits = t.tx_commits - twopc0_.tx_commits;
    c.tx_conflict_retries = t.tx_conflict_retries - twopc0_.tx_conflict_retries;
    c.serial_fallbacks = t.serial_fallbacks - twopc0_.serial_fallbacks;
    c.deferred_ops = t.deferred_ops - twopc0_.deferred_ops;
    c.wal_persists = t.wal_persists - twopc0_.wal_persists;
    c.link_bytes = (t.bytes_down + t.bytes_up)
        - (twopc0_.bytes_down + twopc0_.bytes_up);
    return c;
}

} // namespace perfbench
