/**
 * @file
 * Tests for the host-coordinated two-phase-commit path of the
 * distributed KV: routing (fiber-free TwoPcPlan suite), mixed batches,
 * the same-shard degrade, pin-conflict resolution via the serial
 * token, coordinator crash/recovery at both protocol phases, and the
 * serialized baseline's equivalence.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "hostapp/distributed_kv.hh"

using namespace pimstm;
using namespace pimstm::hostapp;
using pimstm::runtime::TxHashMap;

namespace
{

DistributedKvConfig
smallCfg(unsigned shards = 4)
{
    DistributedKvConfig cfg;
    cfg.shards = shards;
    cfg.capacity_per_shard = 256;
    cfg.tasklets_per_dpu = 4;
    cfg.mram_bytes = 1 * 1024 * 1024;
    return cfg;
}

/** A key on shard @p s of an @p shards-way store, from @p from up. */
u32
keyOnShard(unsigned s, unsigned shards, u32 from = 1)
{
    for (u32 k = from;; ++k)
        if (TxHashMap::validKey(k) && shardOfKey(k, shards) == s)
            return k;
}

/** A key on a different shard than @p key. */
u32
keyOffShard(u32 key, unsigned shards, u32 from = 1)
{
    for (u32 k = from;; ++k)
        if (TxHashMap::validKey(k) && k != key &&
            shardOfKey(k, shards) != shardOfKey(key, shards))
            return k;
}

} // namespace

//
// TwoPcPlan: host-pure routing and stats plumbing (no DPU fibers, so
// this suite also runs under TSan).
//

TEST(TwoPcPlan, ShardOfKeyIsStableAndBalanced)
{
    const unsigned shards = 256;
    std::vector<u32> counts(shards, 0);
    for (u32 k = 1; k <= 64 * shards; ++k) {
        const unsigned s = shardOfKey(k, shards);
        ASSERT_LT(s, shards);
        EXPECT_EQ(s, shardOfKey(k, shards));
        ++counts[s];
    }
    for (u32 c : counts) {
        EXPECT_GT(c, 16u);
        EXPECT_LT(c, 256u);
    }
}

TEST(TwoPcPlan, RoutesCrossLocalAndDegenerate)
{
    const unsigned shards = 8;
    const u32 a = keyOnShard(0, shards);
    const u32 a2 = keyOnShard(0, shards, a + 1);
    const u32 b = keyOnShard(3, shards);

    const TxPlan cross = planCrossShardTx(CrossShardTx::move(a, b), shards);
    EXPECT_EQ(cross.route, TxRoute::Cross);
    EXPECT_EQ(cross.src_shard, 0u);
    EXPECT_EQ(cross.dst_shard, 3u);

    const TxPlan local =
        planCrossShardTx(CrossShardTx::move(a, a2), shards);
    EXPECT_EQ(local.route, TxRoute::Local);
    EXPECT_EQ(local.src_shard, local.dst_shard);

    const TxPlan degen =
        planCrossShardTx(CrossShardTx::move(a, a), shards);
    EXPECT_EQ(degen.route, TxRoute::Degenerate);
}

TEST(TwoPcPlan, StatsJsonCarriesEveryField)
{
    TwoPcStats s;
    s.batches = 1;
    s.prepare_rounds = 2;
    s.commit_rounds = 3;
    s.tx_commits = 4;
    s.bytes_down = 5;
    s.bytes_up = 6;
    s.shard_busy_seconds = 1.0;
    s.shard_capacity_seconds = 4.0;
    const std::string j = twoPcStatsJson(s);
    for (const char *field :
         {"batches", "prepare_rounds", "commit_rounds", "tx_commits",
          "tx_predicate_fails", "tx_conflict_retries", "serial_fallbacks",
          "deferred_ops", "participant_redeliveries", "crashes_in_prepare",
          "crashes_in_commit", "bytes_down", "bytes_up",
          "mean_shard_occupancy"})
        EXPECT_NE(j.find(field), std::string::npos) << field;
    EXPECT_DOUBLE_EQ(s.meanShardOccupancy(), 0.25);
    EXPECT_DOUBLE_EQ(TwoPcStats{}.meanShardOccupancy(), 0.0);
}

TEST(TwoPcPlan, StatsSumEveryField)
{
    // Every counter holds a distinct value, so a field summed into the
    // wrong member (or not at all) shows in the sum.
    const auto counters = [](TwoPcStats &s) {
        return std::array<u64 *, 16>{
            &s.batches, &s.prepare_rounds, &s.commit_rounds,
            &s.tx_commits, &s.tx_predicate_fails, &s.tx_conflict_retries,
            &s.serial_fallbacks, &s.deferred_ops,
            &s.participant_redeliveries, &s.crashes_in_prepare,
            &s.crashes_in_commit, &s.shard_recoveries, &s.wal_persists,
            &s.decisions_replayed, &s.bytes_down, &s.bytes_up};
    };
    static_assert(16 * sizeof(u64) + 2 * sizeof(double) ==
                  sizeof(TwoPcStats));
    TwoPcStats a;
    const auto a_counters = counters(a);
    for (size_t i = 0; i < a_counters.size(); ++i)
        *a_counters[i] = 1 + i;
    a.shard_busy_seconds = 0.5;
    a.shard_capacity_seconds = 2.0;

    TwoPcStats sum = a;
    sum += a;
    const auto sum_counters = counters(sum);
    for (size_t i = 0; i < sum_counters.size(); ++i)
        EXPECT_EQ(*sum_counters[i], 2 * (1 + i)) << i;
    EXPECT_DOUBLE_EQ(sum.shard_busy_seconds, 1.0);
    EXPECT_DOUBLE_EQ(sum.shard_capacity_seconds, 4.0);
    EXPECT_DOUBLE_EQ(sum.meanShardOccupancy(), 0.25);
}

//
// CrossShardTx: the 2PC engine proper.
//

TEST(CrossShardTxTest, MixedBatchRunsOpsAndMovesTogether)
{
    const unsigned shards = 8;
    auto kv = std::make_unique<DistributedKv>(smallCfg(shards));
    const u32 src = keyOnShard(1, shards);
    const u32 dst = keyOnShard(5, shards);
    kv->execute({KvOp::put(src, 4242), KvOp::put(777, 1)});

    const auto r = kv->execute(
        {KvOp::get(777), KvOp::put(778, 2), KvOp::erase(777)},
        {CrossShardTx::move(src, dst)});
    ASSERT_EQ(r.ops.size(), 3u);
    ASSERT_EQ(r.txs.size(), 1u);
    EXPECT_TRUE(r.txs[0].committed);
    EXPECT_EQ(r.txs[0].value, 4242u);
    EXPECT_GE(r.txs[0].attempts, 1u);

    u32 v = 0;
    EXPECT_FALSE(kv->peek(src, v));
    ASSERT_TRUE(kv->peek(dst, v));
    EXPECT_EQ(v, 4242u);
    EXPECT_EQ(kv->livePins(), 0u);
    EXPECT_GE(kv->stats().prepare_rounds, 1u);
    EXPECT_GE(kv->stats().commit_rounds, 1u);
    EXPECT_EQ(kv->stats().tx_commits, 1u);
    EXPECT_GT(kv->stats().bytes_down, 0u);
    EXPECT_GT(kv->stats().bytes_up, 0u);
}

TEST(CrossShardTxTest, SameShardMoveDegradesToLocalTransaction)
{
    const unsigned shards = 8;
    auto kv = std::make_unique<DistributedKv>(smallCfg(shards));
    const u32 src = keyOnShard(2, shards);
    const u32 dst = keyOnShard(2, shards, src + 1);
    kv->execute({KvOp::put(src, 99)});

    const auto before = kv->stats();
    const auto r = kv->execute({}, {CrossShardTx::move(src, dst)});
    EXPECT_TRUE(r.txs[0].committed);
    EXPECT_EQ(r.txs[0].value, 99u);

    // A same-shard movek is one shard-local transaction: no prepare
    // fragments, no votes, no decision launch — never a degenerate 2PC.
    EXPECT_EQ(kv->stats().commit_rounds, before.commit_rounds);
    EXPECT_EQ(kv->stats().prepare_rounds, before.prepare_rounds + 1);
    EXPECT_EQ(kv->stats().tx_commits, before.tx_commits + 1);
    EXPECT_EQ(kv->livePins(), 0u);

    u32 v = 0;
    EXPECT_FALSE(kv->peek(src, v));
    ASSERT_TRUE(kv->peek(dst, v));
    EXPECT_EQ(v, 99u);

    // Predicate failures degrade identically.
    kv->execute({KvOp::put(src, 1)});
    const auto r2 = kv->execute({}, {CrossShardTx::move(src, dst)});
    EXPECT_FALSE(r2.txs[0].committed); // dst occupied
    EXPECT_EQ(kv->population(), 2u);
}

TEST(CrossShardTxTest, SameSourceContendersResolveUnderSerialToken)
{
    const unsigned shards = 8;
    DistributedKvConfig cfg = smallCfg(shards);
    cfg.serial_token_after = 1; // first conflict takes the token
    auto kv = std::make_unique<DistributedKv>(cfg);

    const u32 src = keyOnShard(0, shards);
    const u32 d1 = keyOnShard(3, shards);
    const u32 d2 = keyOnShard(5, shards);
    const u32 d3 = keyOnShard(7, shards);
    kv->execute({KvOp::put(src, 321)});

    // Three transactions fight over one source pin; exactly one can
    // commit, the others must fail its predicate after it moves.
    const auto r =
        kv->execute({}, {CrossShardTx::move(src, d1),
                         CrossShardTx::move(src, d2),
                         CrossShardTx::move(src, d3)});
    unsigned committed = 0;
    for (const auto &t : r.txs)
        committed += t.committed ? 1 : 0;
    EXPECT_EQ(committed, 1u);
    EXPECT_EQ(kv->population(), 1u);
    EXPECT_EQ(kv->livePins(), 0u);
    EXPECT_GE(kv->stats().tx_conflict_retries, 1u);

    u32 v = 0;
    unsigned present = 0;
    for (u32 k : {d1, d2, d3})
        if (kv->peek(k, v)) {
            ++present;
            EXPECT_EQ(v, 321u);
        }
    EXPECT_EQ(present, 1u);
    EXPECT_FALSE(kv->peek(src, v));
}

TEST(CrossShardTxTest, MutualMoveCycleTerminatesWithBothRefused)
{
    const unsigned shards = 8;
    DistributedKvConfig cfg = smallCfg(shards);
    cfg.serial_token_after = 1;
    auto kv = std::make_unique<DistributedKv>(cfg);

    const u32 k1 = keyOnShard(1, shards);
    const u32 k2 = keyOnShard(6, shards);
    kv->execute({KvOp::put(k1, 11), KvOp::put(k2, 22)});

    // A: k1 -> k2 and B: k2 -> k1. No serial order can commit either
    // (each destination is the other's occupied source), so the only
    // correct outcome is both refused — and the coordinator must not
    // livelock on the crosswise pin conflicts getting there.
    const auto r = kv->execute({}, {CrossShardTx::move(k1, k2),
                                    CrossShardTx::move(k2, k1)});
    EXPECT_FALSE(r.txs[0].committed);
    EXPECT_FALSE(r.txs[1].committed);
    EXPECT_EQ(kv->livePins(), 0u);

    u32 v = 0;
    ASSERT_TRUE(kv->peek(k1, v));
    EXPECT_EQ(v, 11u);
    ASSERT_TRUE(kv->peek(k2, v));
    EXPECT_EQ(v, 22u);
}

TEST(CrossShardTxTest, ChainedMovesCommitInSomeSerialOrder)
{
    const unsigned shards = 8;
    auto kv = std::make_unique<DistributedKv>(smallCfg(shards));
    const u32 a = keyOnShard(0, shards);
    const u32 b = keyOffShard(a, shards);
    const u32 c = keyOffShard(b, shards, b + 1);
    kv->execute({KvOp::put(a, 1), KvOp::put(b, 2)});

    // A: a -> b (dst occupied unless B commits first), B: b -> c.
    // Serializable outcomes: {B then A: both commit} or {A refused,
    // B commits}. Either way b's old value ends at c.
    const auto r = kv->execute(
        {}, {CrossShardTx::move(a, b), CrossShardTx::move(b, c)});
    EXPECT_TRUE(r.txs[1].committed);
    u32 v = 0;
    ASSERT_TRUE(kv->peek(c, v));
    EXPECT_EQ(v, 2u);
    if (r.txs[0].committed) {
        EXPECT_FALSE(kv->peek(a, v));
        ASSERT_TRUE(kv->peek(b, v));
        EXPECT_EQ(v, 1u);
    } else {
        ASSERT_TRUE(kv->peek(a, v));
        EXPECT_EQ(v, 1u);
        EXPECT_FALSE(kv->peek(b, v));
    }
    EXPECT_EQ(kv->population(), 2u);
    EXPECT_EQ(kv->livePins(), 0u);
}

TEST(CrossShardTxTest, SerializedBaselineMatchesMoveKeySemantics)
{
    const unsigned shards = 8;
    auto kv = std::make_unique<DistributedKv>(smallCfg(shards));
    const u32 src = keyOnShard(4, shards);
    const u32 dst = keyOffShard(src, shards);
    kv->execute({KvOp::put(src, 5), KvOp::put(1000, 6)});

    EXPECT_FALSE(kv->moveKeySerialized(src, src));
    EXPECT_FALSE(kv->moveKeySerialized(12345, dst)); // absent source
    EXPECT_FALSE(kv->moveKeySerialized(src, 1000));  // occupied dest
    EXPECT_TRUE(kv->moveKeySerialized(src, dst));
    u32 v = 0;
    EXPECT_FALSE(kv->peek(src, v));
    ASSERT_TRUE(kv->peek(dst, v));
    EXPECT_EQ(v, 5u);
    EXPECT_EQ(kv->population(), 2u);
}

TEST(CrossShardTxTest, DeferredOpsOrderAfterInFlightMove)
{
    const unsigned shards = 4;
    DistributedKvConfig cfg = smallCfg(shards);
    cfg.tasklets_per_dpu = 8;
    auto kv = std::make_unique<DistributedKv>(cfg);
    const u32 src = keyOnShard(0, shards);
    const u32 dst = keyOffShard(src, shards);
    kv->execute({KvOp::put(src, 7)});

    // Ops on both endpoints share the launch with the move's prepare
    // fragments. Whatever the interleaving, the batch result must be
    // consistent with the final state and no op may observe the
    // reservation placeholder.
    std::vector<KvOp> ops;
    for (int i = 0; i < 6; ++i) {
        ops.push_back(KvOp::get(src));
        ops.push_back(KvOp::get(dst));
    }
    const auto r = kv->execute(ops, {CrossShardTx::move(src, dst)});
    EXPECT_TRUE(r.txs[0].committed);
    for (size_t i = 0; i < ops.size(); ++i) {
        const auto &res = r.ops[i];
        if (ops[i].key == src) {
            // Present (pre-move) or absent (post-move); never garbage.
            if (res.ok) {
                EXPECT_EQ(res.value, 7u);
            }
        } else if (res.ok) {
            EXPECT_EQ(res.value, 7u); // post-move value, never 0
        }
    }
    EXPECT_EQ(kv->population(), 1u);
    EXPECT_EQ(kv->livePins(), 0u);
}

//
// Coordinator crash / recovery, across every STM kind.
//

TEST(CrossShardTxTest, CoordinatorCrashAfterPrepareRecoversByAbort)
{
    const unsigned shards = 8;
    for (core::StmKind kind : core::allStmKindsExtended()) {
        DistributedKvConfig cfg = smallCfg(shards);
        cfg.kind = kind;
        auto kv = std::make_unique<DistributedKv>(cfg);
        const u32 src = keyOnShard(1, shards);
        const u32 dst = keyOnShard(5, shards);
        kv->execute({KvOp::put(src, 1234)});

        kv->injectCoordinatorCrash(DistributedKv::CrashPoint::AfterPrepare);
        EXPECT_THROW(kv->execute({}, {CrossShardTx::move(src, dst)}),
                     DistributedKv::CoordinatorCrashed);
        EXPECT_TRUE(kv->needsRecovery());
        EXPECT_THROW(kv->execute({KvOp::get(src)}), FatalError);
        EXPECT_GT(kv->livePins(), 0u); // prepare pinned, nothing decided

        // No decision was logged: recovery presumes abort. The store
        // must look as if the movek never happened.
        kv->recover();
        EXPECT_FALSE(kv->needsRecovery());
        EXPECT_EQ(kv->livePins(), 0u);
        u32 v = 0;
        ASSERT_TRUE(kv->peek(src, v)) << core::stmKindName(kind);
        EXPECT_EQ(v, 1234u);
        EXPECT_FALSE(kv->peek(dst, v));
        EXPECT_EQ(kv->population(), 1u);

        // And the store still works — including the same move.
        EXPECT_TRUE(kv->moveKey(src, dst));
        ASSERT_TRUE(kv->peek(dst, v));
        EXPECT_EQ(v, 1234u);
    }
}

TEST(CrossShardTxTest, CoordinatorCrashMidDecisionRedeliversIdempotently)
{
    const unsigned shards = 8;
    for (core::StmKind kind : core::allStmKindsExtended()) {
        for (unsigned delivered : {0u, 1u}) {
            DistributedKvConfig cfg = smallCfg(shards);
            cfg.kind = kind;
            auto kv = std::make_unique<DistributedKv>(cfg);
            const u32 src = keyOnShard(2, shards);
            const u32 dst = keyOnShard(6, shards);
            kv->execute({KvOp::put(src, 55)});

            // Crash after the commit decision reached `delivered` of
            // the two involved shards.
            kv->injectCoordinatorCrash(
                DistributedKv::CrashPoint::MidDecision, delivered);
            EXPECT_THROW(kv->execute({}, {CrossShardTx::move(src, dst)}),
                         DistributedKv::CoordinatorCrashed);
            EXPECT_TRUE(kv->needsRecovery());

            // The decision was logged commit: recovery re-delivers to
            // the shards that missed it. All-or-nothing across shards.
            kv->recover();
            EXPECT_EQ(kv->livePins(), 0u);
            u32 v = 0;
            EXPECT_FALSE(kv->peek(src, v)) << core::stmKindName(kind);
            ASSERT_TRUE(kv->peek(dst, v)) << core::stmKindName(kind);
            EXPECT_EQ(v, 55u);
            EXPECT_EQ(kv->population(), 1u);
            if (delivered == 1) {
                EXPECT_GE(kv->stats().participant_redeliveries +
                              kv->stats().commit_rounds,
                          2u);
            }
        }
    }
}

TEST(CrossShardTxTest, RecoverWithoutCrashIsANoOp)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg());
    kv->execute({KvOp::put(1, 2)});
    kv->recover();
    EXPECT_FALSE(kv->needsRecovery());
    u32 v = 0;
    ASSERT_TRUE(kv->peek(1, v));
    EXPECT_EQ(v, 2u);
}

TEST(CrossShardTxTest, PinTablesAreRecycledAcrossManyBatches)
{
    // Many sequential moveks through one shard pair: without pin-table
    // recycling the tombstones would eventually overflow the STM
    // read-set budget on absent-key probes.
    const unsigned shards = 4;
    DistributedKvConfig cfg = smallCfg(shards);
    cfg.max_inflight_per_shard = 4; // tiny pin tables
    auto kv = std::make_unique<DistributedKv>(cfg);

    u32 key = keyOnShard(0, shards);
    kv->execute({KvOp::put(key, 9000)});
    for (int i = 0; i < 64; ++i) {
        const u32 next = (i % 2 == 0) ? keyOffShard(key, shards)
                                      : keyOnShard(0, shards);
        ASSERT_TRUE(kv->moveKey(key, next)) << "iteration " << i;
        key = next;
    }
    u32 v = 0;
    ASSERT_TRUE(kv->peek(key, v));
    EXPECT_EQ(v, 9000u);
    EXPECT_EQ(kv->population(), 1u);
    EXPECT_EQ(kv->livePins(), 0u);
}
