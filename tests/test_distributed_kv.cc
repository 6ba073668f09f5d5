/**
 * @file
 * Tests for the distributed KV extension (the paper's §5 future-work
 * scenario) and for the TxHashMap data structure it shards: routing,
 * batch semantics, cross-shard relocation, tombstone reuse, and
 * population conservation against a reference std::map.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/stm.hh"
#include "hostapp/distributed_kv.hh"
#include "runtime/tx_hashmap.hh"

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

} // namespace

//
// TxHashMap (single DPU).
//

TEST(TxHashMapTest, InsertLookupEraseRoundTrip)
{
    sim::DpuConfig dc;
    dc.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dc);
    core::StmConfig sc;
    sc.num_tasklets = 1;
    sc.max_read_set = 600;
    auto stm = std::make_unique<core::Stm>(dpu, sc);
    TxHashMap map(dpu, sim::Tier::Mram, 64);

    dpu.addTasklet([&](sim::DpuContext &ctx) {
        core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
            EXPECT_TRUE(map.insert(tx, 10, 100));
            EXPECT_TRUE(map.insert(tx, 20, 200));
            u32 v = 0;
            EXPECT_TRUE(map.lookup(tx, 10, v));
            EXPECT_EQ(v, 100u);
            EXPECT_FALSE(map.lookup(tx, 30, v));
            EXPECT_TRUE(map.erase(tx, 10));
            EXPECT_FALSE(map.lookup(tx, 10, v));
            EXPECT_FALSE(map.erase(tx, 10));
        });
    });
    dpu.run();
    EXPECT_EQ(map.population(dpu), 1u);
}

TEST(TxHashMapTest, UpdateOverwrites)
{
    sim::DpuConfig dc;
    dc.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dc);
    core::StmConfig sc;
    sc.num_tasklets = 1;
    auto stm = std::make_unique<core::Stm>(dpu, sc);
    TxHashMap map(dpu, sim::Tier::Mram, 64);

    dpu.addTasklet([&](sim::DpuContext &ctx) {
        core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
            map.insert(tx, 5, 1);
            map.insert(tx, 5, 2);
        });
    });
    dpu.run();
    u32 v = 0;
    EXPECT_TRUE(map.peekValue(dpu, 5, v));
    EXPECT_EQ(v, 2u);
    EXPECT_EQ(map.population(dpu), 1u);
}

TEST(TxHashMapTest, TombstonesAreReusedAndChainsSurvive)
{
    sim::DpuConfig dc;
    dc.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dc);
    core::StmConfig sc;
    sc.num_tasklets = 1;
    sc.max_read_set = 600;
    sc.max_write_set = 64;
    auto stm = std::make_unique<core::Stm>(dpu, sc);
    // Tiny capacity forces long probe chains and collisions.
    TxHashMap map(dpu, sim::Tier::Mram, 16);

    dpu.addTasklet([&](sim::DpuContext &ctx) {
        core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
            for (u32 k = 1; k <= 12; ++k)
                EXPECT_TRUE(map.insert(tx, k, k));
            // Punch holes, then verify everything else is reachable.
            EXPECT_TRUE(map.erase(tx, 3));
            EXPECT_TRUE(map.erase(tx, 7));
            for (u32 k = 1; k <= 12; ++k) {
                u32 v = 0;
                if (k == 3 || k == 7)
                    EXPECT_FALSE(map.lookup(tx, k, v));
                else
                    EXPECT_TRUE(map.lookup(tx, k, v));
            }
            // Reinsert into the tombstones.
            EXPECT_TRUE(map.insert(tx, 33, 333));
            u32 v = 0;
            EXPECT_TRUE(map.lookup(tx, 33, v));
            EXPECT_EQ(v, 333u);
        });
    });
    dpu.run();
    EXPECT_EQ(map.population(dpu), 11u);
}

TEST(TxHashMapTest, FullTableRejectsNewKeys)
{
    sim::DpuConfig dc;
    dc.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dc);
    core::StmConfig sc;
    sc.num_tasklets = 1;
    sc.max_read_set = 64;
    sc.max_write_set = 32;
    auto stm = std::make_unique<core::Stm>(dpu, sc);
    TxHashMap map(dpu, sim::Tier::Mram, 8);

    bool ninth = true;
    dpu.addTasklet([&](sim::DpuContext &ctx) {
        core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
            for (u32 k = 1; k <= 8; ++k)
                EXPECT_TRUE(map.insert(tx, k, k));
            ninth = map.insert(tx, 9, 9);
        });
    });
    dpu.run();
    EXPECT_FALSE(ninth);
}

TEST(TxHashMapTest, RejectsMarkerKeys)
{
    EXPECT_FALSE(TxHashMap::validKey(TxHashMap::kEmpty));
    EXPECT_FALSE(TxHashMap::validKey(TxHashMap::kTombstone));
    EXPECT_TRUE(TxHashMap::validKey(0));
    EXPECT_TRUE(TxHashMap::validKey(12345));
}

//
// DistributedKv.
//

TEST(DistributedKvTest, BatchMatchesReferenceMap)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg());
    std::map<u32, u32> ref;
    Rng rng(99);

    std::vector<KvOp> batch;
    for (int i = 0; i < 300; ++i) {
        const u32 key = static_cast<u32>(rng.below(200)) + 1;
        // Keys within one batch are unique per op type ordering issue:
        // batches run per-shard concurrently, so same-key ops in one
        // batch have no defined order. Use distinct keys per batch op.
        batch.push_back(KvOp::put(key, key * 10));
        ref[key] = key * 10;
    }
    kv->execute(batch);
    EXPECT_EQ(kv->population(), ref.size());

    for (const auto &[key, value] : ref) {
        u32 v = 0;
        ASSERT_TRUE(kv->peek(key, v));
        EXPECT_EQ(v, value);
    }
}

TEST(DistributedKvTest, GetsSeePriorBatchPuts)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg());
    kv->execute({KvOp::put(1, 11), KvOp::put(2, 22), KvOp::put(3, 33)});
    const auto r =
        kv->execute({KvOp::get(2), KvOp::get(4), KvOp::get(3)});
    EXPECT_TRUE(r[0].ok);
    EXPECT_EQ(r[0].value, 22u);
    EXPECT_FALSE(r[1].ok);
    EXPECT_TRUE(r[2].ok);
    EXPECT_EQ(r[2].value, 33u);
}

TEST(DistributedKvTest, EraseRemovesAcrossShards)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg(8));
    std::vector<KvOp> puts, erases;
    for (u32 k = 1; k <= 64; ++k)
        puts.push_back(KvOp::put(k, k));
    kv->execute(puts);
    EXPECT_EQ(kv->population(), 64u);
    for (u32 k = 1; k <= 64; k += 2)
        erases.push_back(KvOp::erase(k));
    const auto r = kv->execute(erases);
    for (const auto &res : r)
        EXPECT_TRUE(res.ok);
    EXPECT_EQ(kv->population(), 32u);
}

TEST(DistributedKvTest, ShardRoutingIsStableAndBalanced)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg(4));
    std::vector<u32> counts(4, 0);
    for (u32 k = 1; k <= 4000; ++k) {
        const unsigned s = kv->shardOf(k);
        ASSERT_LT(s, 4u);
        EXPECT_EQ(s, kv->shardOf(k)); // stable
        ++counts[s];
    }
    for (u32 c : counts) {
        EXPECT_GT(c, 700u); // roughly balanced
        EXPECT_LT(c, 1300u);
    }
}

TEST(DistributedKvTest, MoveKeyRelocatesAtomically)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg(8));
    kv->execute({KvOp::put(100, 777)});

    // Find a target key on a different shard.
    u32 target = 101;
    while (kv->shardOf(target) == kv->shardOf(100))
        ++target;

    EXPECT_TRUE(kv->moveKey(100, target));
    u32 v = 0;
    EXPECT_FALSE(kv->peek(100, v));
    ASSERT_TRUE(kv->peek(target, v));
    EXPECT_EQ(v, 777u);
    EXPECT_EQ(kv->population(), 1u);
}

TEST(DistributedKvTest, MoveKeyRefusesBadMoves)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg());
    kv->execute({KvOp::put(1, 10), KvOp::put(2, 20)});
    EXPECT_FALSE(kv->moveKey(5, 6));  // absent source
    EXPECT_FALSE(kv->moveKey(1, 2));  // occupied destination
    EXPECT_FALSE(kv->moveKey(1, 1));  // no-op
    u32 v = 0;
    EXPECT_TRUE(kv->peek(1, v));
    EXPECT_EQ(v, 10u);
    EXPECT_EQ(kv->population(), 2u);
}

TEST(DistributedKvTest, TimeAndStatsAccumulate)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg());
    EXPECT_DOUBLE_EQ(kv->elapsedSeconds(), 0.0);
    kv->execute({KvOp::put(1, 1)});
    const double t1 = kv->elapsedSeconds();
    EXPECT_GT(t1, 0.0);
    EXPECT_GE(kv->stmStats().commits, 1u);
    kv->execute({KvOp::get(1)});
    EXPECT_GT(kv->elapsedSeconds(), t1);
}

TEST(DistributedKvTest, StmAndDpuStatsSumTheShards)
{
    auto kv = std::make_unique<DistributedKv>(smallCfg());
    // A key on every shard, so each batch launches every shard once
    // and each shard DPU's stats() holds exactly that launch.
    std::vector<KvOp> puts, gets;
    std::vector<bool> covered(kv->numShards(), false);
    for (u32 k = 1; k <= 64; ++k) {
        puts.push_back(KvOp::put(k, k * 3));
        gets.push_back(KvOp::get(k));
        covered[kv->shardOf(k)] = true;
    }
    for (unsigned s = 0; s < kv->numShards(); ++s)
        ASSERT_TRUE(covered[s]) << "shard " << s;

    sim::DpuStats launches;
    for (const auto *batch : {&puts, &gets}) {
        kv->execute(*batch);
        for (unsigned s = 0; s < kv->numShards(); ++s)
            launches += kv->shardDpu(s).stats();
    }
    const sim::DpuStats dpu = kv->dpuStats();
    EXPECT_EQ(dpu.total_cycles, launches.total_cycles);
    EXPECT_EQ(dpu.phase_cycles, launches.phase_cycles);
    EXPECT_EQ(dpu.instructions, launches.instructions);
    EXPECT_EQ(dpu.mram_bytes_written, launches.mram_bytes_written);
    EXPECT_EQ(dpu.sched_switches, launches.sched_switches);
    EXPECT_EQ(dpu.sched_elisions, launches.sched_elisions);
    EXPECT_EQ(kv->simCycles(), dpu.total_cycles);
    EXPECT_GT(dpu.total_cycles, 0u);

    core::StmStats shards;
    for (unsigned s = 0; s < kv->numShards(); ++s)
        shards += kv->shardStm(s).stats();
    const core::StmStats stm = kv->stmStats();
    EXPECT_EQ(stm.starts, shards.starts);
    EXPECT_EQ(stm.commits, shards.commits);
    EXPECT_EQ(stm.aborts, shards.aborts);
    EXPECT_EQ(stm.reads, shards.reads);
    EXPECT_EQ(stm.writes, shards.writes);
    EXPECT_EQ(stm.commits, puts.size() + gets.size());
}

TEST(DistributedKvTest, RejectsInvalidConfigsAndKeys)
{
    DistributedKvConfig bad = smallCfg();
    bad.shards = 0;
    EXPECT_THROW(DistributedKv{bad}, FatalError);
    bad = smallCfg();
    bad.tasklets_per_dpu = 0;
    EXPECT_THROW(DistributedKv{bad}, FatalError);
    bad.tasklets_per_dpu = 25;
    EXPECT_THROW(DistributedKv{bad}, FatalError);

    auto kv = std::make_unique<DistributedKv>(smallCfg());
    EXPECT_THROW(kv->execute({KvOp::put(TxHashMap::kEmpty, 1)}),
                 FatalError);
}

TEST(DistributedKvTest, ContendedSameShardBatchIsSerializable)
{
    // Many increments of one key via read-modify-write pairs would
    // race; instead hammer distinct keys + heavy same-shard traffic
    // and verify every op landed.
    DistributedKvConfig cfg = smallCfg(2);
    cfg.tasklets_per_dpu = 8;
    auto kv = std::make_unique<DistributedKv>(cfg);

    std::vector<KvOp> ops;
    for (u32 k = 1; k <= 200; ++k)
        ops.push_back(KvOp::put(k, k + 1000));
    const auto r = kv->execute(ops);
    for (const auto &res : r)
        EXPECT_TRUE(res.ok);
    EXPECT_EQ(kv->population(), 200u);
    for (u32 k = 1; k <= 200; ++k) {
        u32 v = 0;
        ASSERT_TRUE(kv->peek(k, v));
        EXPECT_EQ(v, k + 1000);
    }
}
