/**
 * @file
 * Tests for the transactional-boosting library (runtime/boosted.hh):
 * fiber-free plan checks (BoostedPlan.*, the TSan suite), abstract-lock
 * protocol behaviour, randomized differential runs of boosted vs
 * word-based structures across the full STM matrix, semantic undo
 * under injected aborts and crashes, and the boosted workload paths'
 * own verification.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/stm.hh"
#include "runtime/boosted.hh"
#include "runtime/driver.hh"
#include "runtime/tx_hashmap.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workloads/skiplist.hh"
#include "workloads/vacation.hh"

using namespace pimstm;
using namespace pimstm::core;
using namespace pimstm::runtime;
using namespace pimstm::sim;

namespace
{

DpuConfig
smallDpu()
{
    DpuConfig cfg;
    cfg.mram_bytes = 2 * 1024 * 1024;
    return cfg;
}

std::unique_ptr<Stm>
makeBoostedStm(Dpu &dpu, StmKind kind, unsigned tasklets)
{
    StmConfig cfg;
    cfg.kind = kind;
    cfg.num_tasklets = tasklets;
    cfg.max_read_set = 128;
    cfg.max_write_set = 32;
    cfg.boosting = true;
    return std::make_unique<Stm>(dpu, cfg);
}

std::string
kindName(const testing::TestParamInfo<StmKind> &info)
{
    std::string s = stmKindName(info.param);
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

} // namespace

//
// BoostedPlan: fiber-free host-pure logic (runs under TSan — no
// simulated tasklets execute in these tests).
//

TEST(BoostedPlan, StripeHashIsDeterministicAndSpreads)
{
    std::set<u32> stripes;
    for (u32 key = 0; key < 1024; ++key) {
        const u32 h1 = AbstractLockManager::stripeHash(key);
        const u32 h2 = AbstractLockManager::stripeHash(key);
        EXPECT_EQ(h1, h2);
        stripes.insert(h1 & 63u);
    }
    // 1024 keys over 64 stripes: a hash this badly skewed would break
    // the commutativity win, so require near-full stripe coverage.
    EXPECT_GE(stripes.size(), 60u);
}

TEST(BoostedPlan, LatchKeysDistinctAcrossStructuresAndInstances)
{
    std::set<u32> keys;
    for (u32 sid = 0; sid < kNumStructures; ++sid)
        for (u32 inst = 0; inst < 16; ++inst)
            keys.insert(boostLatchKey(static_cast<StructureId>(sid),
                                      inst));
    EXPECT_EQ(keys.size(), kNumStructures * 16);
}

TEST(BoostedPlan, ManagerStartsQuiescentAndValidatesStripes)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.num_tasklets = 1;
    cfg.boosting = true;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    AbstractLockManager locks(dpu, *stm, StructureId::Map, 64);
    EXPECT_TRUE(locks.quiescent());
    EXPECT_EQ(locks.numStripes(), 64u);
    for (u32 key = 0; key < 256; ++key)
        EXPECT_LT(locks.stripeOf(key), 64u);
}

TEST(BoostedPlan, NonPowerOfTwoStripesRejected)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.num_tasklets = 1;
    cfg.boosting = true;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    EXPECT_THROW(AbstractLockManager(dpu, *stm, StructureId::Map, 48),
                 FatalError);
}

//
// Abstract-lock protocol (fiber-based).
//

class BoostedLockAll : public testing::TestWithParam<StmKind>
{
};

TEST_P(BoostedLockAll, SharedHoldersCommuteExclusiveWaits)
{
    Dpu dpu(smallDpu());
    auto stm = makeBoostedStm(dpu, GetParam(), 4);
    AbstractLockManager locks(dpu, *stm, StructureId::Map, 64);

    // Tasklets repeatedly take overlapping shared/exclusive stripe
    // holds; the run must terminate (timeout aborts break deadlocks)
    // with consistent counters and a quiescent lock table.
    dpu.addTasklets(4, [&](DpuContext &ctx) {
        for (u32 i = 0; i < 20; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                const bool exclusive = (i + ctx.taskletId()) % 3 == 0;
                locks.acquireKey(tx, i % 8, exclusive);
                locks.acquireKey(tx, i % 8, exclusive); // reentrant
            });
        }
    });
    dpu.run();
    EXPECT_TRUE(locks.quiescent());
    EXPECT_EQ(stm->stats().commits, 4u * 20u);
    EXPECT_GT(stm->stats().boosted_acquires, 0u);
}

TEST_P(BoostedLockAll, UpgradeSharedToExclusiveInPlace)
{
    Dpu dpu(smallDpu());
    auto stm = makeBoostedStm(dpu, GetParam(), 1);
    AbstractLockManager locks(dpu, *stm, StructureId::Map, 64);
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            locks.acquireKey(tx, 5, false);
            locks.acquireKey(tx, 5, true); // upgrade
            locks.acquireKey(tx, 5, false); // covered by exclusive
        });
    });
    dpu.run();
    EXPECT_TRUE(locks.quiescent());
    EXPECT_EQ(stm->stats().commits, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BoostedLockAll,
                         testing::ValuesIn(allStmKindsExtended()),
                         kindName);

//
// BoostedMap / BoostedSet: randomized differential runs against the
// word-based TxHashMap under every STM kind. Tasklets mutate disjoint
// key ranges (mutations commute) and look up across ranges, so the
// final state is independent of interleaving and must match exactly.
//

class BoostedMapAll : public testing::TestWithParam<StmKind>
{
  protected:
    /** Final state of a partitioned random run; host reference. */
    std::map<u32, u32>
    runPartitioned(bool boosted, const FaultPlan &faults,
                   std::map<u32, u32> *reference = nullptr)
    {
        DpuConfig dc = smallDpu();
        dc.faults = faults;
        dc.seed = 99;
        Dpu dpu(dc);
        StmConfig cfg;
        cfg.kind = GetParam();
        cfg.num_tasklets = 4;
        cfg.max_read_set = 160;
        cfg.max_write_set = 32;
        cfg.boosting = boosted;
        auto stm = std::make_unique<Stm>(dpu, cfg);
        TxHashMap map(dpu, Tier::Mram, 256);
        std::unique_ptr<BoostedMap> bmap;
        if (boosted)
            bmap = std::make_unique<BoostedMap>(dpu, *stm, map);

        // Per-tasklet deterministic op streams over disjoint key
        // ranges [t*64, t*64+48).
        std::array<std::map<u32, u32>, 4> expect;
        dpu.addTasklets(4, [&](DpuContext &ctx) {
            const u32 t = ctx.taskletId();
            Rng rng(deriveSeed(1234, t));
            for (u32 i = 0; i < 120; ++i) {
                // 32 live keys per tasklet keeps the 256-slot table at
                // <= 0.5 load, so word-mode probe chains stay well
                // inside the configured read-set budget.
                const u32 key = t * 64 + static_cast<u32>(rng.below(32));
                const u32 pick = static_cast<u32>(rng.below(10));
                if (pick < 5) {
                    const u32 value = key * 7 + pick;
                    bool ok = false;
                    atomically(*stm, ctx, [&](TxHandle &tx) {
                        ok = boosted ? bmap->insert(tx, key, value)
                                     : map.insert(tx, key, value);
                    });
                    if (ok)
                        expect[t][key] = value;
                } else if (pick < 8) {
                    bool ok = false;
                    atomically(*stm, ctx, [&](TxHandle &tx) {
                        ok = boosted ? bmap->erase(tx, key)
                                     : map.erase(tx, key);
                    });
                    if (ok)
                        expect[t].erase(key);
                } else {
                    // Cross-range lookup: contended but read-only.
                    const u32 other = (key + 64) % 256;
                    u32 v = 0;
                    atomically(*stm, ctx, [&](TxHandle &tx) {
                        boosted ? bmap->lookup(tx, other, v)
                                : map.lookup(tx, other, v);
                    });
                }
            }
        });
        dpu.run();
        if (boosted) {
            EXPECT_TRUE(bmap->locks().quiescent());
        }

        if (reference) {
            reference->clear();
            for (const auto &e : expect)
                reference->insert(e.begin(), e.end());
        }

        // Read the final state back without timing.
        std::map<u32, u32> state;
        for (u32 key = 0; key < 256; ++key) {
            u32 v = 0;
            if (map.peekValue(dpu, key, v))
                state[key] = v;
        }
        return state;
    }
};

TEST_P(BoostedMapAll, DifferentialMatchesWordBasedAndReference)
{
    std::map<u32, u32> reference;
    const auto word = runPartitioned(false, FaultPlan{}, &reference);
    const auto boosted = runPartitioned(true, FaultPlan{});
    EXPECT_EQ(word, reference);
    EXPECT_EQ(boosted, reference);
}

TEST_P(BoostedMapAll, SemanticUndoRestoresStateUnderInjectedAborts)
{
    // An abort storm forces semantic undo replay on most transactions;
    // the final state must still match the committed-ops reference.
    const FaultPlan faults =
        FaultPlan::parse("seed=5;abort=300");
    std::map<u32, u32> reference;
    const auto boosted = runPartitioned(true, faults, &reference);
    EXPECT_EQ(boosted, reference);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BoostedMapAll,
                         testing::ValuesIn(allStmKindsExtended()),
                         kindName);

TEST(BoostedSetTest, AddContainsRemoveSemantics)
{
    Dpu dpu(smallDpu());
    auto stm = makeBoostedStm(dpu, StmKind::NOrec, 1);
    TxHashMap map(dpu, Tier::Mram, 64);
    BoostedSet set(dpu, *stm, map);
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            EXPECT_TRUE(set.add(tx, 7));
            EXPECT_FALSE(set.add(tx, 7)); // already present
            EXPECT_TRUE(set.contains(tx, 7));
            EXPECT_FALSE(set.contains(tx, 8));
            EXPECT_TRUE(set.remove(tx, 7));
            EXPECT_FALSE(set.remove(tx, 7));
        });
    });
    dpu.run();
    EXPECT_TRUE(set.locks().quiescent());
}

//
// Sharded size counters (satellite: TxHashMap::size()).
//

TEST(TxHashMapSize, ShardedCountersTrackSizeTransactionally)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.num_tasklets = 5; // 4 workers + the later size-reading tasklet
    cfg.max_read_set = 128;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    TxHashMap map(dpu, Tier::Mram, 256);
    map.enableSizeCounters(dpu, Tier::Mram, 4);

    dpu.addTasklets(4, [&](DpuContext &ctx) {
        const u32 t = ctx.taskletId();
        for (u32 i = 0; i < 20; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                map.insert(tx, t * 32 + i, i);
            });
        }
        for (u32 i = 0; i < 5; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                map.erase(tx, t * 32 + i);
            });
        }
    });
    dpu.run();

    u32 size = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx,
                   [&](TxHandle &tx) { size = map.size(tx); });
    });
    dpu.run();
    EXPECT_EQ(size, 4u * 15u);
}

TEST(TxHashMapSize, BoostedSizeSumsShardsUnderFullSharedLock)
{
    Dpu dpu(smallDpu());
    // 2 workers + the later size-reading tasklet.
    auto stm = makeBoostedStm(dpu, StmKind::TinyEtlWb, 3);
    TxHashMap map(dpu, Tier::Mram, 128);
    map.enableSizeCounters(dpu, Tier::Mram, 4);
    BoostedMap bmap(dpu, *stm, map);

    dpu.addTasklets(2, [&](DpuContext &ctx) {
        const u32 t = ctx.taskletId();
        for (u32 i = 0; i < 10; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                bmap.insert(tx, t * 16 + i, i);
            });
        }
    });
    dpu.run();

    u32 size = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx,
                   [&](TxHandle &tx) { size = bmap.size(tx); });
    });
    dpu.run();
    EXPECT_EQ(size, 20u);
    EXPECT_TRUE(bmap.locks().quiescent());
}

TEST(TxHashMapSize, EnableTwiceOrNonEmptyPanics)
{
    Dpu dpu(smallDpu());
    TxHashMap map(dpu, Tier::Mram, 64);
    map.enableSizeCounters(dpu, Tier::Mram, 2);
    EXPECT_THROW(map.enableSizeCounters(dpu, Tier::Mram, 2),
                 PanicError);

    TxHashMap map2(dpu, Tier::Mram, 64);
    StmConfig cfg;
    cfg.num_tasklets = 1;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx,
                   [&](TxHandle &tx) { map2.insert(tx, 1, 1); });
    });
    dpu.run();
    EXPECT_THROW(map2.enableSizeCounters(dpu, Tier::Mram, 2),
                 PanicError);
}

//
// BoostedQueue.
//

class BoostedQueueAll : public testing::TestWithParam<StmKind>
{
};

TEST_P(BoostedQueueAll, ConservationAndFifoPerProducer)
{
    Dpu dpu(smallDpu());
    auto stm = makeBoostedStm(dpu, GetParam(), 4);
    BoostedQueue q(dpu, *stm, Tier::Mram, 1024);

    // Two producers, two consumers. Each produced value encodes
    // (producer, sequence); consumers record what they pop.
    std::array<std::vector<u32>, 4> popped;
    dpu.addTasklets(4, [&](DpuContext &ctx) {
        const u32 t = ctx.taskletId();
        if (t < 2) {
            for (u32 i = 0; i < 50; ++i) {
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    q.enqueue(tx, (t << 16) | i);
                });
            }
        } else {
            for (u32 i = 0; i < 40; ++i) {
                u32 v = 0;
                bool ok = false;
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    ok = q.dequeue(tx, v);
                });
                if (ok)
                    popped[t].push_back(v);
            }
        }
    });
    dpu.run();
    EXPECT_TRUE(q.locks().quiescent());

    size_t total_popped = 0;
    std::set<u32> seen;
    for (const auto &p : popped) {
        total_popped += p.size();
        for (u32 v : p)
            EXPECT_TRUE(seen.insert(v).second) // popped exactly once
                << "value popped twice: " << v;
    }
    EXPECT_EQ(q.sizeHost(dpu), static_cast<u32>(100 - total_popped));

    // FIFO per producer: each consumer sees a producer's values in
    // strictly increasing sequence order.
    for (const auto &p : popped) {
        for (u32 producer = 0; producer < 2; ++producer) {
            s64 prev = -1;
            for (u32 v : p) {
                if ((v >> 16) != producer)
                    continue;
                EXPECT_GT(static_cast<s64>(v & 0xffffu), prev);
                prev = static_cast<s64>(v & 0xffffu);
            }
        }
    }
}

TEST_P(BoostedQueueAll, UndoRetreatsPointersUnderInjectedAborts)
{
    DpuConfig dc = smallDpu();
    dc.faults = FaultPlan::parse("seed=11;abort=250");
    dc.seed = 7;
    Dpu dpu(dc);
    auto stm = makeBoostedStm(dpu, GetParam(), 2);
    BoostedQueue q(dpu, *stm, Tier::Mram, 256);

    u64 enq = 0, deq = 0;
    dpu.addTasklets(2, [&](DpuContext &ctx) {
        const u32 t = ctx.taskletId();
        for (u32 i = 0; i < 30; ++i) {
            if (t == 0) {
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    q.enqueue(tx, i);
                });
                ++enq;
            } else {
                u32 v = 0;
                bool ok = false;
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    ok = q.dequeue(tx, v);
                });
                if (ok)
                    ++deq;
            }
        }
    });
    dpu.run();
    EXPECT_TRUE(q.locks().quiescent());
    EXPECT_EQ(q.sizeHost(dpu), static_cast<u32>(enq - deq));
    EXPECT_GT(stm->stats().semantic_undos, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BoostedQueueAll,
                         testing::ValuesIn(allStmKindsExtended()),
                         kindName);

//
// Boosted workload paths: the workloads' own verify() is the oracle
// (exact size + sortedness for the skip list, availability accounting
// for vacation).
//

class BoostedWorkloadsAll : public testing::TestWithParam<StmKind>
{
};

TEST_P(BoostedWorkloadsAll, SkipListInvariantsHoldBoosted)
{
    workloads::SkipListParams p =
        workloads::SkipListParams::highContention(25);
    workloads::SkipList wl(p);
    RunSpec s;
    s.kind = GetParam();
    s.tasklets = 6;
    s.seed = 17;
    s.mram_bytes = 8 * 1024 * 1024;
    s.boosting = true;
    const auto r = runWorkload(wl, s); // verify() checks the structure
    EXPECT_EQ(r.stm.commits, 6u * 25u);
    EXPECT_GT(r.stm.boosted_acquires, 0u);
}

TEST_P(BoostedWorkloadsAll, SkipListSurvivesFaultPlanBoosted)
{
    workloads::SkipListParams p =
        workloads::SkipListParams::highContention(20);
    workloads::SkipList wl(p);
    RunSpec s;
    s.kind = GetParam();
    s.tasklets = 4;
    s.seed = 29;
    s.mram_bytes = 8 * 1024 * 1024;
    s.boosting = true;
    s.faults = FaultPlan::parse("seed=3;abort=200;acq-delay=60:200");
    runWorkload(wl, s); // verify() must still pass
}

TEST_P(BoostedWorkloadsAll, VacationAccountingHoldsBoosted)
{
    workloads::VacationParams p =
        workloads::VacationParams::highContention(20);
    workloads::Vacation wl(p);
    RunSpec s;
    s.kind = GetParam();
    s.tasklets = 6;
    s.seed = 41;
    s.mram_bytes = 8 * 1024 * 1024;
    s.boosting = true;
    const auto r = runWorkload(wl, s); // verify() checks accounting
    EXPECT_EQ(r.stm.commits, 6u * 20u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BoostedWorkloadsAll,
                         testing::ValuesIn(allStmKindsExtended()),
                         kindName);

//
// Equivalence: a boosting-off run must not change behaviour (the
// CI-level bitwise gate on the figure CSVs is the strong version; this
// is the in-tree smoke check).
//

TEST(BoostedOff, WordBasedRunsUnchangedWithBoostingFlagOff)
{
    workloads::SkipListParams p =
        workloads::SkipListParams::highContention(15);
    RunSpec s;
    s.kind = StmKind::NOrec;
    s.tasklets = 4;
    s.seed = 5;
    s.mram_bytes = 8 * 1024 * 1024;

    workloads::SkipList a(p);
    const auto base = runWorkload(a, s);
    RunSpec s_off = s;
    s_off.boosting = false; // explicit off == default
    workloads::SkipList b(p);
    const auto off = runWorkload(b, s_off);
    EXPECT_EQ(base.stm.commits, off.stm.commits);
    EXPECT_EQ(base.stm.aborts, off.stm.aborts);
    EXPECT_EQ(base.dpu.total_cycles, off.dpu.total_cycles);
    EXPECT_EQ(off.stm.boosted_acquires, 0u);
}
