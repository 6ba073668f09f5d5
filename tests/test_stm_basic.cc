/**
 * @file
 * Parameterized correctness tests run against ALL seven STM
 * implementations x both metadata placements: read-your-writes,
 * atomicity under contention, isolation, abort statistics, capacity
 * enforcement. These are the core invariants every member of the
 * taxonomy must uphold.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <type_traits>

#include "core/stm.hh"
#include "runtime/shared_array.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;
using pimstm::runtime::SharedArray32;

namespace
{

struct Param
{
    StmKind kind;
    MetadataTier tier;
};

std::string
paramName(const testing::TestParamInfo<Param> &info)
{
    std::string s = stmKindName(info.param.kind);
    s += info.param.tier == MetadataTier::Wram ? "_WRAM" : "_MRAM";
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

std::vector<Param>
allParams()
{
    std::vector<Param> ps;
    for (StmKind k : allStmKinds()) {
        ps.push_back({k, MetadataTier::Mram});
        ps.push_back({k, MetadataTier::Wram});
    }
    return ps;
}

DpuConfig
smallDpu(u64 seed = 7)
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.seed = seed;
    return cfg;
}

StmConfig
baseCfg(const Param &p, unsigned tasklets)
{
    StmConfig cfg;
    cfg.kind = p.kind;
    cfg.metadata_tier = p.tier;
    cfg.num_tasklets = tasklets;
    cfg.max_read_set = 128;
    cfg.max_write_set = 64;
    cfg.data_words_hint = 1024;
    return cfg;
}

class StmAll : public testing::TestWithParam<Param>
{
};

} // namespace

TEST_P(StmAll, SingleTaskletReadWriteCommit)
{
    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), 1));
    SharedArray32 arr(dpu, Tier::Mram, 16);
    arr.fill(dpu, 0);

    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            tx.write(arr.at(3), 77);
            tx.write(arr.at(5), 88);
        });
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 3), 77u);
    EXPECT_EQ(arr.peek(dpu, 5), 88u);
    EXPECT_EQ(stm->stats().commits, 1u);
    EXPECT_EQ(stm->stats().aborts, 0u);
}

TEST_P(StmAll, ReadYourOwnWrites)
{
    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), 1));
    SharedArray32 arr(dpu, Tier::Mram, 8);
    arr.fill(dpu, 5);

    u32 seen_before = 0, seen_after = 0, seen_updated = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            seen_before = tx.read(arr.at(0));
            tx.write(arr.at(0), 100);
            seen_after = tx.read(arr.at(0));
            tx.write(arr.at(0), 200);
            seen_updated = tx.read(arr.at(0));
        });
    });
    dpu.run();
    EXPECT_EQ(seen_before, 5u);
    EXPECT_EQ(seen_after, 100u);
    EXPECT_EQ(seen_updated, 200u);
    EXPECT_EQ(arr.peek(dpu, 0), 200u);
}

TEST_P(StmAll, CounterIncrementsAreAtomic)
{
    // The canonical STM litmus: N tasklets x K increments each on one
    // shared counter must end exactly at N*K.
    constexpr unsigned kTasklets = 8;
    constexpr unsigned kIncs = 25;

    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), kTasklets));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 0);

    dpu.addTasklets(kTasklets, [&](DpuContext &ctx) {
        for (unsigned i = 0; i < kIncs; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), tx.read(arr.at(0)) + 1);
            });
        }
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 0), kTasklets * kIncs);
    EXPECT_EQ(stm->stats().commits, kTasklets * kIncs);
}

TEST_P(StmAll, BankTransferPreservesTotal)
{
    // Transfers between random accounts: the sum is invariant in every
    // committed state. This exercises multi-location atomicity and the
    // abort/undo paths hard.
    constexpr unsigned kTasklets = 6;
    constexpr unsigned kOps = 30;
    constexpr u32 kAccounts = 16;
    constexpr u32 kInitial = 1000;

    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), kTasklets));
    SharedArray32 acc(dpu, Tier::Mram, kAccounts);
    acc.fill(dpu, kInitial);

    dpu.addTasklets(kTasklets, [&](DpuContext &ctx) {
        for (unsigned i = 0; i < kOps; ++i) {
            const u32 from = static_cast<u32>(ctx.rng().below(kAccounts));
            u32 to = static_cast<u32>(ctx.rng().below(kAccounts));
            if (to == from)
                to = (to + 1) % kAccounts;
            const u32 amount = static_cast<u32>(ctx.rng().range(1, 10));
            atomically(*stm, ctx, [&](TxHandle &tx) {
                const u32 f = tx.read(acc.at(from));
                const u32 t = tx.read(acc.at(to));
                tx.write(acc.at(from), f - amount);
                tx.write(acc.at(to), t + amount);
            });
        }
    });
    dpu.run();

    u64 total = 0;
    for (u32 i = 0; i < kAccounts; ++i)
        total += acc.peek(dpu, i);
    EXPECT_EQ(total, static_cast<u64>(kAccounts) * kInitial);
    EXPECT_EQ(stm->stats().commits, kTasklets * kOps);
}

TEST_P(StmAll, ReadOnlyTransactionsSeeConsistentSnapshots)
{
    // Writers keep two cells equal; readers must never observe them
    // differing (opacity-style consistency of committed state).
    constexpr unsigned kWriters = 3;
    constexpr unsigned kReaders = 3;

    Dpu dpu(smallDpu());
    auto stm =
        std::make_unique<Stm>(dpu, baseCfg(GetParam(), kWriters + kReaders));
    SharedArray32 arr(dpu, Tier::Mram, 2);
    arr.fill(dpu, 0);

    bool inconsistent = false;
    for (unsigned w = 0; w < kWriters; ++w) {
        dpu.addTasklet([&](DpuContext &ctx) {
            for (int i = 0; i < 20; ++i) {
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    const u32 v = tx.read(arr.at(0));
                    tx.write(arr.at(0), v + 1);
                    tx.write(arr.at(1), v + 1);
                });
            }
        });
    }
    for (unsigned r = 0; r < kReaders; ++r) {
        dpu.addTasklet([&](DpuContext &ctx) {
            for (int i = 0; i < 40; ++i) {
                u32 a = 0, b = 0;
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    a = tx.read(arr.at(0));
                    b = tx.read(arr.at(1));
                });
                if (a != b)
                    inconsistent = true;
            }
        });
    }
    dpu.run();
    EXPECT_FALSE(inconsistent);
    EXPECT_EQ(arr.peek(dpu, 0), kWriters * 20u);
    EXPECT_EQ(arr.peek(dpu, 1), kWriters * 20u);
    EXPECT_GT(stm->stats().read_only_commits, 0u);
}

TEST_P(StmAll, UserRetryAbortsAndRetries)
{
    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), 1));
    SharedArray32 arr(dpu, Tier::Mram, 1);
    arr.fill(dpu, 0);

    int attempts = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            ++attempts;
            tx.write(arr.at(0), static_cast<u32>(attempts));
            if (attempts < 3)
                tx.retry();
        });
    });
    dpu.run();
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(arr.peek(dpu, 0), 3u);
    EXPECT_EQ(stm->stats().aborts, 2u);
    EXPECT_EQ(stm->stats().abort_reasons[static_cast<size_t>(
                  AbortReason::UserAbort)],
              2u);
    EXPECT_EQ(stm->stats().commits, 1u);
}

TEST_P(StmAll, AbortedWritesAreInvisible)
{
    // A transaction that always user-aborts first must leave memory
    // untouched between attempts (tests WT undo in particular).
    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 11);

    bool dirty_seen = false;
    int attempts = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            ++attempts;
            if (attempts == 1) {
                tx.write(arr.at(2), 999);
                tx.retry();
            }
            // Second attempt: the aborted write must not be visible.
            if (tx.read(arr.at(2)) == 999)
                dirty_seen = true;
            tx.write(arr.at(2), 42);
        });
    });
    dpu.run();
    EXPECT_FALSE(dirty_seen);
    EXPECT_EQ(arr.peek(dpu, 2), 42u);
}

TEST_P(StmAll, WramDataWorksToo)
{
    // Transactions over data living in WRAM (not just MRAM).
    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), 4));
    SharedArray32 arr(dpu, Tier::Wram, 4);
    arr.fill(dpu, 0);

    dpu.addTasklets(4, [&](DpuContext &ctx) {
        for (int i = 0; i < 10; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(1), tx.read(arr.at(1)) + 1);
            });
        }
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 1), 40u);
}

TEST_P(StmAll, StatsAreInternallyConsistent)
{
    Dpu dpu(smallDpu());
    auto stm = std::make_unique<Stm>(dpu, baseCfg(GetParam(), 6));
    SharedArray32 arr(dpu, Tier::Mram, 2);
    arr.fill(dpu, 0);

    dpu.addTasklets(6, [&](DpuContext &ctx) {
        for (int i = 0; i < 15; ++i) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), tx.read(arr.at(0)) + 1);
            });
        }
    });
    dpu.run();

    const auto &s = stm->stats();
    EXPECT_EQ(s.commits, 90u);
    EXPECT_EQ(s.starts, s.commits + s.aborts);
    u64 reasons = 0;
    for (u64 r : s.abort_reasons)
        reasons += r;
    EXPECT_EQ(reasons, s.aborts);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, StmAll, testing::ValuesIn(allParams()),
                         paramName);

//
// Non-parameterized STM-layer tests.
//

TEST(StmConfigTest, ReadSetOverflowIsLoud)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::NOrec;
    cfg.num_tasklets = 1;
    cfg.max_read_set = 4;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    SharedArray32 arr(dpu, Tier::Mram, 16);

    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(*stm, ctx, [&](TxHandle &tx) {
            for (int i = 0; i < 8; ++i)
                tx.read(arr.at(static_cast<size_t>(i)));
        });
    });
    EXPECT_THROW(dpu.run(), FatalError);
}

TEST(StmConfigTest, WramMetadataCapacityEnforced)
{
    // Read/write sets too large for WRAM must fail loudly — this is
    // the mechanism behind the paper's "Labyrinth cannot use WRAM
    // metadata" exclusion.
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::NOrec;
    cfg.metadata_tier = MetadataTier::Wram;
    cfg.num_tasklets = 11;
    cfg.max_read_set = 4096; // 11 * 4096 * 8B >> 64 KB
    cfg.max_write_set = 4096;
    EXPECT_THROW(Stm(dpu, cfg), FatalError);
}

TEST(StmConfigTest, LockTableSpillsToMramWhenWramFull)
{
    // The ArrayBench A appendix case: WRAM metadata, but the ORec lock
    // table exceeds WRAM -> only the table spills to MRAM.
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::TinyEtlWb;
    cfg.metadata_tier = MetadataTier::Wram;
    cfg.num_tasklets = 2;
    cfg.max_read_set = 32;
    cfg.max_write_set = 16;
    cfg.data_words_hint = 16384; // 16K entries x 8B = 128KB > WRAM
    auto stm = std::make_unique<Stm>(dpu, cfg);
    EXPECT_EQ(stm->lockTableTier(), Tier::Mram);
    EXPECT_EQ(stm->metadataTier(), MetadataTier::Wram);
}

TEST(StmConfigTest, LockTableSpillCanBeForbidden)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::TinyEtlWb;
    cfg.metadata_tier = MetadataTier::Wram;
    cfg.num_tasklets = 2;
    cfg.data_words_hint = 16384;
    cfg.allow_lock_table_spill = false;
    EXPECT_THROW(Stm(dpu, cfg), FatalError);
}

TEST(StmConfigTest, LockTableSizeFollowsHint)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::TinyEtlWb;
    cfg.num_tasklets = 1;
    cfg.data_words_hint = 500;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    EXPECT_EQ(stm->lockTableEntries(), 512u);
}

TEST(StmConfigTest, NOrecHasNoLockTable)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::NOrec;
    cfg.num_tasklets = 1;
    auto stm = std::make_unique<Stm>(dpu, cfg);
    EXPECT_EQ(stm->lockTableEntries(), 0u);
}

TEST(StmKindTest, NamesAreDistinct)
{
    std::set<std::string> names;
    for (StmKind k : allStmKindsExtended())
        names.insert(stmKindName(k));
    EXPECT_EQ(names.size(), kNumStmKinds);
    // The paper's taxonomy has exactly seven members; TL2 is an
    // extension on top.
    EXPECT_EQ(allStmKinds().size(), 7u);
    EXPECT_EQ(allStmKindsExtended().size(), 8u);
}

TEST(StmStatsTest, SumAddsEveryCounter)
{
    // Every member of StmStats is a u64 counter: fill each word of two
    // instances with distinct values and check each word of the sum.
    constexpr size_t kWords = sizeof(StmStats) / sizeof(u64);
    static_assert(sizeof(StmStats) == kWords * sizeof(u64));
    static_assert(std::is_trivially_copyable_v<StmStats>);
    std::array<u64, kWords> a_words{}, b_words{}, sum_words{};
    for (size_t i = 0; i < kWords; ++i) {
        a_words[i] = 1000 + i;
        b_words[i] = (i + 1) << 20;
    }
    StmStats a, b;
    std::memcpy(static_cast<void *>(&a), a_words.data(), sizeof a);
    std::memcpy(static_cast<void *>(&b), b_words.data(), sizeof b);
    a += b;
    std::memcpy(sum_words.data(), &a, sizeof a);
    for (size_t i = 0; i < kWords; ++i)
        EXPECT_EQ(sum_words[i], a_words[i] + b_words[i]) << "word " << i;
}
