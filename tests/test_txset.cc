/**
 * @file
 * Tests for the O(1) transactional-set index and pooled DPU memory:
 * differential checks of the hash index against the linear-scan
 * reference (randomized address streams, aliasing, capacity edges,
 * epoch invalidation), lazy sim::Memory backing semantics, the
 * lock-table misuse assertion, cross-checked STM runs over all eight
 * algorithms, and fresh-vs-pooled Dpu determinism.
 *
 * Suite naming matters for the sanitizer CI filters: TxSetIndex,
 * MemoryLazy and StmAssert are fiber-free (TSan-safe); TxSetStm and
 * DpuPool execute tasklets on fibers.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/algorithm.hh"
#include "core/stm.hh"
#include "cpu/norec_cpu.hh"
#include "runtime/dpu_pool.hh"
#include "runtime/driver.hh"
#include "runtime/shared_array.hh"
#include "util/epoch_index.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;
using pimstm::runtime::SharedArray32;

namespace
{

DpuConfig
smallDpu(u64 seed = 5)
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.seed = seed;
    return cfg;
}

/** Enable descriptor index cross-checking for one test's scope. */
struct CrossCheckScope
{
    CrossCheckScope() { TxDescriptor::setCrossCheck(true); }
    ~CrossCheckScope() { TxDescriptor::setCrossCheck(false); }
};

ReadEntry
readEntry(Addr a)
{
    ReadEntry e;
    e.addr = a;
    return e;
}

WriteEntry
writeEntry(Addr a)
{
    WriteEntry e;
    e.addr = a;
    return e;
}

} // namespace

//
// TxSetIndex — fiber-free differential tests of the hash index.
//

TEST(TxSetIndex, InsertFindMissAndClear)
{
    util::EpochIndex<u32> idx;
    idx.init(16);
    EXPECT_EQ(idx.find(7u), -1);
    idx.insert(7u, 0);
    idx.insert(1000u, 1);
    EXPECT_EQ(idx.find(7u), 0);
    EXPECT_EQ(idx.find(1000u), 1);
    EXPECT_EQ(idx.find(8u), -1);
    EXPECT_EQ(idx.size(), 2u);

    idx.clear(); // O(1) epoch bump, not a table wipe
    EXPECT_EQ(idx.size(), 0u);
    EXPECT_EQ(idx.find(7u), -1);
    EXPECT_EQ(idx.find(1000u), -1);

    idx.insert(7u, 42);
    EXPECT_EQ(idx.find(7u), 42);
}

TEST(TxSetIndex, DuplicateInsertKeepsFirstValue)
{
    util::EpochIndex<u32> idx;
    idx.init(8);
    idx.insert(3u, 10);
    idx.insert(3u, 99);
    EXPECT_EQ(idx.find(3u), 10);
    EXPECT_EQ(idx.size(), 1u);
}

TEST(TxSetIndex, GrowthRehashesLiveEntriesOnly)
{
    util::EpochIndex<u32> idx;
    idx.init(4); // 8 slots; inserting past 4 forces growth
    const size_t initial_slots = idx.slotCount();

    // Entries from a dead epoch must not survive the rehash.
    idx.insert(500u, 77);
    idx.clear();

    for (u32 k = 0; k < 64; ++k)
        idx.insert(k, k * 2);
    EXPECT_GT(idx.slotCount(), initial_slots);
    for (u32 k = 0; k < 64; ++k)
        EXPECT_EQ(idx.find(k), static_cast<int>(k * 2));
    EXPECT_EQ(idx.find(500u), -1);
    EXPECT_EQ(idx.size(), 64u);
}

TEST(TxSetIndex, PointerKeys)
{
    u32 words[4] = {};
    util::EpochIndex<u32 *> idx;
    idx.init(8);
    idx.insert(&words[2], 2);
    EXPECT_EQ(idx.find(&words[2]), 2);
    EXPECT_EQ(idx.find(&words[0]), -1);
}

TEST(TxSetIndex, ManyEpochsNeverResurrectStaleKeys)
{
    util::EpochIndex<u32> idx;
    idx.init(8);
    for (u32 round = 0; round < 10000; ++round) {
        const u32 key = round % 13; // reuse a tiny keyspace
        EXPECT_EQ(idx.find(key), -1) << "round " << round;
        idx.insert(key, round);
        EXPECT_EQ(idx.find(key), static_cast<int>(round));
        idx.clear();
    }
}

TEST(TxSetIndex, DescriptorDifferentialRandomStreams)
{
    // Randomized address streams over both a heavily-aliasing tiny
    // keyspace and a sparse one, with periodic resets; every write-set
    // lookup is compared against the linear-scan reference.
    for (const u32 keyspace : {8u, 64u, 100000u}) {
        TxDescriptor tx(0, 64, 32);
        std::mt19937 rng(keyspace);
        std::uniform_int_distribution<u32> addr_dist(0, keyspace - 1);

        for (int round = 0; round < 200; ++round) {
            const int ops = static_cast<int>(rng() % 32);
            for (int op = 0; op < ops; ++op) {
                const Addr a = addr_dist(rng) * 4;
                if (rng() % 2 == 0) {
                    if (tx.findWrite(a) < 0 &&
                        tx.write_set.size() < tx.writeCapacity()) {
                        tx.pushWrite(writeEntry(a));
                    }
                } else if (tx.read_set.size() < tx.readCapacity()) {
                    tx.pushRead(readEntry(a));
                }
                const Addr probe = addr_dist(rng) * 4;
                ASSERT_EQ(tx.findWrite(probe), tx.findWriteLinear(probe));
            }
            tx.reset(); // O(1) epoch invalidation between rounds
            ASSERT_EQ(tx.findWrite(addr_dist(rng) * 4), -1);
        }
    }
}

TEST(TxSetIndex, DescriptorAtExactCapacityStaysConsistent)
{
    // Fill both sets to their exact reserved capacity: the write-set
    // index table is sized for this (load factor 1/2) and must neither
    // grow nor diverge from the scan.
    TxDescriptor tx(0, 64, 32);
    for (u32 i = 0; i < 64; ++i)
        tx.pushRead(readEntry(i * 4));
    for (u32 i = 0; i < 32; ++i)
        tx.pushWrite(writeEntry(i * 8));
    for (u32 i = 0; i < 64; ++i) {
        ASSERT_EQ(tx.findWrite(i * 8 < 256 ? i * 8 : 1),
                  tx.findWriteLinear(i * 8 < 256 ? i * 8 : 1));
    }
    EXPECT_THROW(tx.pushRead(readEntry(9999)), FatalError);
    EXPECT_THROW(tx.pushWrite(writeEntry(9999)), FatalError);
}

TEST(TxSetIndex, CpuTxDifferentialWithGrowth)
{
    // The CPU-side index starts at 32 entries and must grow; pointer
    // keys, randomized stream, checked against the linear scan.
    std::vector<u32> words(4096);
    cpu::CpuTx tx;
    std::mt19937 rng(7);
    for (int round = 0; round < 50; ++round) {
        tx.reset();
        const int ops = 10 + static_cast<int>(rng() % 200);
        for (int op = 0; op < ops; ++op) {
            u32 *addr = &words[rng() % words.size()];
            if (tx.findWrite(addr) < 0)
                tx.pushWrite(addr, rng());
            u32 *probe = &words[rng() % words.size()];
            ASSERT_EQ(tx.findWrite(probe), tx.findWriteLinear(probe));
        }
    }
}

//
// MemoryLazy — lazily-backed tier semantics.
//

TEST(MemoryLazy, ReadsBeyondBackingAreZero)
{
    Memory mem(Tier::Mram, 1 << 20);
    EXPECT_EQ(mem.hostBackedBytes(), 0u);
    EXPECT_EQ(mem.read32(0), 0u);
    EXPECT_EQ(mem.read64(512 * 1024), 0u);
    u8 buf[16];
    std::memset(buf, 0xab, sizeof(buf));
    mem.readBlock((1 << 20) - 16, buf, 16);
    for (u8 b : buf)
        EXPECT_EQ(b, 0u);
}

TEST(MemoryLazy, WriteMaterializesAndReadsBack)
{
    Memory mem(Tier::Mram, 1 << 20);
    mem.write32(1234, 0xdeadbeef);
    EXPECT_EQ(mem.read32(1234), 0xdeadbeefu);
    EXPECT_GT(mem.hostBackedBytes(), 0u);
    EXPECT_LE(mem.hostBackedBytes(), mem.capacity());
    // Straddling read: materialized prefix + zero suffix.
    const u32 far = 900 * 1024;
    mem.write32(far, 7);
    EXPECT_EQ(mem.read32(far), 7u);
    EXPECT_EQ(mem.read32(far + 64), 0u);
}

TEST(MemoryLazy, BackingGrowsToHighWaterNotCapacity)
{
    Memory mem(Tier::Mram, 64 * 1024 * 1024);
    mem.write32(0, 1);
    const size_t after_small = mem.hostBackedBytes();
    EXPECT_LE(after_small, 64u * 1024);
    mem.write32(1024 * 1024, 2); // 1 MB high-water
    EXPECT_GE(mem.hostBackedBytes(), 1024u * 1024);
    EXPECT_LT(mem.hostBackedBytes(), 64u * 1024 * 1024);
}

TEST(MemoryLazy, RecycleZeroesExtentAndResetsAllocator)
{
    Memory mem(Tier::Mram, 1 << 20);
    (void)mem.alloc(256);
    mem.write32(100, 42);
    mem.fill(4096, 0xff, 128);
    mem.recycle(1 << 20);
    EXPECT_EQ(mem.read32(100), 0u);
    EXPECT_EQ(mem.read32(4096), 0u);
    EXPECT_EQ(mem.allocated(), 0u);
    // Adopting a smaller capacity shrinks the logical tier.
    mem.recycle(64 * 1024);
    EXPECT_EQ(mem.capacity(), 64u * 1024);
    EXPECT_LE(mem.hostBackedBytes(), 64u * 1024);
}

TEST(MemoryLazy, CapacityStillEnforced)
{
    Memory mem(Tier::Wram, 64 * 1024);
    EXPECT_THROW(mem.read32(64 * 1024), PanicError);
    EXPECT_THROW(mem.write32(64 * 1024 - 2, 1), PanicError);
    u8 buf[8] = {};
    EXPECT_THROW(mem.readBlock(64 * 1024 - 4, buf, 8), PanicError);
    EXPECT_THROW(mem.writeBlock(64 * 1024 - 4, buf, 8), PanicError);
    EXPECT_THROW(mem.alloc(64 * 1024 + 1), FatalError);
}

TEST(MemoryLazy, CanAllocValidatesAlignmentLikeAlloc)
{
    Memory mem(Tier::Wram, 64 * 1024);
    EXPECT_TRUE(mem.canAlloc(128, 8));
    EXPECT_FALSE(mem.canAlloc(128 * 1024, 8));
    EXPECT_THROW(mem.canAlloc(128, 3), PanicError);
    EXPECT_THROW(mem.canAlloc(128, 0), PanicError);
    EXPECT_THROW(mem.alloc(128, 3), PanicError);
}

//
// StmAssert — misuse assertions in the STM algorithm base class.
//

TEST(StmAssert, LockIndexWithoutLockTablePanics)
{
    Dpu dpu(smallDpu());
    StmConfig cfg;
    cfg.kind = StmKind::NOrec;
    cfg.num_tasklets = 1;
    cfg.max_read_set = 8;
    cfg.max_write_set = 8;
    Stm stm(dpu, cfg);
    ASSERT_EQ(stm.lockTableEntries(), 0u);
    EXPECT_THROW(stm.algorithm().lockIndexFor(64), PanicError);
}

//
// TxSetStm — cross-checked runs over every algorithm (uses fibers).
//

TEST(TxSetStm, CrossCheckedRandomWorkloadAllKinds)
{
    // Every indexed set lookup re-runs the linear scan and panics on
    // divergence, while 4 tasklets hammer a small array through each
    // of the eight algorithms. A tiny lock table maximizes aliasing.
    CrossCheckScope cross_check;
    for (const StmKind kind : allStmKindsExtended()) {
        Dpu dpu(smallDpu(11));
        StmConfig cfg;
        cfg.kind = kind;
        cfg.num_tasklets = 4;
        cfg.max_read_set = 64;
        cfg.max_write_set = 32;
        cfg.data_words_hint = 64;
        cfg.lock_table_entries_override = 16;
        auto stm = std::make_unique<Stm>(dpu, cfg);
        SharedArray32 arr(dpu, Tier::Mram, 64);
        arr.fill(dpu, 0);

        constexpr int kTx = 25;
        constexpr int kOps = 4;
        dpu.addTasklets(4, [&](DpuContext &ctx) {
            std::mt19937 rng(ctx.taskletId() + 1);
            for (int t = 0; t < kTx; ++t) {
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    for (int i = 0; i < kOps; ++i) {
                        const size_t slot = rng() % arr.size();
                        tx.write(arr.at(slot),
                                 tx.read(arr.at(slot)) + 1);
                        // Re-read through the write set.
                        tx.read(arr.at(slot));
                    }
                });
            }
        });
        dpu.run();

        u64 sum = 0;
        for (size_t i = 0; i < arr.size(); ++i)
            sum += arr.peek(dpu, i);
        EXPECT_EQ(sum, 4u * kTx * kOps) << stmKindName(kind);
        EXPECT_EQ(stm->stats().commits, 4u * kTx) << stmKindName(kind);
    }
}

//
// DpuPool — pooled instances behave exactly like fresh ones.
//

TEST(DpuPool, RecycleRestoresFreshConstructedState)
{
    const DpuConfig cfg = smallDpu(3);

    Dpu used(cfg);
    used.mram().write32(0, 0xdead);
    used.wram().write32(16, 0xbeef);
    (void)used.mram().alloc(4096);
    used.addTasklet([&](DpuContext &ctx) { ctx.compute(10); });
    used.run();
    ASSERT_GT(used.stats().total_cycles, 0u);

    used.recycle(cfg);
    Dpu fresh(cfg);
    EXPECT_EQ(used.mram().read32(0), fresh.mram().read32(0));
    EXPECT_EQ(used.wram().read32(16), fresh.wram().read32(16));
    EXPECT_EQ(used.mram().allocated(), fresh.mram().allocated());
    EXPECT_EQ(used.stats().total_cycles, fresh.stats().total_cycles);
    EXPECT_EQ(used.stats().instructions, fresh.stats().instructions);

    // And it is fully runnable again, with identical results.
    auto runOnce = [&](Dpu &dpu) {
        SharedArray32 arr(dpu, Tier::Mram, 4);
        arr.fill(dpu, 0);
        dpu.addTasklets(2, [&](DpuContext &ctx) {
            ctx.compute(5);
            dpu.mram().write32(0, 123);
        });
        dpu.run();
        return dpu.stats().total_cycles;
    };
    EXPECT_EQ(runOnce(used), runOnce(fresh));
}

TEST(DpuPool, FreshVsPooledRunsAreBitwiseIdentical)
{
    using runtime::DpuPool;
    auto &pool = DpuPool::global();
    pool.clear();

    runtime::RunSpec spec;
    spec.kind = StmKind::TinyEtlWb;
    spec.tasklets = 8;
    spec.seed = 42;
    spec.mram_bytes = 4 * 1024 * 1024;

    const auto before = pool.stats();
    workloads::ArrayBench first(
        workloads::ArrayBenchParams::workloadB(40));
    const auto r1 = runtime::runWorkload(first, spec);

    // The first run returned its Dpu to the pool; the second must
    // recycle it and produce bitwise-identical statistics.
    workloads::ArrayBench second(
        workloads::ArrayBenchParams::workloadB(40));
    const auto r2 = runtime::runWorkload(second, spec);
    const auto after = pool.stats();
    EXPECT_GE(after.hits, before.hits + 1);

    EXPECT_EQ(r1.stm.commits, r2.stm.commits);
    EXPECT_EQ(r1.stm.aborts, r2.stm.aborts);
    EXPECT_EQ(r1.stm.starts, r2.stm.starts);
    EXPECT_EQ(r1.stm.reads, r2.stm.reads);
    EXPECT_EQ(r1.stm.writes, r2.stm.writes);
    EXPECT_EQ(r1.stm.validations, r2.stm.validations);
    EXPECT_EQ(r1.stm.abort_reasons, r2.stm.abort_reasons);
    EXPECT_EQ(r1.dpu.total_cycles, r2.dpu.total_cycles);
    EXPECT_EQ(r1.dpu.instructions, r2.dpu.instructions);
    EXPECT_EQ(r1.dpu.phase_cycles, r2.dpu.phase_cycles);
    EXPECT_EQ(r1.dpu.mram_reads, r2.dpu.mram_reads);
    EXPECT_EQ(r1.dpu.mram_writes, r2.dpu.mram_writes);
    EXPECT_EQ(r1.dpu.mram_bytes_read, r2.dpu.mram_bytes_read);
    EXPECT_EQ(r1.dpu.mram_bytes_written, r2.dpu.mram_bytes_written);
    EXPECT_EQ(r1.dpu.atomic_acquires, r2.dpu.atomic_acquires);
    EXPECT_EQ(r1.dpu.atomic_stalls, r2.dpu.atomic_stalls);
    EXPECT_EQ(r1.seconds, r2.seconds);
    EXPECT_EQ(r1.throughput, r2.throughput);
}
