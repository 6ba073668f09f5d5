/**
 * @file
 * Algorithm-specific unit tests: the internal behaviours that
 * differentiate NOrec, Tiny and VR — sequence-lock motion, ORec
 * version clocks and snapshot extension, write-through undo, visible-
 * reader tracking, upgrade aborts and abort-reason attribution.
 */

#include <gtest/gtest.h>

#include "core/norec.hh"
#include "core/rw_lock.hh"
#include "core/tiny.hh"
#include "core/vr.hh"
#include "runtime/shared_array.hh"

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

StmConfig
cfgFor(StmKind kind, unsigned tasklets)
{
    StmConfig cfg;
    cfg.kind = kind;
    cfg.num_tasklets = tasklets;
    cfg.max_read_set = 64;
    cfg.max_write_set = 32;
    cfg.data_words_hint = 256;
    return cfg;
}

u64
reason(const StmStats &s, AbortReason r)
{
    return s.abort_reasons[static_cast<size_t>(r)];
}

/** The algorithm @p stm runs, as its concrete type. */
template <class Algorithm>
Algorithm &
algo(Stm &stm)
{
    return dynamic_cast<Algorithm &>(stm.algorithm());
}

} // namespace

//
// NOrec
//

TEST(NOrecTest, SeqlockAdvancesByTwoPerUpdateCommit)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::NOrec, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);

    dpu.addTasklet([&](DpuContext &ctx) {
        for (int i = 0; i < 5; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), static_cast<u32>(i));
            });
        }
    });
    dpu.run();
    EXPECT_EQ(algo<NOrecAlgorithm>(stm).seqlock(), 10u);
}

TEST(NOrecTest, ReadOnlyCommitDoesNotTouchSeqlock)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::NOrec, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);

    dpu.addTasklet([&](DpuContext &ctx) {
        for (int i = 0; i < 5; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                tx.read(arr.at(0));
            });
        }
    });
    dpu.run();
    EXPECT_EQ(algo<NOrecAlgorithm>(stm).seqlock(), 0u);
    EXPECT_EQ(stm.stats().read_only_commits, 5u);
}

TEST(NOrecTest, ConflictingWriterTriggersValueValidation)
{
    // Two tasklets increment the same word; the loser of the commit
    // race must revalidate and, with changed values, abort.
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::NOrec, 2));
    SharedArray32 arr(dpu, Tier::Mram, 1);
    arr.fill(dpu, 0);

    dpu.addTasklets(2, [&](DpuContext &ctx) {
        for (int i = 0; i < 30; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), tx.read(arr.at(0)) + 1);
            });
        }
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 0), 60u);
    EXPECT_GT(stm.stats().validations, 0u);
    EXPECT_GT(reason(stm.stats(), AbortReason::ValidationFail), 0u);
}

TEST(NOrecTest, SilentStoreSurvivesValidation)
{
    // Value-based validation: a concurrent commit that writes the SAME
    // value back must NOT abort the reader (the classic NOrec
    // advantage over version-based validation).
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::NOrec, 2));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 7);

    bool reader_aborted = false;
    dpu.addTasklet([&](DpuContext &ctx) { // silent writer
        for (int i = 0; i < 10; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), 7); // same value
            });
        }
    });
    dpu.addTasklet([&](DpuContext &ctx) { // long reader
        atomically(stm, ctx, [&](TxHandle &tx) {
            for (int r = 0; r < 30; ++r) {
                tx.read(arr.at(static_cast<size_t>(r) % 4));
                ctx.compute(200);
            }
        });
        reader_aborted = stm.stats().aborts > 0;
    });
    dpu.run();
    EXPECT_FALSE(reader_aborted);
}

//
// Tiny
//

TEST(TinyTest, ClockAdvancesPerUpdateCommit)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::TinyEtlWb, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);

    dpu.addTasklet([&](DpuContext &ctx) {
        for (int i = 0; i < 4; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(0), static_cast<u32>(i));
            });
        }
        atomically(stm, ctx,
                   [&](TxHandle &tx) { tx.read(arr.at(0)); });
    });
    dpu.run();
    // The read-only commit does not bump the clock.
    EXPECT_EQ(algo<TinyAlgorithm>(stm).clock(), 4u);
}

TEST(TinyTest, CommittedOrecCarriesCommitTimestamp)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::TinyEtlWb, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);

    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            tx.write(arr.at(2), 99);
        });
    });
    dpu.run();
    // After the run every ORec must be unlocked; the one covering
    // arr[2] must hold version 1.
    bool saw_v1 = false;
    for (u32 i = 0; i < stm.lockTableEntries(); ++i) {
        EXPECT_FALSE(algo<TinyAlgorithm>(stm).orecLocked(i));
        if (algo<TinyAlgorithm>(stm).orecVersion(i) == 1)
            saw_v1 = true;
    }
    EXPECT_TRUE(saw_v1);
}

TEST(TinyTest, AbortLeavesVersionUntouched)
{
    // An aborting writer must release its ORec with the OLD version so
    // concurrent readers stay consistent.
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::TinyEtlWt, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 5);

    int attempts = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            ++attempts;
            tx.write(arr.at(1), 50);
            if (attempts == 1)
                tx.retry();
        });
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 1), 50u);
    // One commit happened -> max version is 1, and nothing is locked.
    for (u32 i = 0; i < stm.lockTableEntries(); ++i) {
        EXPECT_FALSE(algo<TinyAlgorithm>(stm).orecLocked(i));
        EXPECT_LE(algo<TinyAlgorithm>(stm).orecVersion(i), 1u);
    }
}

TEST(TinyTest, WriteThroughUndoRestoresExactBytes)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::TinyEtlWt, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.poke(dpu, 0, 0xdeadbeef);
    arr.poke(dpu, 1, 0x12345678);

    int attempts = 0;
    u32 mid_value = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            ++attempts;
            if (attempts == 1) {
                tx.write(arr.at(0), 1);
                tx.write(arr.at(1), 2);
                tx.write(arr.at(0), 3); // double write, undo once
                tx.retry();
            }
            mid_value = tx.read(arr.at(0));
        });
    });
    dpu.run();
    EXPECT_EQ(mid_value, 0xdeadbeefu);
    EXPECT_EQ(arr.peek(dpu, 0), 0xdeadbeefu);
    EXPECT_EQ(arr.peek(dpu, 1), 0x12345678u);
}

TEST(TinyTest, SnapshotExtensionSparesAborts)
{
    // A reader that sees a version newer than its snapshot extends
    // (validating its read set) instead of aborting, when its reads
    // are untouched — Tiny's core advantage over TL2.
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::TinyEtlWb, 2));
    SharedArray32 arr(dpu, Tier::Mram, 16);
    arr.fill(dpu, 0);

    // The reader snapshots at clock 0 and reads words 0..7; while it
    // computes, the writer commits to words 8..15 (clock -> 1); the
    // reader then reads word 8, whose version exceeds its snapshot.
    // Its read set (0..7) is untouched, so the extension must succeed
    // and no abort may happen.
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            for (u32 i = 0; i < 8; ++i)
                tx.read(arr.at(i));
            ctx.compute(50000); // writer commits in this window
            tx.read(arr.at(8));
        });
    });
    dpu.addTasklet([&](DpuContext &ctx) {
        ctx.delay(5000);
        atomically(stm, ctx, [&](TxHandle &tx) {
            for (u32 i = 8; i < 16; ++i)
                tx.write(arr.at(i), 1);
        });
    });
    dpu.run();
    EXPECT_EQ(stm.stats().aborts, 0u);
    EXPECT_GT(stm.stats().extensions, 0u);
}

TEST(TinyTest, CtlDefersLocksUntilCommit)
{
    // With CTL, a second tasklet can read a location another tx has
    // pending-written, because no lock is taken until commit.
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::TinyCtlWb, 2));
    SharedArray32 arr(dpu, Tier::Mram, 8);
    arr.fill(dpu, 3);

    u32 observed = 0;
    Cycles writer_hold_until = 0;
    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            tx.write(arr.at(0), 77);
            ctx.compute(5000); // hold the pending write a while
            writer_hold_until = ctx.now();
        });
    });
    dpu.addTasklet([&](DpuContext &ctx) {
        ctx.delay(2000); // inside the writer's pending window
        atomically(stm, ctx, [&](TxHandle &tx) {
            observed = tx.read(arr.at(0));
        });
        panicIf(ctx.now() > writer_hold_until && writer_hold_until != 0,
                "reader ran after the writer finished");
    });
    dpu.run();
    // The read committed before the writer; it must see the old value.
    EXPECT_EQ(observed, 3u);
}

//
// VR
//

TEST(VrTest, LockTableEndsFree)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::VrEtlWb, 4));
    SharedArray32 arr(dpu, Tier::Mram, 32);
    arr.fill(dpu, 0);

    dpu.addTasklets(4, [&](DpuContext &ctx) {
        for (int i = 0; i < 20; ++i) {
            const u32 idx = static_cast<u32>(ctx.rng().below(32));
            atomically(stm, ctx, [&](TxHandle &tx) {
                tx.write(arr.at(idx), tx.read(arr.at(idx)) + 1);
            });
        }
    });
    dpu.run();
    for (u32 i = 0; i < stm.lockTableEntries(); ++i)
        EXPECT_EQ(algo<VrAlgorithm>(stm).lockWord(i), rwlock::Free);
}

TEST(VrTest, UpgradeConflictAbortsAndIsAttributed)
{
    // Two tasklets read the same word then try to write it: at least
    // one upgrade must fail with UpgradeConflict (the paper's VR
    // spurious-abort mechanism).
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::VrEtlWb, 2));
    SharedArray32 arr(dpu, Tier::Mram, 1);
    arr.fill(dpu, 0);

    dpu.addTasklets(2, [&](DpuContext &ctx) {
        for (int i = 0; i < 25; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                const u32 v = tx.read(arr.at(0));
                ctx.compute(300); // widen the read->write window
                tx.write(arr.at(0), v + 1);
            });
        }
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 0), 50u);
    EXPECT_GT(reason(stm.stats(), AbortReason::UpgradeConflict), 0u);
    // Visible reads never validate.
    EXPECT_EQ(stm.stats().validations, 0u);
}

TEST(VrTest, ReadersDoNotConflictWithReaders)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::VrEtlWb, 8));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 9);

    dpu.addTasklets(8, [&](DpuContext &ctx) {
        for (int i = 0; i < 20; ++i) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                for (u32 w = 0; w < 4; ++w)
                    tx.read(arr.at(w));
            });
        }
    });
    dpu.run();
    EXPECT_EQ(stm.stats().aborts, 0u);
    EXPECT_EQ(stm.stats().commits, 160u);
}

TEST(VrTest, WriterBlocksReadersUntilCommit)
{
    // ETL: while a writer holds a write lock, a reader of the same
    // word aborts with ReadConflict (visible conflict, no validation).
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::VrEtlWt, 2));
    SharedArray32 arr(dpu, Tier::Mram, 1);
    arr.fill(dpu, 0);

    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            tx.write(arr.at(0), 1);
            ctx.compute(4000); // hold the write lock
        });
    });
    dpu.addTasklet([&](DpuContext &ctx) {
        ctx.delay(2000);
        atomically(stm, ctx, [&](TxHandle &tx) {
            tx.read(arr.at(0));
        });
    });
    dpu.run();
    EXPECT_GT(reason(stm.stats(), AbortReason::ReadConflict), 0u);
}

TEST(VrTest, CtlUpgradesAtCommit)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    Stm stm(dpu, cfgFor(StmKind::VrCtlWb, 1));
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 10);

    dpu.addTasklet([&](DpuContext &ctx) {
        atomically(stm, ctx, [&](TxHandle &tx) {
            const u32 v = tx.read(arr.at(0)); // read lock
            tx.write(arr.at(0), v + 5);       // buffered, no lock yet
        });
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 0), 15u);
    EXPECT_EQ(stm.stats().aborts, 0u);
    EXPECT_EQ(algo<VrAlgorithm>(stm).lockWord(0) & 3u, 0u);
}

//
// Cross-algorithm: name dispatch.
//

TEST(AlgorithmNames, MatchKinds)
{
    Dpu dpu(smallDpu(), TimingConfig{});
    {
        Stm stm(dpu, cfgFor(StmKind::TinyEtlWb, 1));
        const TinyAlgorithm &s = algo<TinyAlgorithm>(stm);
        EXPECT_STREQ(s.name(), "Tiny ETLWB");
        EXPECT_TRUE(s.encounterTimeLocking());
        EXPECT_TRUE(s.writeBack());
    }
    dpu.resetRun();
    {
        Dpu d2(smallDpu(), TimingConfig{});
        Stm stm(d2, cfgFor(StmKind::TinyCtlWb, 1));
        const TinyAlgorithm &s = algo<TinyAlgorithm>(stm);
        EXPECT_STREQ(s.name(), "Tiny CTLWB");
        EXPECT_FALSE(s.encounterTimeLocking());
    }
    {
        Dpu d3(smallDpu(), TimingConfig{});
        Stm stm(d3, cfgFor(StmKind::VrEtlWt, 1));
        const VrAlgorithm &s = algo<VrAlgorithm>(stm);
        EXPECT_STREQ(s.name(), "VR ETLWT");
        EXPECT_FALSE(s.writeBack());
    }
}
