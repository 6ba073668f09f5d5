/**
 * @file
 * Property-based stress tests: randomized transaction mixes swept over
 * (STM kind x tasklet count x seed) with TEST_P, checking the
 * serializability-observable invariants that must hold for EVERY
 * interleaving — conservation sums, monotonic counters, snapshot
 * consistency, and undo exactness under injected user aborts.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "core/stm.hh"
#include "runtime/shared_array.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;
using pimstm::runtime::SharedArray32;

namespace
{

// gtest prints a parameter without a PrintTo as its raw bytes, and the
// discovered ctest names carry that print, so the struct has no padding:
// uninitialised padding would put stack garbage into the test names.
struct StressParam
{
    StmKind kind;
    u8 reserved[3];
    unsigned tasklets;
    u64 seed;
};
static_assert(std::has_unique_object_representations_v<StressParam>);

std::string
stressName(const testing::TestParamInfo<StressParam> &info)
{
    std::string s = stmKindName(info.param.kind);
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    s += "_t" + std::to_string(info.param.tasklets);
    s += "_s" + std::to_string(info.param.seed);
    return s;
}

std::vector<StressParam>
stressParams()
{
    std::vector<StressParam> ps;
    for (StmKind k : allStmKinds()) {
        for (unsigned t : {3u, 11u})
            for (u64 seed : {1ull, 42ull})
                ps.push_back({k, {}, t, seed});
    }
    return ps;
}

DpuConfig
dpuCfg(u64 seed)
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.seed = seed;
    return cfg;
}

class StmStress : public testing::TestWithParam<StressParam>
{
  protected:
    StmConfig
    stmCfg() const
    {
        StmConfig cfg;
        cfg.kind = GetParam().kind;
        cfg.num_tasklets = GetParam().tasklets;
        cfg.max_read_set = 128;
        cfg.max_write_set = 64;
        cfg.data_words_hint = 512;
        return cfg;
    }
};

} // namespace

TEST_P(StmStress, ConservationUnderRandomTransfers)
{
    // Random multi-hop transfers (2-4 accounts per tx) with injected
    // user aborts: the total must be exactly conserved.
    constexpr u32 kWords = 48;
    constexpr u32 kInitial = 500;

    Dpu dpu(dpuCfg(GetParam().seed));
    auto stm = std::make_unique<Stm>(dpu, stmCfg());
    SharedArray32 arr(dpu, Tier::Mram, kWords);
    arr.fill(dpu, kInitial);

    dpu.addTasklets(GetParam().tasklets, [&](DpuContext &ctx) {
        for (int op = 0; op < 25; ++op) {
            const unsigned hops =
                static_cast<unsigned>(ctx.rng().range(2, 4));
            const bool inject_abort = ctx.rng().chance(0.1);
            int attempt = 0;
            atomically(*stm, ctx, [&](TxHandle &tx) {
                ++attempt;
                u32 prev = static_cast<u32>(ctx.rng().below(kWords));
                for (unsigned h = 1; h < hops; ++h) {
                    u32 next =
                        static_cast<u32>(ctx.rng().below(kWords));
                    if (next == prev)
                        next = (next + 1) % kWords;
                    const u32 a = tx.read(arr.at(prev));
                    const u32 b = tx.read(arr.at(next));
                    tx.write(arr.at(prev), a - 1);
                    tx.write(arr.at(next), b + 1);
                    prev = next;
                }
                if (inject_abort && attempt == 1)
                    tx.retry();
            });
        }
    });
    dpu.run();

    u64 total = 0;
    for (u32 i = 0; i < kWords; ++i)
        total += arr.peek(dpu, i);
    EXPECT_EQ(total, static_cast<u64>(kWords) * kInitial);
}

TEST_P(StmStress, SnapshotsAreAlwaysConsistent)
{
    // An array kept all-equal by writers; readers must never see two
    // differing cells inside one transaction.
    constexpr u32 kWords = 6;
    Dpu dpu(dpuCfg(GetParam().seed));
    auto stm = std::make_unique<Stm>(dpu, stmCfg());
    SharedArray32 arr(dpu, Tier::Mram, kWords);
    arr.fill(dpu, 0);

    bool torn = false;
    dpu.addTasklets(GetParam().tasklets, [&](DpuContext &ctx) {
        for (int op = 0; op < 20; ++op) {
            if (ctx.taskletId() % 2 == 0) {
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    const u32 v = tx.read(arr.at(0)) + 1;
                    for (u32 w = 0; w < kWords; ++w)
                        tx.write(arr.at(w), v);
                });
            } else {
                u32 lo = 0, hi = 0;
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    lo = tx.read(arr.at(0));
                    hi = tx.read(arr.at(kWords - 1));
                });
                if (lo != hi)
                    torn = true;
            }
        }
    });
    dpu.run();
    EXPECT_FALSE(torn);
}

TEST_P(StmStress, MonotonicCounterNeverLosesTicks)
{
    Dpu dpu(dpuCfg(GetParam().seed));
    auto stm = std::make_unique<Stm>(dpu, stmCfg());
    SharedArray32 arr(dpu, Tier::Mram, 2);
    arr.fill(dpu, 0);

    constexpr int kOps = 40;
    dpu.addTasklets(GetParam().tasklets, [&](DpuContext &ctx) {
        for (int op = 0; op < kOps; ++op) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                // Two cells that must move in lockstep.
                const u32 v = tx.read(arr.at(0));
                tx.write(arr.at(0), v + 1);
                tx.write(arr.at(1), v + 1);
            });
        }
    });
    dpu.run();
    EXPECT_EQ(arr.peek(dpu, 0), GetParam().tasklets * kOps);
    EXPECT_EQ(arr.peek(dpu, 1), GetParam().tasklets * kOps);
}

TEST_P(StmStress, DeterministicReplay)
{
    // Bit-identical behaviour on replay: same total cycles, same
    // commit/abort counters.
    auto run_once = [&] {
        Dpu dpu(dpuCfg(GetParam().seed));
        auto stm = std::make_unique<Stm>(dpu, stmCfg());
        SharedArray32 arr(dpu, Tier::Mram, 16);
        arr.fill(dpu, 0);
        dpu.addTasklets(GetParam().tasklets, [&](DpuContext &ctx) {
            for (int op = 0; op < 15; ++op) {
                const u32 i = static_cast<u32>(ctx.rng().below(16));
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    tx.write(arr.at(i), tx.read(arr.at(i)) + 1);
                });
            }
        });
        dpu.run();
        return std::make_tuple(dpu.stats().total_cycles,
                               stm->stats().commits,
                               stm->stats().aborts);
    };
    EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(Sweep, StmStress,
                         testing::ValuesIn(stressParams()), stressName);
