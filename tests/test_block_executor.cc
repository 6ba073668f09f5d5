/**
 * @file
 * Tests for the Block-STM-style ordered block executor: the committed
 * state must equal sequential execution in index order, for order-
 * sensitive bodies, across STM kinds and tasklet counts.
 */

#include <gtest/gtest.h>

#include "hostapp/block_executor.hh"

using namespace pimstm;
using namespace pimstm::core;
using namespace pimstm::hostapp;

namespace
{

BlockExecutorConfig
cfgFor(StmKind kind, unsigned tasklets)
{
    BlockExecutorConfig cfg;
    cfg.kind = kind;
    cfg.tasklets = tasklets;
    cfg.state_words = 64;
    cfg.mram_bytes = 1 * 1024 * 1024;
    return cfg;
}

/** Order-sensitive body: even tx double cell (i % 8), odd tx add 1.
 * The final value depends on the exact execution order. */
void
orderSensitiveBody(TxHandle &tx, u32 i, runtime::SharedArray32 &state)
{
    const sim::Addr cell = state.at(i % 8);
    const u32 v = tx.read(cell);
    tx.write(cell, (i % 2 == 0) ? v * 2 + 1 : v + 3);
}

/** Host-side sequential reference. */
std::vector<u32>
sequentialReference(u32 num_txs)
{
    std::vector<u32> state(8, 0);
    for (u32 i = 0; i < num_txs; ++i) {
        u32 &v = state[i % 8];
        v = (i % 2 == 0) ? v * 2 + 1 : v + 3;
    }
    return state;
}

class BlockExecAll : public testing::TestWithParam<StmKind>
{
};

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

TEST_P(BlockExecAll, OrderedExecutionMatchesSequential)
{
    constexpr u32 kTxs = 48;
    BlockExecutor exec(cfgFor(GetParam(), 6));
    const auto r = exec.run(kTxs, [&](TxHandle &tx, u32 i) {
        orderSensitiveBody(tx, i, exec.state());
    });
    EXPECT_EQ(r.commits, kTxs);

    const auto ref = sequentialReference(kTxs);
    for (u32 w = 0; w < 8; ++w)
        EXPECT_EQ(exec.state().peek(exec.dpu(), w), ref[w])
            << "word " << w;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, BlockExecAll,
                         testing::ValuesIn(allStmKindsExtended()),
                         kindName);

TEST(BlockExecutorTest, SingleTaskletIsTriviallyOrdered)
{
    BlockExecutor exec(cfgFor(StmKind::NOrec, 1));
    const auto r = exec.run(20, [&](TxHandle &tx, u32 i) {
        orderSensitiveBody(tx, i, exec.state());
    });
    EXPECT_EQ(r.commits, 20u);
    const auto ref = sequentialReference(20);
    for (u32 w = 0; w < 8; ++w)
        EXPECT_EQ(exec.state().peek(exec.dpu(), w), ref[w]);
    // One tasklet is the lower bound: 0, and more than a DPU's 24, are
    // refused.
    EXPECT_THROW(BlockExecutor{cfgFor(StmKind::NOrec, 0)}, FatalError);
    EXPECT_THROW(BlockExecutor{cfgFor(StmKind::NOrec, 25)}, FatalError);
}

TEST(BlockExecutorTest, UnorderedModeStillSerializable)
{
    // Commutative bodies: unordered mode must still produce the same
    // total (serializability without the mandated order).
    BlockExecutor exec(cfgFor(StmKind::TinyEtlWb, 8));
    const auto r = exec.run(
        64,
        [&](TxHandle &tx, u32) {
            const sim::Addr cell = exec.state().at(0);
            tx.write(cell, tx.read(cell) + 1);
        },
        /*ordered=*/false);
    EXPECT_EQ(r.commits, 64u);
    EXPECT_EQ(exec.state().peek(exec.dpu(), 0), 64u);
}

TEST(BlockExecutorTest, OrderingCostsAborts)
{
    // The turn gate converts ordering waits into speculative retries:
    // ordered runs must see more aborts than unordered on the same
    // independent-transaction block.
    auto body = [](TxHandle &tx, u32 i, runtime::SharedArray32 &st) {
        const sim::Addr cell = st.at(i % 32);
        tx.write(cell, tx.read(cell) + i);
    };
    BlockExecutor ordered(cfgFor(StmKind::NOrec, 8));
    const auto ro = ordered.run(64, [&](TxHandle &tx, u32 i) {
        body(tx, i, ordered.state());
    });
    BlockExecutor unordered(cfgFor(StmKind::NOrec, 8));
    const auto ru = unordered.run(
        64,
        [&](TxHandle &tx, u32 i) { body(tx, i, unordered.state()); },
        /*ordered=*/false);
    EXPECT_GT(ro.aborts, ru.aborts);
    EXPECT_EQ(ro.commits, ru.commits);
}

TEST(BlockExecutorTest, BlocksComposeAcrossRuns)
{
    BlockExecutor exec(cfgFor(StmKind::VrEtlWb, 4));
    for (int block = 0; block < 3; ++block) {
        exec.run(16, [&](TxHandle &tx, u32) {
            const sim::Addr cell = exec.state().at(1);
            tx.write(cell, tx.read(cell) + 1);
        });
    }
    EXPECT_EQ(exec.state().peek(exec.dpu(), 1), 48u);
}

TEST(BlockExecutorTest, DeterministicReplay)
{
    auto run_once = [] {
        BlockExecutor exec(cfgFor(StmKind::NOrec, 5));
        const auto r = exec.run(40, [&](TxHandle &tx, u32 i) {
            orderSensitiveBody(tx, i, exec.state());
        });
        return std::make_pair(r.seconds, r.aborts);
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(BlockExecutorTest, Tl2ExtensionKindWorksEverywhereTooSmoke)
{
    // TL2 passes the full ordered-block matrix via the parameterized
    // suite; this smoke test pins its identity.
    sim::DpuConfig dc;
    dc.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dc);
    StmConfig sc;
    sc.kind = StmKind::Tl2;
    sc.num_tasklets = 1;
    auto stm = std::make_unique<Stm>(dpu, sc);
    EXPECT_STREQ(stm->name(), "TL2");
}
