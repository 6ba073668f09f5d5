/**
 * @file
 * Tests for the runtime layer: SharedArray32 views, the transactional
 * work queue, stats reporting helpers, and workload parameter/unit
 * logic (ArrayBench paper constants, Labyrinth geometry, KMeans
 * configuration).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/stats_report.hh"
#include "core/stm.hh"
#include "runtime/shared_array.hh"
#include "runtime/tx_queue.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/labyrinth.hh"
#include "workloads/linkedlist.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::runtime;

namespace
{

DpuConfig
smallDpu()
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 * 1024 * 1024;
    return cfg;
}

} // namespace

TEST(SharedArrayTest, AddressesAreContiguousWords)
{
    Dpu dpu(smallDpu());
    SharedArray32 arr(dpu, Tier::Mram, 8);
    EXPECT_EQ(arr.size(), 8u);
    for (size_t i = 1; i < 8; ++i)
        EXPECT_EQ(arr.at(i), arr.at(i - 1) + 4);
    EXPECT_EQ(addrTier(arr.at(0)), Tier::Mram);
}

TEST(SharedArrayTest, WramTierTagged)
{
    Dpu dpu(smallDpu());
    SharedArray32 arr(dpu, Tier::Wram, 4);
    EXPECT_EQ(addrTier(arr.at(3)), Tier::Wram);
}

TEST(SharedArrayTest, PeekPokeFillRoundTrip)
{
    Dpu dpu(smallDpu());
    SharedArray32 arr(dpu, Tier::Mram, 4);
    arr.fill(dpu, 7);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(arr.peek(dpu, i), 7u);
    arr.poke(dpu, 2, 99);
    EXPECT_EQ(arr.peek(dpu, 2), 99u);
}

TEST(SharedArrayTest, OutOfRangePanics)
{
    Dpu dpu(smallDpu());
    SharedArray32 arr(dpu, Tier::Mram, 4);
    EXPECT_THROW(arr.at(4), PanicError);
}

TEST(TxQueueTest, EveryTicketDispensedExactlyOnce)
{
    Dpu dpu(smallDpu());
    core::StmConfig cfg;
    cfg.kind = core::StmKind::NOrec;
    cfg.num_tasklets = 6;
    auto stm = std::make_unique<core::Stm>(dpu, cfg);
    TxQueue queue(dpu, Tier::Mram, 50);

    std::vector<int> claimed(50, 0);
    dpu.addTasklets(6, [&](DpuContext &ctx) {
        for (;;) {
            const s64 t = queue.pop(*stm, ctx);
            if (t < 0)
                return;
            ++claimed[static_cast<size_t>(t)];
        }
    });
    dpu.run();
    for (int c : claimed)
        EXPECT_EQ(c, 1);
}

TEST(TxQueueTest, DrainedQueueReturnsMinusOne)
{
    Dpu dpu(smallDpu());
    core::StmConfig cfg;
    cfg.num_tasklets = 1;
    auto stm = std::make_unique<core::Stm>(dpu, cfg);
    TxQueue queue(dpu, Tier::Mram, 2);

    std::vector<s64> seen;
    dpu.addTasklet([&](DpuContext &ctx) {
        for (int i = 0; i < 4; ++i)
            seen.push_back(queue.pop(*stm, ctx));
    });
    dpu.run();
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0], 0);
    EXPECT_EQ(seen[1], 1);
    EXPECT_EQ(seen[2], -1);
    EXPECT_EQ(seen[3], -1);
}

TEST(StatsReport, FormatsRatesAndDurations)
{
    using core::formatRate;
    using core::formatSeconds;
    EXPECT_EQ(formatRate(1.5e9), "1.50 Gtx/s");
    EXPECT_EQ(formatRate(2.5e6), "2.50 Mtx/s");
    EXPECT_EQ(formatRate(3.1e3), "3.10 Ktx/s");
    EXPECT_EQ(formatRate(42.0), "42.00 tx/s");
    EXPECT_EQ(formatSeconds(2.0), "2.00 s");
    EXPECT_EQ(formatSeconds(2e-3), "2.00 ms");
    EXPECT_EQ(formatSeconds(2e-6), "2.00 us");
    EXPECT_EQ(formatSeconds(2e-9), "2.00 ns");
}

TEST(StatsReport, ReportMentionsKeyCounters)
{
    Dpu dpu(smallDpu());
    core::StmConfig cfg;
    cfg.num_tasklets = 2;
    auto stm = std::make_unique<core::Stm>(dpu, cfg);
    SharedArray32 arr(dpu, Tier::Mram, 2);
    arr.fill(dpu, 0);
    dpu.addTasklets(2, [&](DpuContext &ctx) {
        for (int i = 0; i < 10; ++i) {
            core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                tx.write(arr.at(0), tx.read(arr.at(0)) + 1);
            });
        }
    });
    dpu.run();

    std::ostringstream os;
    core::printReport(os, stm->stats(), dpu.stats());
    const std::string out = os.str();
    EXPECT_NE(out.find("commits"), std::string::npos);
    EXPECT_NE(out.find("time breakdown"), std::string::npos);
    EXPECT_NE(out.find("MRAM reads"), std::string::npos);
}

//
// Workload units.
//

TEST(ArrayBenchParamsTest, PaperConstants)
{
    const auto a = workloads::ArrayBenchParams::workloadA();
    EXPECT_EQ(a.region_y, 2500u);
    EXPECT_EQ(a.region_k, 10000u);
    EXPECT_EQ(a.totalWords(), 12500u);
    EXPECT_EQ(a.read_ops, 100u);
    EXPECT_EQ(a.rmw_ops, 20u);

    const auto b = workloads::ArrayBenchParams::workloadB();
    EXPECT_EQ(b.region_y, 0u);
    EXPECT_EQ(b.region_k, 10u);
    EXPECT_EQ(b.rmw_ops, 4u);
}

TEST(LinkedListParamsTest, PaperConstants)
{
    const auto lc = workloads::LinkedListParams::lowContention();
    EXPECT_DOUBLE_EQ(lc.contains_ratio, 0.9);
    EXPECT_EQ(lc.ops_per_tasklet, 100u);
    EXPECT_EQ(lc.initial_size, 10u);
    const auto hc = workloads::LinkedListParams::highContention();
    EXPECT_DOUBLE_EQ(hc.contains_ratio, 0.5);
}

TEST(KMeansParamsTest, PaperConstants)
{
    const auto lc = workloads::KMeansParams::lowContention();
    EXPECT_EQ(lc.clusters, 15u);
    EXPECT_EQ(lc.dims, 14u);
    const auto hc = workloads::KMeansParams::highContention();
    EXPECT_EQ(hc.clusters, 2u);
    EXPECT_EQ(hc.dims, 14u);
}

TEST(LabyrinthParamsTest, PaperGridSizes)
{
    const auto s = workloads::LabyrinthParams::small();
    EXPECT_EQ(s.cells(), 16u * 16 * 3);
    EXPECT_EQ(s.num_paths, 100u);
    const auto m = workloads::LabyrinthParams::medium();
    EXPECT_EQ(m.cells(), 32u * 32 * 3);
    const auto l = workloads::LabyrinthParams::large();
    EXPECT_EQ(l.cells(), 128u * 128 * 3);
}

TEST(LabyrinthGeometry, NeighborsAreMutual)
{
    workloads::LabyrinthParams p = workloads::LabyrinthParams::small(1);
    workloads::Labyrinth lab(p);
    // Exercise via a tiny run so the object is fully constructed, then
    // spot-check geometry through verify-reachable behaviour: instead,
    // check coordinates round-trip via cell arithmetic.
    for (u32 cell : {0u, 1u, 15u, 16u, 255u, 256u, 767u}) {
        const u32 cx = cell % p.x;
        const u32 cy = (cell / p.x) % p.y;
        const u32 cz = cell / (p.x * p.y);
        EXPECT_EQ((cz * p.y + cy) * p.x + cx, cell);
        EXPECT_LT(cx, p.x);
        EXPECT_LT(cy, p.y);
        EXPECT_LT(cz, p.z);
    }
}
