/**
 * @file
 * Tests for the multi-DPU models and the energy model behind Figs. 7
 * and 8: monotonicity in the DPU count, decomposition sanity, the
 * host-link transfer-cost model, and the TDP-based energy arithmetic.
 */

#include <gtest/gtest.h>

#include "hostapp/energy.hh"
#include "hostapp/multi_dpu.hh"
#include "sim/config.hh"

using namespace pimstm;
using namespace pimstm::hostapp;

namespace
{

MultiKMeansParams
tinyKMeans()
{
    MultiKMeansParams p;
    p.points_per_dpu = 240;
    p.sample_dpus = 1;
    return p;
}

MultiLabyrinthParams
tinyLabyrinth()
{
    MultiLabyrinthParams p;
    p.num_paths = 12;
    p.sample_dpus = 1;
    return p;
}

} // namespace

TEST(MultiDpuKMeans, ComputeTimeConstantAcrossDpuCount)
{
    // Each DPU owns a fixed shard, so per-DPU compute time must not
    // grow with the system size (the paper's core scaling argument).
    const auto p = tinyKMeans();
    const auto t1 = runKMeansMultiDpu(1, p);
    const auto t100 = runKMeansMultiDpu(100, p);
    EXPECT_DOUBLE_EQ(t1.compute_seconds, t100.compute_seconds);
}

TEST(MultiDpuKMeans, TransferAndMergeGrowWithDpus)
{
    const auto p = tinyKMeans();
    const auto t10 = runKMeansMultiDpu(10, p);
    const auto t1000 = runKMeansMultiDpu(1000, p);
    EXPECT_GT(t1000.transfer_seconds, t10.transfer_seconds);
    EXPECT_GE(t1000.merge_seconds, t10.merge_seconds);
}

TEST(MultiDpuKMeans, TotalIsSumOfParts)
{
    const auto t = runKMeansMultiDpu(8, tinyKMeans());
    EXPECT_NEAR(t.total(),
                t.compute_seconds + t.transfer_seconds +
                    t.merge_seconds + t.launch_seconds,
                1e-12);
    EXPECT_EQ(t.dpus, 8u);
}

TEST(MultiDpuLabyrinth, ComputeConstantTransfersGrow)
{
    const auto p = tinyLabyrinth();
    const auto t1 = runLabyrinthMultiDpu(1, p);
    const auto t500 = runLabyrinthMultiDpu(500, p);
    EXPECT_DOUBLE_EQ(t1.compute_seconds, t500.compute_seconds);
    EXPECT_GT(t500.transfer_seconds, t1.transfer_seconds);
}

TEST(MultiDpu, RejectsZeroDpus)
{
    EXPECT_THROW(runKMeansMultiDpu(0, tinyKMeans()), FatalError);
    EXPECT_THROW(runLabyrinthMultiDpu(0, tinyLabyrinth()), FatalError);
}

TEST(EnergyModel, PimScalesWithDpuFraction)
{
    const double full = pimEnergyJoules(10.0, sim::kUpmemSystemDpus);
    const double half = pimEnergyJoules(10.0, sim::kUpmemSystemDpus / 2);
    EXPECT_NEAR(full, sim::kUpmemSystemTdpW * 10.0, 1e-9);
    EXPECT_NEAR(half, full / 2, 1e-9);
    // More DPUs than the system has cannot exceed full TDP.
    EXPECT_NEAR(pimEnergyJoules(10.0, sim::kUpmemSystemDpus * 2), full,
                1e-9);
}

TEST(EnergyModel, CpuUsesPackagePlusDram)
{
    EXPECT_NEAR(cpuEnergyJoules(2.0),
                (sim::kCpuPackageW + sim::kCpuDramW) * 2.0, 1e-9);
}

TEST(EnergyModel, GainMatchesPaperArithmetic)
{
    // Equal times at full scale: gain = P_cpu / P_pim.
    const auto e = estimateEnergy(1.0, sim::kUpmemSystemDpus, 1.0);
    EXPECT_NEAR(e.gain(),
                (sim::kCpuPackageW + sim::kCpuDramW) /
                    sim::kUpmemSystemTdpW,
                1e-9);
    // A PIM run 2x faster doubles the gain.
    const auto e2 = estimateEnergy(0.5, sim::kUpmemSystemDpus, 1.0);
    EXPECT_NEAR(e2.gain(), 2 * e.gain(), 1e-9);
}

TEST(HostLink, LatencyConstantsMatchPaper)
{
    const double inter_s = sim::kInterDpuWordReadUs * 1e-6;
    const double local_s = sim::kLocalMramWordReadNs * 1e-9;
    EXPECT_NEAR(inter_s * 1e6, 331.0, 1e-9);
    EXPECT_NEAR(local_s * 1e9, 231.0, 1e-9);
    // The headline three-orders-of-magnitude gap (§3.1).
    const double ratio = inter_s / local_s;
    EXPECT_GT(ratio, 1000.0);
    EXPECT_LT(ratio, 2000.0);
}

TEST(HostLink, TransfersScaleWithBytes)
{
    const double small = sim::transferSeconds(1024.0 * 1000);
    const double big = sim::transferSeconds(1024.0 * 1024 * 1000);
    EXPECT_GT(big, small);
    // The same payload to twice the DPUs moves twice the bytes.
    EXPECT_GT(sim::transferSeconds(1024.0 * 1024 * 2000), big);
}
