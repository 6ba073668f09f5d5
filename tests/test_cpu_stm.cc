/**
 * @file
 * Tests for the host-side (real-threads) NOrec STM and the CPU
 * baseline workloads used by the §4.3 study.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "cpu/kmeans_cpu.hh"
#include "cpu/labyrinth_cpu.hh"
#include "cpu/norec_cpu.hh"
#include "util/rng.hh"

using namespace pimstm;
using namespace pimstm::cpu;

TEST(CpuNOrecTest, SingleThreadReadWrite)
{
    CpuNOrec stm;
    CpuTx tx;
    u32 a = 5, b = 7;
    cpuAtomically(stm, tx, [&](CpuTx &t) {
        const u32 va = stm.read(t, &a);
        stm.write(t, &b, va + 1);
    });
    EXPECT_EQ(b, 6u);
    EXPECT_EQ(tx.commits, 1u);
    EXPECT_EQ(stm.seqlock(), 2u);
}

TEST(CpuNOrecTest, ReadYourOwnWrites)
{
    CpuNOrec stm;
    CpuTx tx;
    u32 a = 1;
    u32 seen = 0;
    cpuAtomically(stm, tx, [&](CpuTx &t) {
        stm.write(t, &a, 10);
        seen = stm.read(t, &a);
        stm.write(t, &a, 20);
    });
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(a, 20u);
}

TEST(CpuNOrecTest, ReadOnlyCommitLeavesSeqlock)
{
    CpuNOrec stm;
    CpuTx tx;
    u32 a = 1;
    cpuAtomically(stm, tx, [&](CpuTx &t) { stm.read(t, &a); });
    EXPECT_EQ(stm.seqlock(), 0u);
}

TEST(CpuNOrecTest, CountersAtomicUnderRealThreads)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kIncs = 5000;
    CpuNOrec stm;
    u32 counter = 0;

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            CpuTx tx;
            for (unsigned j = 0; j < kIncs; ++j) {
                cpuAtomically(stm, tx, [&](CpuTx &t) {
                    stm.write(t, &counter, stm.read(t, &counter) + 1);
                });
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, kThreads * kIncs);
}

TEST(CpuNOrecTest, BankInvariantUnderRealThreads)
{
    constexpr unsigned kThreads = 6;
    constexpr unsigned kOps = 4000;
    constexpr unsigned kAccounts = 32;
    CpuNOrec stm;
    std::vector<u32> accounts(kAccounts, 100);

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            Rng rng(deriveSeed(77, i));
            CpuTx tx;
            for (unsigned j = 0; j < kOps; ++j) {
                const u32 from =
                    static_cast<u32>(rng.below(kAccounts));
                u32 to = static_cast<u32>(rng.below(kAccounts));
                if (to == from)
                    to = (to + 1) % kAccounts;
                cpuAtomically(stm, tx, [&](CpuTx &t) {
                    const u32 f = stm.read(t, &accounts[from]);
                    const u32 v = stm.read(t, &accounts[to]);
                    stm.write(t, &accounts[from], f - 1);
                    stm.write(t, &accounts[to], v + 1);
                });
            }
        });
    }
    for (auto &t : threads)
        t.join();

    u64 total = 0;
    for (u32 v : accounts)
        total += v;
    EXPECT_EQ(total, kAccounts * 100u);
}

TEST(KMeansCpuTest, FoldsEveryPointEveryRound)
{
    KMeansCpuParams p;
    p.clusters = 4;
    p.total_points = 4000;
    p.rounds = 2;
    p.threads = 4;
    const auto r = runKMeansCpu(p);
    // commits = one tx per point per round (plus none spurious)
    EXPECT_EQ(r.commits,
              static_cast<u64>(p.total_points) * p.rounds);
    EXPECT_GT(r.seconds, 0.0);
    ASSERT_EQ(r.centroids.size(), static_cast<size_t>(p.clusters) * p.dims);
    for (float c : r.centroids)
        EXPECT_TRUE(std::isfinite(c));
}

TEST(KMeansCpuTest, ScalesLinearlyInPoints)
{
    // The Fig. 7 harness extrapolates CPU time linearly in the point
    // count; verify the assumption within loose bounds. These are real
    // host threads, so each size takes the best of three runs: a run
    // slowed by other load on the machine does not decide the ratio.
    KMeansCpuParams p;
    p.clusters = 8;
    p.threads = 4;
    const auto best_of_3 = [&](u32 points) {
        p.total_points = points;
        double best = runKMeansCpu(p).seconds;
        for (int i = 1; i < 3; ++i)
            best = std::min(best, runKMeansCpu(p).seconds);
        return best;
    };
    const double t1 = best_of_3(20000);
    const double t4 = best_of_3(80000);
    EXPECT_GT(t4 / t1, 2.0);
    EXPECT_LT(t4 / t1, 8.0);
}

TEST(LabyrinthCpuTest, RoutesAndConservesJobs)
{
    LabyrinthCpuParams p;
    p.num_paths = 40;
    p.threads = 8;
    const auto r = runLabyrinthCpu(p);
    EXPECT_EQ(r.routed + r.failed, 40u);
    EXPECT_GT(r.routed, 20u);
    EXPECT_GT(r.seconds, 0.0);
}

TEST(LabyrinthCpuTest, LargerGridsCostMore)
{
    LabyrinthCpuParams s;
    s.num_paths = 24;
    s.threads = 4;
    const auto rs = runLabyrinthCpu(s);

    LabyrinthCpuParams l = s;
    l.x = 128;
    l.y = 128;
    const auto rl = runLabyrinthCpu(l);
    EXPECT_GT(rl.seconds, rs.seconds);
}
