#include "cpu/kmeans_cpu.hh"

#include <barrier>
#include <bit>
#include <chrono>
#include <thread>

#include "cpu/norec_cpu.hh"
#include "sim/config.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace pimstm::cpu
{

double
modelKMeansCpuSeconds(const KMeansCpuParams &params)
{
    fatalIf(params.threads == 0, "KMeans CPU needs at least one thread");
    const double flops = 3.0 * params.clusters * params.dims;
    const double stm_ns =
        2.0 * (params.dims + 1) * sim::kHostStmOpNs + sim::kHostStmTxNs;
    const double seq_per_point_round =
        flops / sim::kHostFlopsPerS + stm_ns * 1e-9;
    const double wall_per_point_round =
        seq_per_point_round /
        (params.threads * sim::kHostParallelEfficiency);
    return wall_per_point_round *
           static_cast<double>(params.total_points) * params.rounds;
}

KMeansCpuResult
runKMeansCpu(const KMeansCpuParams &params)
{
    const u32 k = params.clusters;
    const u32 n = params.dims;
    fatalIf(params.threads == 0, "KMeans CPU needs at least one thread");

    // Same synthetic blob generator as the DPU port.
    Rng rng(deriveSeed(params.seed, 0x6b6d6561u));
    std::vector<float> points(static_cast<size_t>(params.total_points) * n);
    for (u32 p = 0; p < params.total_points; ++p) {
        const u32 blob = static_cast<u32>(rng.below(k));
        for (u32 d = 0; d < n; ++d) {
            const float center = static_cast<float>(blob * 10 + d % 3);
            const float jitter =
                static_cast<float>(rng.uniform() * 4.0 - 2.0);
            points[static_cast<size_t>(p) * n + d] = center + jitter;
        }
    }

    std::vector<float> centroids(static_cast<size_t>(k) * n);
    for (u32 c = 0; c < k; ++c)
        for (u32 d = 0; d < n; ++d)
            centroids[c * n + d] = points[c * n + d];

    // Shared accumulators as u32 words (float bits), STM-protected.
    std::vector<u32> sums(static_cast<size_t>(k) * n,
                          std::bit_cast<u32>(0.0f));
    std::vector<u32> counts(k, 0);

    CpuNOrec stm;
    std::vector<CpuTx> txs(params.threads);
    std::barrier barrier(static_cast<std::ptrdiff_t>(params.threads));

    auto worker = [&](unsigned me) {
        CpuTx &tx = txs[me];
        for (u32 round = 0; round < params.rounds; ++round) {
            for (u32 p = me; p < params.total_points;
                 p += params.threads) {
                u32 best = 0;
                float best_dist = 0.0f;
                for (u32 c = 0; c < k; ++c) {
                    float dist = 0.0f;
                    for (u32 d = 0; d < n; ++d) {
                        const float diff =
                            centroids[c * n + d] -
                            points[static_cast<size_t>(p) * n + d];
                        dist += diff * diff;
                    }
                    if (c == 0 || dist < best_dist) {
                        best_dist = dist;
                        best = c;
                    }
                }
                cpuAtomically(stm, tx, [&](CpuTx &t) {
                    for (u32 d = 0; d < n; ++d) {
                        const float s = std::bit_cast<float>(
                            stm.read(t, &sums[best * n + d]));
                        stm.write(
                            t, &sums[best * n + d],
                            std::bit_cast<u32>(
                                s +
                                points[static_cast<size_t>(p) * n + d]));
                    }
                    stm.write(t, &counts[best],
                              stm.read(t, &counts[best]) + 1);
                });
            }
            barrier.arrive_and_wait();
            if (me == 0) {
                for (u32 c = 0; c < k; ++c) {
                    const u32 count = counts[c];
                    for (u32 d = 0; d < n; ++d) {
                        if (count > 0) {
                            centroids[c * n + d] =
                                std::bit_cast<float>(sums[c * n + d]) /
                                static_cast<float>(count);
                        }
                        sums[c * n + d] = std::bit_cast<u32>(0.0f);
                    }
                    counts[c] = 0;
                }
            }
            barrier.arrive_and_wait();
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(params.threads);
    for (unsigned t = 0; t < params.threads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();

    KMeansCpuResult result;
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (const auto &tx : txs) {
        result.commits += tx.commits;
        result.aborts += tx.aborts;
    }
    result.centroids = centroids;
    return result;
}

} // namespace pimstm::cpu
