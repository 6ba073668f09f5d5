/**
 * @file
 * KMeans — TM port of the STAMP k-means kernel (§4.1).
 *
 * Given P points of N = 14 dimensions, the kernel assigns each point to
 * the nearest centroid and accumulates it into that centroid's running
 * sums. The distance computation is non-transactional (it reads the
 * previous round's centroids, which are stable within a round); only
 * the accumulator update is a transaction, with read and write sets of
 * size N+1 — exactly the structure the paper describes. The fraction
 * of transactional time shrinks as k grows, which is why k = 15 (LC)
 * barely separates the STMs while k = 2 (HC) amplifies their gaps.
 *
 * Rounds are separated by barriers; tasklet 0 recomputes centroids
 * from the accumulators between rounds, as in the multi-DPU port the
 * CPU does the merge.
 */

#ifndef PIMSTM_WORKLOADS_KMEANS_HH
#define PIMSTM_WORKLOADS_KMEANS_HH

#include <bit>
#include <cmath>
#include <vector>

#include "runtime/driver.hh"
#include "runtime/shared_array.hh"

namespace pimstm::workloads
{

struct KMeansParams
{
    /** Number of clusters (k = 15 -> LC, k = 2 -> HC in the paper). */
    u32 clusters = 15;
    /** Point dimensionality (N = 14 in the paper). */
    u32 dims = 14;
    /** Points per tasklet per round. */
    u32 points_per_tasklet = 32;
    /** Rounds (3 in the paper's multi-DPU setup). */
    u32 rounds = 3;
    /** Tasklets the point shards must provision for. */
    u32 max_tasklets = 24;

    static KMeansParams
    lowContention(u32 points = 32)
    {
        KMeansParams p;
        p.clusters = 15;
        p.points_per_tasklet = points;
        return p;
    }

    static KMeansParams
    highContention(u32 points = 32)
    {
        KMeansParams p;
        p.clusters = 2;
        p.points_per_tasklet = points;
        return p;
    }
};

class KMeans : public runtime::Workload
{
  public:
    explicit KMeans(const KMeansParams &params)
        : params_(params)
    {}

    const char *
    name() const override
    {
        return params_.clusters <= 4 ? "KMeans HC" : "KMeans LC";
    }

    void
    configure(core::StmConfig &cfg) const override
    {
        cfg.max_read_set = params_.dims + 8;
        cfg.max_write_set = params_.dims + 8;
        // Shared words: accumulators (k * (N+1)) + centroids (k * N).
        cfg.data_words_hint =
            params_.clusters * (2 * params_.dims + 1);
    }

    void
    setup(sim::Dpu &dpu, core::Stm &) override
    {
        const u32 k = params_.clusters;
        const u32 n = params_.dims;

        centroids_ = runtime::SharedArray32(dpu, sim::Tier::Mram, k * n);
        sums_ = runtime::SharedArray32(dpu, sim::Tier::Mram, k * n);
        counts_ = runtime::SharedArray32(dpu, sim::Tier::Mram, k);

        // Deterministic synthetic input: clustered Gaussian-ish blobs.
        Rng rng(deriveSeed(dpu.config().seed, 0x6b6d6561u));
        const u32 total_points =
            params_.max_tasklets * params_.points_per_tasklet;
        points_.assign(static_cast<size_t>(total_points) * n, 0.0f);
        points_mem_ = runtime::SharedArray32(dpu, sim::Tier::Mram,
                                             total_points * n);
        for (u32 p = 0; p < total_points; ++p) {
            const u32 blob = static_cast<u32>(rng.below(k));
            for (u32 d = 0; d < n; ++d) {
                const float center =
                    static_cast<float>(blob * 10 + d % 3);
                const float jitter =
                    static_cast<float>(rng.uniform() * 4.0 - 2.0);
                const float v = center + jitter;
                points_[static_cast<size_t>(p) * n + d] = v;
                points_mem_.poke(dpu, static_cast<size_t>(p) * n + d,
                                 std::bit_cast<u32>(v));
            }
        }

        // Initial centroids: the first k points.
        for (u32 c = 0; c < k; ++c)
            for (u32 d = 0; d < n; ++d)
                centroids_.poke(dpu, c * n + d,
                                points_mem_.peek(dpu, c * n + d));
        sums_.fill(dpu, std::bit_cast<u32>(0.0f));
        counts_.fill(dpu, 0);
        final_count_total_ = 0;
    }

    void
    tasklet(sim::DpuContext &ctx, core::Stm &stm) override
    {
        const u32 k = params_.clusters;
        const u32 n = params_.dims;
        const u32 me = ctx.taskletId();
        const u32 tasklets = ctx.numTasklets();

        for (u32 round = 0; round < params_.rounds; ++round) {
            // Points are sharded round-robin over the active tasklets.
            for (u32 p = me; p < params_.max_tasklets *
                                     params_.points_per_tasklet;
                 p += tasklets) {
                // Stream the point's coordinates in from MRAM.
                ctx.touchRead(sim::Tier::Mram, n * 4);
                // Non-transactional: nearest centroid under the
                // previous round's coordinates.
                u32 best = 0;
                float best_dist = 0.0f;
                for (u32 c = 0; c < k; ++c) {
                    float dist = 0.0f;
                    for (u32 d = 0; d < n; ++d) {
                        const float cv = std::bit_cast<float>(
                            ctx.read32(centroids_.at(c * n + d)));
                        const float pv =
                            points_[static_cast<size_t>(p) * n + d];
                        dist += (cv - pv) * (cv - pv);
                    }
                    // Software floating point: sub/mul/add per dim.
                    ctx.compute(3ull * n * sim::kFloatOpInstrs);
                    if (c == 0 || dist < best_dist) {
                        best_dist = dist;
                        best = c;
                    }
                }

                // Transactional: fold the point into the accumulator.
                core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                    for (u32 d = 0; d < n; ++d) {
                        const float s =
                            tx.readFloat(sums_.at(best * n + d));
                        // One software-emulated float add.
                        ctx.compute(sim::kFloatOpInstrs);
                        tx.writeFloat(
                            sums_.at(best * n + d),
                            s + points_[static_cast<size_t>(p) * n + d]);
                    }
                    tx.write(counts_.at(best),
                             tx.read(counts_.at(best)) + 1);
                });
            }

            ctx.barrier();
            if (me == 0)
                mergeRound(ctx, round);
            ctx.barrier();
        }
    }

    void
    verify(sim::Dpu &dpu, core::Stm &) override
    {
        // Every round must have folded every point exactly once.
        const u64 total_points =
            static_cast<u64>(params_.max_tasklets) *
            params_.points_per_tasklet;
        fatalIf(final_count_total_ != total_points * params_.rounds,
                "KMeans lost updates: folded ", final_count_total_,
                " of ", total_points * params_.rounds);
        // Centroids must be finite.
        for (u32 i = 0; i < params_.clusters * params_.dims; ++i) {
            const float v =
                std::bit_cast<float>(centroids_.peek(dpu, i));
            fatalIf(!std::isfinite(v), "KMeans centroid not finite");
        }
    }

    u64
    appOps() const override
    {
        return static_cast<u64>(params_.max_tasklets) *
               params_.points_per_tasklet * params_.rounds;
    }

  private:
    /** Sequential inter-round step on tasklet 0 (the CPU's role in the
     * multi-DPU port): new centroids = sums / counts, then reset. */
    void
    mergeRound(sim::DpuContext &ctx, u32 round)
    {
        const u32 k = params_.clusters;
        const u32 n = params_.dims;
        u64 round_total = 0;
        for (u32 c = 0; c < k; ++c) {
            const u32 count = ctx.read32(counts_.at(c));
            round_total += count;
            for (u32 d = 0; d < n; ++d) {
                const float s = std::bit_cast<float>(
                    ctx.read32(sums_.at(c * n + d)));
                if (count > 0) {
                    ctx.write32(centroids_.at(c * n + d),
                                std::bit_cast<u32>(
                                    s / static_cast<float>(count)));
                }
                ctx.write32(sums_.at(c * n + d),
                            std::bit_cast<u32>(0.0f));
            }
            ctx.write32(counts_.at(c), 0);
            // Division per dimension, software floating point.
            ctx.compute(2ull * n * sim::kFloatOpInstrs);
        }
        (void)round;
        final_count_total_ += round_total;
    }

    KMeansParams params_;
    runtime::SharedArray32 centroids_;
    runtime::SharedArray32 sums_;
    runtime::SharedArray32 counts_;
    runtime::SharedArray32 points_mem_;
    std::vector<float> points_;
    u64 final_count_total_ = 0;
};

} // namespace pimstm::workloads

#endif // PIMSTM_WORKLOADS_KMEANS_HH
