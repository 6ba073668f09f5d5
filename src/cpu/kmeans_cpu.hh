/**
 * @file
 * CPU baseline for the multi-DPU KMeans study (§4.3): the same
 * transactional k-means kernel as the DPU port, on real host threads
 * with the host NOrec STM, timed in wall-clock.
 */

#ifndef PIMSTM_CPU_KMEANS_CPU_HH
#define PIMSTM_CPU_KMEANS_CPU_HH

#include <vector>

#include "util/types.hh"

namespace pimstm::cpu
{

struct KMeansCpuParams
{
    u32 clusters = 15;
    u32 dims = 14;
    u32 total_points = 100000;
    u32 rounds = 3;
    unsigned threads = 4; // the paper's optimum for KMeans
    u64 seed = 1;
};

struct KMeansCpuResult
{
    double seconds = 0;
    u64 commits = 0;
    u64 aborts = 0;
    std::vector<float> centroids; // clusters x dims
};

/** Run the CPU KMeans baseline and return timing + stats. */
KMeansCpuResult runKMeansCpu(const KMeansCpuParams &params);

/**
 * Deterministic closed-form model of runKMeansCpu's wall-clock: per
 * point and round the CPU computes clusters x dims squared distances
 * (3 FLOPs each) and commits one transaction updating dims+1 shared
 * accumulator words (a read and a write each), divided across threads
 * at the configured efficiency. Used by the figure harnesses so their
 * cpu_s / speedup columns are bitwise stable (--measured-cpu restores
 * the timed baseline).
 */
double modelKMeansCpuSeconds(const KMeansCpuParams &params);

} // namespace pimstm::cpu

#endif // PIMSTM_CPU_KMEANS_CPU_HH
