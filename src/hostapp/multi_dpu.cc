#include "hostapp/multi_dpu.hh"

#include <vector>

#include "runtime/driver.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workloads/kmeans.hh"
#include "workloads/labyrinth.hh"

namespace pimstm::hostapp
{

namespace
{

/** Host-side per-round centroid merge for D DPUs: the CPU folds D
 * partial (sums, counts) blocks into global centroids. The arithmetic
 * count is exact — clusters x (dims+1) adds per DPU per round — and is
 * charged against the calibrated merge rate instead of being timed, so
 * the merge column of Fig. 7 is bitwise stable across runs. */
double
modelMergeSeconds(unsigned dpus, u32 clusters, u32 dims, u32 rounds)
{
    const double adds = static_cast<double>(clusters) * (dims + 1) *
                        dpus * rounds;
    return adds / sim::kHostMergeAddsPerS;
}

} // namespace

MultiDpuTime
runKMeansMultiDpu(unsigned dpus, const MultiKMeansParams &params)
{
    fatalIf(dpus == 0, "need at least one DPU");
    const unsigned sample = std::min(params.sample_dpus, dpus);

    // Per-DPU compute: simulate `sample` DPUs with distinct seeds (the
    // shards are statistically identical; the max over the sample is
    // the modelled critical path).
    std::vector<double> sample_seconds(sample, 0.0);
    util::parallelFor(sample, [&](size_t d) {
        workloads::KMeansParams kp;
        kp.clusters = params.clusters;
        kp.dims = params.dims;
        kp.rounds = params.rounds;
        kp.max_tasklets = 24;
        kp.points_per_tasklet = std::max<u32>(1, params.points_per_dpu / 24);
        workloads::KMeans wl(kp);

        runtime::RunSpec spec;
        spec.kind = core::StmKind::NOrec; // §4.3.1: NOrec on the DPU
        spec.tier = params.tier;
        spec.tasklets = params.tasklets;
        spec.seed = deriveSeed(params.seed, 0xd1d1, d);
        spec.mram_bytes = 16 * 1024 * 1024;
        sample_seconds[d] = runWorkload(wl, spec).seconds;
    });
    double worst = 0;
    for (double s : sample_seconds)
        worst = std::max(worst, s);

    MultiDpuTime t;
    t.dpus = dpus;
    t.compute_seconds = worst;

    // Per round: centroids broadcast down, partial sums gathered up.
    const size_t down_bytes =
        static_cast<size_t>(params.clusters) * params.dims * 4;
    const size_t up_bytes =
        static_cast<size_t>(params.clusters) * (params.dims + 1) * 4;
    const double total_bytes =
        static_cast<double>(down_bytes + up_bytes) * dpus * params.rounds;
    t.transfer_seconds =
        params.rounds * 2 * sim::kCopyBaseUs * 1e-6 +
        total_bytes / (sim::kHostCopyBandwidthGbps * 1e9);

    // Input point distribution (once).
    const double input_bytes = static_cast<double>(params.points_per_dpu) *
                               params.dims * 4 * dpus;
    t.transfer_seconds +=
        input_bytes / (sim::kHostCopyBandwidthGbps * 1e9);

    t.merge_seconds = modelMergeSeconds(dpus, params.clusters,
                                        params.dims, params.rounds);
    t.launch_seconds = params.rounds * sim::kLaunchOverheadUs * 1e-6;
    return t;
}

MultiDpuTime
runLabyrinthMultiDpu(unsigned dpus, const MultiLabyrinthParams &params)
{
    fatalIf(dpus == 0, "need at least one DPU");
    const unsigned sample = std::min(params.sample_dpus, dpus);

    std::vector<double> sample_seconds(sample, 0.0);
    util::parallelFor(sample, [&](size_t d) {
        workloads::LabyrinthParams lp;
        lp.x = params.x;
        lp.y = params.y;
        lp.z = params.z;
        lp.num_paths = params.num_paths;
        workloads::Labyrinth wl(lp);

        runtime::RunSpec spec;
        spec.kind = core::StmKind::NOrec;
        spec.tier = core::MetadataTier::Mram; // WRAM infeasible (§4.3.1)
        spec.tasklets = params.tasklets;
        spec.seed = deriveSeed(params.seed, 0x1abcafe, d);
        spec.mram_bytes = 64 * 1024 * 1024;
        sample_seconds[d] = runWorkload(wl, spec).seconds;
    });
    double worst = 0;
    for (double s : sample_seconds)
        worst = std::max(worst, s);

    MultiDpuTime t;
    t.dpus = dpus;
    t.compute_seconds = worst;

    // Problem input down (endpoint list) and solved grid back up.
    const size_t grid_bytes =
        static_cast<size_t>(params.x) * params.y * params.z * 4;
    const size_t job_bytes = static_cast<size_t>(params.num_paths) * 8;
    const double total_bytes =
        static_cast<double>(grid_bytes + job_bytes) * dpus;
    t.transfer_seconds =
        2 * sim::kCopyBaseUs * 1e-6 +
        total_bytes / (sim::kHostCopyBandwidthGbps * 1e9);
    t.launch_seconds = sim::kLaunchOverheadSeconds;
    return t;
}

} // namespace pimstm::hostapp
