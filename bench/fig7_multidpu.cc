/**
 * @file
 * Reproduces Fig. 7: speedup of the multi-DPU PIM-STM ports of KMeans
 * (LC and HC) and Labyrinth (S, M, L) over their CPU implementations,
 * as the number of DPUs grows — plus the cross-shard DistributedKv
 * scaling study (shards x mixed op/movek batches under 2PC).
 *
 * Per §4.3.1 the DPU side uses NOrec at the peak tasklet count (WRAM
 * metadata for KMeans; MRAM for Labyrinth, whose sets exceed WRAM);
 * the CPU side uses the host NOrec at its optimal thread count (4 for
 * KMeans, 8 for Labyrinth, 4 independent processes for Labyrinth to
 * fill all 32 hardware threads). KMeans assigns a fixed shard per DPU,
 * so the total input grows with the DPU count; Labyrinth gives each
 * DPU an independent instance.
 *
 * The cpu_s / merge_s / speedup columns are charged through the
 * deterministic host cost model (the kHost* constants of
 * sim/config.hh), so every column is bitwise stable across runs,
 * machines and --jobs settings; --measured-cpu restores the
 * wall-clock-timed CPU baselines.
 *
 * Paper shapes to check against:
 *  - A single DPU is FAR slower than the CPU (100-300x for KMeans).
 *  - Break-even at a few hundred DPUs; speedup grows ~linearly beyond.
 *  - KMeans peaks ~14x (HC) / ~6x (LC) at 2500 DPUs.
 *  - Labyrinth peak gains shrink with grid size (8.48x S -> 2.22x L):
 *    larger grids under-utilize the DPU pipeline.
 */

#include <chrono>

#include "bench/common.hh"
#include "cpu/kmeans_cpu.hh"
#include "cpu/labyrinth_cpu.hh"
#include "hostapp/distributed_kv.hh"
#include "hostapp/multi_dpu.hh"
#include "util/rng.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::hostapp;

namespace
{

const std::vector<unsigned> kDpuSeries = {1,   8,    32,   128, 300,
                                          600, 1200, 2000, 2500};

void
kmeansStudy(const BenchOptions &opt, bool high_contention,
            bool measured_cpu)
{
    MultiKMeansParams mp;
    mp.clusters = high_contention ? 2 : 15;
    mp.points_per_dpu = opt.full ? 9600 : 1200;
    mp.sample_dpus = 2;

    // CPU baseline at a tractable scale; its runtime is linear in the
    // point count (verified by KMeansCpuScalesLinearly in the test
    // suite), so larger inputs are extrapolated. Modelled by default
    // (bitwise stable); --measured-cpu times the real threads.
    const u32 cpu_measure_points = opt.full ? 480000 : 96000;
    cpu::KMeansCpuParams cp;
    cp.clusters = mp.clusters;
    cp.total_points = cpu_measure_points;
    cp.threads = 4;
    const double cpu_seconds = measured_cpu
                                   ? cpu::runKMeansCpu(cp).seconds
                                   : cpu::modelKMeansCpuSeconds(cp);
    const double cpu_sec_per_point = cpu_seconds / cp.total_points;

    Table table({"dpus", "dpu_total_s", "dpu_compute_s", "transfer_s",
                 "merge_s", "cpu_s", "speedup"});
    for (unsigned d : kDpuSeries) {
        const auto t = runKMeansMultiDpu(d, mp);
        const double cpu_s = cpu_sec_per_point *
                             static_cast<double>(mp.points_per_dpu) * d;
        table.newRow()
            .cell(d)
            .cell(t.total(), 6)
            .cell(t.compute_seconds, 6)
            .cell(t.transfer_seconds, 6)
            .cell(t.merge_seconds, 6)
            .cell(cpu_s, 6)
            .cell(cpu_s / t.total(), 3);
    }
    std::cout << "== Fig 7a  KMeans "
              << (high_contention ? "HC (k=2)" : "LC (k=15)")
              << " speedup vs CPU ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

void
labyrinthStudy(const BenchOptions &opt, const char *label, u32 x, u32 y,
               u32 z, bool measured_cpu)
{
    MultiLabyrinthParams mp;
    mp.x = x;
    mp.y = y;
    mp.z = z;
    mp.num_paths = opt.full ? 100 : 32;
    mp.sample_dpus = 2;

    cpu::LabyrinthCpuParams cp;
    cp.x = x;
    cp.y = y;
    cp.z = z;
    cp.num_paths = mp.num_paths;
    cp.threads = 8;
    const double cpu_seconds =
        measured_cpu ? cpu::runLabyrinthCpu(cp).seconds
                     : cpu::modelLabyrinthCpuSeconds(cp);

    Table table({"dpus", "dpu_total_s", "dpu_compute_s", "transfer_s",
                 "cpu_s", "speedup"});
    for (unsigned d : kDpuSeries) {
        const auto t = runLabyrinthMultiDpu(d, mp);
        // The CPU runs 4 independent 8-thread processes, so D
        // instances take ceil(D/4) sequential rounds per process.
        const double cpu_s = cpu_seconds * divCeil(d, 4);
        table.newRow()
            .cell(d)
            .cell(t.total(), 6)
            .cell(t.compute_seconds, 6)
            .cell(t.transfer_seconds, 6)
            .cell(cpu_s, 6)
            .cell(cpu_s / t.total(), 3);
    }
    std::cout << "== Fig 7b  Labyrinth " << label
              << " speedup vs CPU ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

/**
 * Cross-shard DistributedKv scaling: mixed batches (gets/puts with
 * ~10% movek) against shard counts up to the hundreds. Each batch
 * flows through the same launches — single-shard ops in parallel
 * across DPUs, cross-shard transactions under two-phase commit — so
 * the simulated ops/s column is the headline the 2PC path buys over
 * the old serialized movek (bench/micro_2pc.cc measures that ratio
 * directly). All columns are simulated/modelled and bitwise stable.
 */
void
kvStudy(const BenchOptions &opt)
{
    const std::vector<unsigned> shard_series =
        opt.full ? std::vector<unsigned>{4, 16, 64, 256, 512}
                 : std::vector<unsigned>{4, 16, 64, 256};
    const u32 per_shard = opt.full ? 16 : 4;
    const u32 batches = 2;

    Table table({"shards", "batch_ops", "moveks", "tx_commits",
                 "sim_s", "ops_per_sim_s", "prep_rounds",
                 "commit_rounds", "occupancy"});
    TwoPcStats distributed; // summed over the instances below
    for (unsigned shards : shard_series) {
        DistributedKvConfig cfg;
        cfg.shards = shards;
        cfg.capacity_per_shard = 512;
        cfg.tasklets_per_dpu = 4;
        cfg.mram_bytes = 1 << 20;
        cfg.seed = 1;
        cfg.faults = opt.faults;
        DistributedKv kv(cfg);

        const auto wall0 = std::chrono::steady_clock::now();
        const u32 per_batch = shards * per_shard;
        Rng rng(deriveSeed(cfg.seed, 0xf197, shards));
        u32 next_key = 1;
        std::vector<u32> tokens;

        // Seed one batch of puts so moveks have tokens to relocate.
        std::vector<KvOp> seed_ops;
        for (u32 i = 0; i < per_batch; ++i) {
            const u32 key = next_key++;
            seed_ops.push_back(KvOp::put(key, 100000u + key));
            tokens.push_back(key);
        }
        kv.execute(seed_ops);

        u64 total_items = seed_ops.size();
        u64 moveks = 0, tx_commits = 0;
        for (u32 b = 0; b < batches; ++b) {
            std::vector<KvOp> ops;
            std::vector<CrossShardTx> txs;
            for (u32 i = 0; i < per_batch; ++i) {
                if (rng.below(10) == 0) {
                    const size_t pick = rng.below(tokens.size());
                    const u32 src = tokens[pick];
                    const u32 dst = next_key++;
                    tokens[pick] = dst;
                    txs.push_back(CrossShardTx::move(src, dst));
                } else if (rng.chance(0.5)) {
                    ops.push_back(KvOp::get(
                        tokens[rng.below(tokens.size())]));
                } else {
                    const u32 key = next_key++;
                    ops.push_back(KvOp::put(key, 100000u + key));
                    tokens.push_back(key);
                }
            }
            const auto res = kv.execute(ops, txs);
            total_items += ops.size() + txs.size();
            moveks += txs.size();
            for (const auto &tr : res.txs)
                tx_commits += tr.committed ? 1 : 0;
        }

        const auto &st = kv.stats();
        const double sim_s = kv.elapsedSeconds();
        table.newRow()
            .cell(shards)
            .cell(per_batch)
            .cell(moveks)
            .cell(tx_commits)
            .cell(sim_s, 6)
            .cell(static_cast<double>(total_items) / sim_s, 1)
            .cell(st.prepare_rounds)
            .cell(st.commit_rounds)
            .cell(st.meanShardOccupancy(), 4);

        distributed += st;
        PerfRecord rec;
        rec.label = "kv/s" + std::to_string(shards);
        rec.wall_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall0)
                         .count();
        rec.stm = kv.stmStats();
        rec.dpu = kv.dpuStats();
        PerfReporter::instance().record(std::move(rec));
    }
    std::cout << "== Fig 7c  DistributedKv cross-shard scaling "
                 "(2PC movek) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";

    PerfReporter::instance().setExtraBlock("distributed",
                                           twoPcStatsJson(distributed));
}

} // namespace

int
main(int argc, char **argv)
{
    bool measured_cpu = false;
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            if (a == "--measured-cpu") {
                measured_cpu = true;
                return true;
            }
            return false;
        });
    return guardedMain([&] {
        kmeansStudy(opt, false, measured_cpu);
        kmeansStudy(opt, true, measured_cpu);
        labyrinthStudy(opt, "S (16x16x3)", 16, 16, 3, measured_cpu);
        labyrinthStudy(opt, "M (32x32x3)", 32, 32, 3, measured_cpu);
        labyrinthStudy(opt, "L (128x128x3)", 128, 128, 3, measured_cpu);
        kvStudy(opt);
        return 0;
    });
}
