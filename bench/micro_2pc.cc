/**
 * @file
 * micro_2pc: the headline number of the cross-shard redesign — the
 * same mixed KV workload (gets/puts with ~10% movek) executed twice
 * per shard count, once with every movek as the old §3.1 serialized
 * escape hatch (two full pipeline drains each) and once through the
 * host-coordinated two-phase-commit batch path, comparing simulated
 * ops/s.
 *
 * Both modes run the byte-identical operation stream against a fresh
 * store, so the ratio isolates the coordination strategy. All columns
 * are simulated/modelled and bitwise stable across runs and --jobs.
 *
 * Extra flag:
 *   --check   assert the acceptance gates (2PC >= 5x serialized at 64
 *             shards; 2PC ops/s monotonically increasing over the
 *             shard series) and exit non-zero on violation.
 *
 * CI's scale-smoke job gates a fresh --perf-json run against the
 * committed BENCH_sim.2pc.json via scripts/check_perf_json.py.
 */

#include <chrono>

#include "bench/common.hh"
#include "hostapp/distributed_kv.hh"
#include "util/rng.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::hostapp;

namespace
{

const std::vector<unsigned> kShardSeries = {4, 16, 64, 256};

/** One batch of the generated workload. */
struct Batch
{
    std::vector<KvOp> ops;
    std::vector<CrossShardTx> txs;
};

/** Deterministic mixed workload: one seeding batch of puts, then
 * @p batches batches of ~10% movek / 45% get / 45% put. */
std::vector<Batch>
makeWorkload(unsigned shards, u32 per_batch, u32 batches, u64 seed)
{
    Rng rng(deriveSeed(seed, 0x29c0, shards));
    u32 next_key = 1;
    std::vector<u32> tokens;

    std::vector<Batch> out;
    Batch seed_batch;
    for (u32 i = 0; i < per_batch; ++i) {
        const u32 key = next_key++;
        seed_batch.ops.push_back(KvOp::put(key, 100000u + key));
        tokens.push_back(key);
    }
    out.push_back(std::move(seed_batch));

    for (u32 b = 0; b < batches; ++b) {
        Batch batch;
        // Moveks only relocate keys that existed before this batch
        // (each at most once), so both execution modes commit the
        // identical set regardless of intra-batch scheduling.
        std::vector<size_t> movable(tokens.size());
        for (size_t i = 0; i < movable.size(); ++i)
            movable[i] = i;
        for (u32 i = 0; i < per_batch; ++i) {
            if (rng.below(10) == 0 && !movable.empty()) {
                const size_t slot = rng.below(movable.size());
                const size_t pick = movable[slot];
                movable[slot] = movable.back();
                movable.pop_back();
                const u32 src = tokens[pick];
                const u32 dst = next_key++;
                tokens[pick] = dst;
                batch.txs.push_back(CrossShardTx::move(src, dst));
            } else if (rng.chance(0.5)) {
                batch.ops.push_back(
                    KvOp::get(tokens[rng.below(tokens.size())]));
            } else {
                const u32 key = next_key++;
                batch.ops.push_back(KvOp::put(key, 100000u + key));
                tokens.push_back(key);
            }
        }
        out.push_back(std::move(batch));
    }
    return out;
}

DistributedKvConfig
storeConfig(unsigned shards, const BenchOptions &opt)
{
    DistributedKvConfig cfg;
    cfg.shards = shards;
    cfg.capacity_per_shard = 512;
    cfg.tasklets_per_dpu = 4;
    cfg.mram_bytes = 1 << 20;
    cfg.seed = 1;
    cfg.faults = opt.faults;
    return cfg;
}

struct ModeResult
{
    u64 items = 0;
    u64 tx_commits = 0;
    double sim_s = 0;
    double ops_per_s = 0;
    TwoPcStats twopc; ///< the instance's stats()
};

/** Record @p kv's run as one --perf-json point. */
void
recordKv(const std::string &label,
         std::chrono::steady_clock::time_point wall0,
         const DistributedKv &kv)
{
    PerfRecord rec;
    rec.label = label;
    rec.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
    rec.stm = kv.stmStats();
    rec.dpu = kv.dpuStats();
    PerfReporter::instance().record(std::move(rec));
}

/** Run @p workload with each movek as a serialized moveKeySerialized
 * (the pre-2PC escape hatch: two full drains per movek). */
ModeResult
runSerialized(const std::vector<Batch> &workload, unsigned shards,
              const BenchOptions &opt)
{
    DistributedKv kv(storeConfig(shards, opt));
    const auto wall0 = std::chrono::steady_clock::now();
    ModeResult r;
    for (const Batch &batch : workload) {
        if (!batch.ops.empty())
            kv.execute(batch.ops);
        for (const CrossShardTx &tx : batch.txs)
            r.tx_commits += kv.moveKeySerialized(tx.src_key, tx.dst_key);
        r.items += batch.ops.size() + batch.txs.size();
    }
    r.sim_s = kv.elapsedSeconds();
    r.ops_per_s = static_cast<double>(r.items) / r.sim_s;
    r.twopc = kv.stats();
    recordKv("serialized/s" + std::to_string(shards), wall0, kv);
    return r;
}

/** Run @p workload through the mixed-batch 2PC path. */
ModeResult
runTwoPc(const std::vector<Batch> &workload, unsigned shards,
         const BenchOptions &opt)
{
    DistributedKv kv(storeConfig(shards, opt));
    const auto wall0 = std::chrono::steady_clock::now();
    ModeResult r;
    for (const Batch &batch : workload) {
        const auto res = kv.execute(batch.ops, batch.txs);
        for (const auto &tr : res.txs)
            r.tx_commits += tr.committed ? 1 : 0;
        r.items += batch.ops.size() + batch.txs.size();
    }
    r.sim_s = kv.elapsedSeconds();
    r.ops_per_s = static_cast<double>(r.items) / r.sim_s;
    r.twopc = kv.stats();
    recordKv("2pc/s" + std::to_string(shards), wall0, kv);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            if (a == "--check") {
                check = true;
                return true;
            }
            return false;
        });

    return guardedMain([&] {
        const u32 per_shard = opt.full ? 16 : 4;
        const u32 batches = 2;

        Table table({"shards", "items", "serial_sim_s",
                     "serial_ops_per_s", "2pc_sim_s", "2pc_ops_per_s",
                     "speedup"});
        std::vector<double> twopc_ops_per_s;
        double speedup_at_64 = 0;
        TwoPcStats distributed; // summed over every instance
        for (unsigned shards : kShardSeries) {
            const auto workload = makeWorkload(
                shards, shards * per_shard, batches, 1);
            const ModeResult serial =
                runSerialized(workload, shards, opt);
            const ModeResult twopc = runTwoPc(workload, shards, opt);
            distributed += serial.twopc;
            distributed += twopc.twopc;
            panicIf(serial.tx_commits != twopc.tx_commits &&
                        opt.faults.empty(),
                    "micro_2pc: modes disagree on committed moveks");

            const double speedup = twopc.ops_per_s / serial.ops_per_s;
            if (shards == 64)
                speedup_at_64 = speedup;
            twopc_ops_per_s.push_back(twopc.ops_per_s);
            table.newRow()
                .cell(shards)
                .cell(twopc.items)
                .cell(serial.sim_s, 6)
                .cell(serial.ops_per_s, 1)
                .cell(twopc.sim_s, 6)
                .cell(twopc.ops_per_s, 1)
                .cell(speedup, 2);
        }
        std::cout
            << "== micro_2pc  serialized movek vs two-phase commit ==\n";
        if (opt.csv)
            table.printCsv(std::cout);
        else
            table.printText(std::cout);
        std::cout << "\n";

        PerfReporter::instance().setExtraBlock(
            "distributed", twoPcStatsJson(distributed));

        if (check) {
            int failures = 0;
            if (speedup_at_64 < 5.0) {
                std::cerr << "CHECK FAILED: 2PC speedup at 64 shards "
                          << speedup_at_64 << " < 5.0\n";
                ++failures;
            }
            for (size_t i = 1; i < twopc_ops_per_s.size(); ++i) {
                if (twopc_ops_per_s[i] <= twopc_ops_per_s[i - 1]) {
                    std::cerr
                        << "CHECK FAILED: 2PC ops/s not monotonic: "
                        << kShardSeries[i - 1] << " shards -> "
                        << twopc_ops_per_s[i - 1] << ", "
                        << kShardSeries[i] << " shards -> "
                        << twopc_ops_per_s[i] << "\n";
                    ++failures;
                }
            }
            if (failures)
                return 1;
            std::cout << "CHECK OK: 2PC " << speedup_at_64
                      << "x serialized at 64 shards; ops/s monotonic "
                         "over the shard series\n";
        }
        return 0;
    });
}
