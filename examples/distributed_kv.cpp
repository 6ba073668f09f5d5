/**
 * @file
 * Distributed KV: the paper's future-work scenario (§5) — a key-value
 * store sharded across several DPUs so the dataset can outgrow one
 * DPU's 64 MB. The host routes batched operations to shards (DPUs run
 * in parallel, tasklets within each DPU are isolated by PIM-STM), and
 * cross-shard relocations (movek) commit atomically via
 * host-coordinated two-phase commit over per-shard fragments.
 *
 * The example doubles as the CI scale-smoke driver: it replays every
 * batch against a host-side reference model and exits non-zero when
 * the store diverges (population, per-key values, relocated tokens,
 * leaked pins) — under any shard count or fault plan.
 *
 * Flags (all optional):
 *   --shards=N           shard/DPU count            (default 8)
 *   --ops=N              operations per batch       (default 2000)
 *   --batches=N          mixed batches to run       (default 2)
 *   --movek-permille=N   movek share per batch      (default 100)
 *   --capacity=N         slots per shard            (default 2048)
 *   --tasklets=N         tasklets per DPU           (default 11)
 *   --seed=N             workload seed              (default 2026)
 *   --faults=SPEC        fault plan (docs/robustness.md grammar)
 *   --boosting=on|off    boosted shard maps (docs/boosting.md)
 *   --durable=on|off     durable shard STMs + coordinator WAL, so
 *                        dpu-crash fault items recover instead of
 *                        failing the run (docs/durability.md);
 *                        excludes --boosting=on
 */

#include <charconv>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hostapp/distributed_kv.hh"
#include "sim/fault.hh"
#include "util/rng.hh"

using namespace pimstm;
using namespace pimstm::hostapp;

namespace
{

u64
parseNum(const std::string &arg, const char *prefix)
{
    const std::string v = arg.substr(std::strlen(prefix));
    u64 out = 0;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), out);
    if (v.empty() || ec != std::errc() || ptr != v.data() + v.size()) {
        std::cerr << "invalid number in '" << arg << "'\n";
        std::exit(2);
    }
    return out;
}

int
runExample(int argc, char **argv)
{
    unsigned shards = 8, tasklets = 11;
    u32 ops_per_batch = 2000, batches = 2, movek_permille = 100;
    u32 capacity = 2048;
    u64 seed = 2026;
    bool boosting = false;
    bool durable = false;
    sim::FaultPlan faults;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--shards=", 0) == 0)
            shards = static_cast<unsigned>(parseNum(a, "--shards="));
        else if (a.rfind("--ops=", 0) == 0)
            ops_per_batch = static_cast<u32>(parseNum(a, "--ops="));
        else if (a.rfind("--batches=", 0) == 0)
            batches = static_cast<u32>(parseNum(a, "--batches="));
        else if (a.rfind("--movek-permille=", 0) == 0)
            movek_permille =
                static_cast<u32>(parseNum(a, "--movek-permille="));
        else if (a.rfind("--capacity=", 0) == 0)
            capacity = static_cast<u32>(parseNum(a, "--capacity="));
        else if (a.rfind("--tasklets=", 0) == 0)
            tasklets = static_cast<unsigned>(parseNum(a, "--tasklets="));
        else if (a.rfind("--seed=", 0) == 0)
            seed = parseNum(a, "--seed=");
        else if (a.rfind("--faults=", 0) == 0)
            faults = sim::FaultPlan::parse(
                a.substr(std::strlen("--faults=")));
        else if (a == "--boosting=on")
            boosting = true;
        else if (a == "--boosting=off")
            boosting = false;
        else if (a == "--durable=on")
            durable = true;
        else if (a == "--durable=off")
            durable = false;
        else {
            std::cerr << "unknown option '" << a << "'\n";
            return 2;
        }
    }
    if (movek_permille > 1000) {
        std::cerr << "--movek-permille must be <= 1000\n";
        return 2;
    }
    if (durable && boosting) {
        std::cerr << "--durable=on excludes --boosting=on "
                     "(docs/durability.md)\n";
        return 2;
    }

    DistributedKvConfig cfg;
    cfg.shards = shards;
    cfg.capacity_per_shard = capacity;
    cfg.kind = core::StmKind::NOrec;
    cfg.tasklets_per_dpu = tasklets;
    cfg.mram_bytes = 4 * 1024 * 1024;
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.boosting = boosting;
    cfg.durable = durable;
    auto kv = std::make_unique<DistributedKv>(cfg);

    // Host-side reference model, updated from each batch's reported
    // results and compared against the store after every batch.
    std::map<u32, u32> ref;
    auto verify = [&](const char *stage) {
        if (kv->population() != ref.size()) {
            std::cerr << "FAIL(" << stage << "): population "
                      << kv->population() << " != reference "
                      << ref.size() << "\n";
            return false;
        }
        for (const auto &[key, value] : ref) {
            u32 got = 0;
            if (!kv->peek(key, got) || got != value) {
                std::cerr << "FAIL(" << stage << "): key " << key
                          << " expected " << value << ", store has "
                          << got << "\n";
                return false;
            }
        }
        if (kv->livePins() != 0) {
            std::cerr << "FAIL(" << stage << "): " << kv->livePins()
                      << " pins leaked\n";
            return false;
        }
        return true;
    };

    // Load one batch of puts so moveks have tokens to relocate.
    Rng rng(deriveSeed(seed, 0xe6a3));
    std::vector<u32> keys;
    std::vector<KvOp> load;
    for (u32 i = 0; i < ops_per_batch; ++i) {
        const u32 key = static_cast<u32>(rng.below(1000000)) + 1;
        if (ref.count(key))
            continue; // a duplicate would just overwrite
        keys.push_back(key);
        load.push_back(KvOp::put(key, key * 3));
        ref[key] = key * 3;
    }
    kv->execute(load);
    if (!verify("load"))
        return 1;
    std::cout << "loaded " << kv->population() << " keys across "
              << kv->numShards() << " DPU shards\n";

    // Mixed batches: gets/puts with the requested movek share, all
    // flowing through the same launches. Moveks relocate keys that
    // existed before the batch (each at most once) to fresh keys, so
    // every one must commit — a direct check of 2PC atomicity.
    u32 next_fresh = 2000000;
    u64 total_items = 0, moveks_committed = 0;
    for (u32 b = 0; b < batches; ++b) {
        std::vector<size_t> movable(keys.size());
        for (size_t i = 0; i < movable.size(); ++i)
            movable[i] = i;
        std::vector<KvOp> ops;
        std::vector<CrossShardTx> txs;

        // Pick the batch's moveks first: each relocates a key that
        // existed before the batch (at most once) to a fresh key.
        // Keys involved in a movek are off-limits to this batch's
        // puts — a put racing the fragments would non-deterministically
        // re-create the erased source or occupy the destination.
        std::set<u32> banned;
        u32 n_plain = 0;
        for (u32 i = 0; i < ops_per_batch; ++i) {
            if (rng.below(1000) < movek_permille && !movable.empty()) {
                const size_t slot = rng.below(movable.size());
                const size_t pick = movable[slot];
                movable[slot] = movable.back();
                movable.pop_back();
                const u32 src = keys[pick];
                const u32 dst = next_fresh++;
                keys[pick] = dst;
                banned.insert(src);
                banned.insert(dst);
                txs.push_back(CrossShardTx::move(src, dst));
            } else {
                ++n_plain;
            }
        }
        for (u32 i = 0; i < n_plain; ++i) {
            if (rng.chance(0.8)) {
                // Gets may touch anything, pinned keys included: the
                // coordinator defers them behind the in-flight movek.
                ops.push_back(KvOp::get(keys[rng.below(keys.size())]));
            } else {
                u32 key = keys[rng.below(keys.size())];
                if (banned.count(key))
                    key = 3000000u + next_fresh++;
                ops.push_back(KvOp::put(key, key * 7));
                if (!ref.count(key))
                    keys.push_back(key);
            }
        }
        const auto res = kv->execute(ops, txs);
        total_items += ops.size() + txs.size();

        // Fold the reported outcomes into the reference model.
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].type == KvOp::Type::Put && res.ops[i].ok)
                ref[ops[i].key] = ops[i].value;
        }
        for (size_t i = 0; i < txs.size(); ++i) {
            if (!res.txs[i].committed) {
                std::cerr << "FAIL(batch " << b << "): movek "
                          << txs[i].src_key << " -> " << txs[i].dst_key
                          << " refused (attempts "
                          << res.txs[i].attempts << ")\n";
                return 1;
            }
            const auto it = ref.find(txs[i].src_key);
            if (it == ref.end() || it->second != res.txs[i].value) {
                std::cerr << "FAIL(batch " << b
                          << "): movek relocated a wrong value\n";
                return 1;
            }
            ref[txs[i].dst_key] = it->second;
            ref.erase(it);
            ++moveks_committed;
        }
        if (!verify("batch"))
            return 1;
    }

    const auto &st = kv->stats();
    std::cout << "ran " << batches << " mixed batches: " << total_items
              << " items, " << moveks_committed
              << " cross-shard moveks committed atomically\n"
              << "2PC: prepare_rounds=" << st.prepare_rounds
              << " commit_rounds=" << st.commit_rounds
              << " conflict_retries=" << st.tx_conflict_retries
              << " serial_fallbacks=" << st.serial_fallbacks
              << " deferred_ops=" << st.deferred_ops
              << " redeliveries=" << st.participant_redeliveries << "\n"
              << "link: bytes_down=" << st.bytes_down
              << " bytes_up=" << st.bytes_up << " occupancy="
              << st.meanShardOccupancy() << "\n"
              << "totals: commits=" << kv->stmStats().commits
              << " aborts=" << kv->stmStats().aborts
              << " modeled time=" << kv->elapsedSeconds() * 1e3
              << " ms\n"
              << "verification: store matches the reference model "
                 "(population "
              << kv->population() << ", all values, no leaked pins)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runExample(argc, argv);
    } catch (const sim::WatchdogError &e) {
        std::cerr << e.what();
        return sim::kWatchdogExitCode;
    } catch (const sim::DpuCrashError &e) {
        // A whole-DPU shard crash outside durable mode is
        // unrecoverable by design: the shard's data died with the DPU.
        // Same "workload died, harness fine" exit as the bench
        // harnesses (bench/common.hh guardedMain).
        std::cerr << "whole-DPU crash at cycle " << e.atCycle() << ": "
                  << e.what()
                  << "\n(run with --durable=on to recover; "
                     "docs/durability.md)\n";
        return sim::kWatchdogExitCode;
    }
}
