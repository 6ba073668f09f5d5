/**
 * @file
 * Transactional-set microbenchmark: quantifies the host-side cost of
 * the structures this repo uses on the simulation hot path.
 *
 * Three scenario groups:
 *  - txindex_*: raw TxDescriptor write-set lookups, O(1) hash index
 *    vs the linear-scan reference, across set sizes. Host-only (no
 *    simulated cycles — the simulated machine is billed by scanCost()
 *    regardless of how the host answers the lookup).
 *  - stm_bigws: a full STM run whose transactions carry large write
 *    sets, recording simulated cycles (deterministic, CI-gated) and
 *    host wall time.
 *  - dpu_fresh / dpu_pooled: constructing a DPU per run vs recycling
 *    one through runtime::DpuPool, with a workload that materializes
 *    several MB of MRAM; simulated stats are cross-checked identical.
 *
 * With --perf-json=FILE the per-scenario numbers are appended to the
 * artifact tracked by CI (sim_cycles hard-gated, wall time recorded).
 */

#include <chrono>
#include <random>

#include "bench/common.hh"
#include "core/stm.hh"
#include "runtime/dpu_pool.hh"
#include "runtime/shared_array.hh"
#include "sim/dpu.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Indexed vs linear lookups over a write set of @p entries. */
struct LookupTimes
{
    double index_s = 0;
    double linear_s = 0;
    u64 checksum = 0; ///< defeats dead-code elimination
};

LookupTimes
timeLookups(unsigned entries, u64 lookups)
{
    TxDescriptor tx(0, 8, entries);
    std::mt19937 rng(entries);
    for (unsigned i = 0; i < entries; ++i) {
        WriteEntry e;
        e.addr = i * 4;
        tx.pushWrite(e);
    }
    // Address stream with ~50% hits, identical for both variants.
    std::vector<Addr> stream(4096);
    for (auto &a : stream)
        a = (rng() % (2 * entries)) * 4;

    LookupTimes r;
    auto t0 = std::chrono::steady_clock::now();
    for (u64 i = 0; i < lookups; ++i)
        r.checksum +=
            static_cast<u64>(tx.findWrite(stream[i % stream.size()]) + 1);
    r.index_s = secondsSince(t0);

    u64 check2 = 0;
    t0 = std::chrono::steady_clock::now();
    for (u64 i = 0; i < lookups; ++i)
        check2 += static_cast<u64>(
            tx.findWriteLinear(stream[i % stream.size()]) + 1);
    r.linear_s = secondsSince(t0);
    fatalIf(check2 != r.checksum,
            "index and linear lookups disagreed (entries=", entries, ")");
    return r;
}

/** One STM run whose transactions write @p ws_size distinct words. */
struct StmRun
{
    DpuStats dpu;
    StmStats stm;
    double wall_s = 0;
};

StmRun
runBigWriteSet(unsigned ws_size, unsigned txs)
{
    DpuConfig cfg;
    cfg.mram_bytes = 4 * 1024 * 1024;
    cfg.seed = 9;
    Dpu dpu(cfg);
    StmConfig scfg;
    scfg.kind = StmKind::TinyEtlWb;
    scfg.num_tasklets = 2;
    scfg.max_read_set = 2 * ws_size + 8;
    scfg.max_write_set = ws_size + 8;
    scfg.data_words_hint = 4 * ws_size;
    auto stm = std::make_unique<Stm>(dpu, scfg);
    runtime::SharedArray32 arr(dpu, Tier::Mram, 4 * ws_size);
    arr.fill(dpu, 0);

    dpu.addTasklets(2, [&](DpuContext &ctx) {
        for (unsigned t = 0; t < txs; ++t) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                const u32 base = (ctx.taskletId() * 2 + t % 2) * ws_size;
                for (unsigned i = 0; i < ws_size; ++i) {
                    const Addr a = arr.at(base + i);
                    // Read-after-write exercises the index on every op.
                    tx.write(a, tx.read(a) + 1);
                }
            });
        }
    });

    StmRun r;
    const auto t0 = std::chrono::steady_clock::now();
    dpu.run();
    r.wall_s = secondsSince(t0);
    r.dpu = dpu.stats();
    r.stm = stm->stats();
    return r;
}

/** Stream @p touch_bytes of MRAM, fresh Dpu or pooled, @p reps times. */
struct PoolRun
{
    DpuStats last;
    double wall_s = 0;
};

PoolRun
runDpuCycle(bool pooled, unsigned reps, size_t touch_bytes)
{
    DpuConfig cfg;
    cfg.mram_bytes = 64 * 1024 * 1024;
    cfg.seed = 21;
    auto &pool = runtime::DpuPool::global();

    PoolRun r;
    const auto t0 = std::chrono::steady_clock::now();
    for (unsigned rep = 0; rep < reps; ++rep) {
        std::unique_ptr<Dpu> owner;
        if (pooled)
            owner = pool.acquire(cfg);
        else
            owner = std::make_unique<Dpu>(cfg);
        Dpu &dpu = *owner;
        dpu.addTasklets(4, [&](DpuContext &ctx) {
            char buf[2048] = {};
            const size_t per = touch_bytes / 4;
            const u32 base = static_cast<u32>(ctx.taskletId() * per);
            for (size_t off = 0; off + sizeof buf <= per;
                 off += sizeof buf) {
                ctx.writeBlock(
                    makeAddr(Tier::Mram,
                             base + static_cast<u32>(off)),
                    buf, sizeof buf);
            }
        });
        dpu.run();
        r.last = dpu.stats();
        if (pooled)
            pool.release(std::move(owner));
    }
    r.wall_s = secondsSince(t0);
    return r;
}

void
record(const char *label, double wall_s, const DpuStats &dpu = {},
       const StmStats &stm = {})
{
    bench::PerfRecord rec;
    rec.label = label;
    rec.wall_s = wall_s;
    rec.stm = stm;
    rec.dpu = dpu;
    bench::PerfReporter::instance().record(std::move(rec));
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::BenchOptions::parse(argc, argv);
    const u64 scale = opt.full ? 8 : 1;

    std::cout << "== micro_txset: transactional-set index & DPU pool ==\n";

    // --- Raw lookups: hash index vs linear scan ---------------------
    Table lookup_table({"scenario", "entries", "lookups",
                        "host_ms_index", "host_ms_linear", "speedup"});
    const struct
    {
        const char *name;
        unsigned entries;
        u64 lookups;
    } lookup_scenarios[] = {
        {"txindex_ws16", 16, 2000000 * scale},
        {"txindex_ws128", 128, 500000 * scale},
        {"txindex_ws1024", 1024, 100000 * scale},
    };
    for (const auto &s : lookup_scenarios) {
        const auto t = timeLookups(s.entries, s.lookups);
        lookup_table.newRow()
            .cell(s.name)
            .cell(s.entries)
            .cell(s.lookups)
            .cell(t.index_s * 1e3, 1)
            .cell(t.linear_s * 1e3, 1)
            .cell(t.index_s > 0 ? t.linear_s / t.index_s : 0.0, 2);
        record(s.name, t.index_s);
    }
    if (opt.csv)
        lookup_table.printCsv(std::cout);
    else
        lookup_table.printText(std::cout);

    // --- Full STM run with large write sets -------------------------
    const unsigned ws = 256;
    const unsigned txs = static_cast<unsigned>(40 * scale);
    const auto stm_run = runBigWriteSet(ws, txs);
    fatalIf(stm_run.stm.commits != 2ull * txs,
            "stm_bigws: unexpected commit count ", stm_run.stm.commits);
    std::cout << "\nstm_bigws: write-set " << ws << ", "
              << stm_run.stm.commits << " commits, "
              << stm_run.dpu.total_cycles << " sim cycles, "
              << stm_run.wall_s * 1e3 << " host ms\n";
    record("stm_bigws", stm_run.wall_s, stm_run.dpu, stm_run.stm);

    // --- Fresh vs pooled DPU construction ---------------------------
    const unsigned reps = static_cast<unsigned>(12 * scale);
    const size_t touch = 8 * 1024 * 1024;
    runtime::DpuPool::global().clear();
    const auto fresh = runDpuCycle(false, reps, touch);
    const auto pooled = runDpuCycle(true, reps, touch);
    fatalIf(fresh.last.total_cycles != pooled.last.total_cycles ||
                fresh.last.mram_writes != pooled.last.mram_writes ||
                fresh.last.instructions != pooled.last.instructions,
            "fresh and pooled DPU runs diverged");
    std::cout << "dpu_fresh:  " << reps << " runs touching "
              << touch / (1024 * 1024) << " MB: " << fresh.wall_s * 1e3
              << " host ms\n";
    std::cout << "dpu_pooled: " << reps << " runs touching "
              << touch / (1024 * 1024) << " MB: " << pooled.wall_s * 1e3
              << " host ms ("
              << (pooled.wall_s > 0 ? fresh.wall_s / pooled.wall_s : 0.0)
              << "x)\n";
    record("dpu_fresh", fresh.wall_s, fresh.last);
    record("dpu_pooled", pooled.wall_s, pooled.last);

    std::cout << "\nfresh vs pooled simulated stats: identical\n";
    return 0;
}
