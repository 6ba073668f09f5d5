/**
 * @file
 * serve_kv: the open-loop traffic front-end (ROADMAP item 2,
 * docs/serving.md). Drives the sharded DistributedKv fleet and a
 * sharded vacation-style reservation fleet with the
 * runtime/serving.hh harness: Poisson or bursty (MMPP-2) arrivals,
 * Zipfian key popularity, batch formation under a latency budget,
 * bounded per-shard admission queues with shed-and-count overflow,
 * and p50/p99/p999 SLO accounting from arrival to completion —
 * including the DPU launch + host-link transfer cost.
 *
 * Everything runs on simulated time, so output is bitwise identical
 * for any --jobs value, and the harness composes with the prior
 * subsystems: --faults= injects into every shard DPU, --boosting=on /
 * --durable=on select the KV fleet's isolation / persistence modes,
 * and --adaptive=on attaches one runtime::AdaptiveController per KV
 * shard (backoff/CM + hot-lock migration) via the DistributedKv
 * composition hooks.
 *
 * Extra flags (grammar in README; defaults in docs/serving.md):
 *   --workload=kv|vacation   restrict the scenario set
 *   --shards=N --rate=R --arrival=poisson|bursty --requests=N
 *                            run one custom scenario instead
 *   --zipf=F                 popularity skew theta in [0,1)
 *   --batch-budget-us=N --max-batch=N --queue-cap=N
 *   --slo-p99-ms=F           the p99 SLO judged by --check/--find-capacity
 *   --find-capacity          max-throughput-under-SLO search mode
 *   --adaptive=on|off        per-shard adaptive controllers (KV only)
 *   --check                  assert the acceptance gates (capacity
 *                            monotone in shard count; zero shed below
 *                            the knee) and exit non-zero on violation
 *
 * CI's serving-smoke job gates a fresh --perf-json run against the
 * committed BENCH_sim.serving.json via scripts/check_perf_json.py.
 */

#include <chrono>
#include <iostream>
#include <sstream>

#include "bench/common.hh"
#include "hostapp/distributed_kv.hh"
#include "runtime/adaptive.hh"
#include "runtime/serving.hh"
#include "runtime/shared_array.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::hostapp;

namespace
{

//
// KV backend: the DistributedKv fleet behind the serving harness.
//

/** Op classes of the KV request stream (StreamConfig::op_weights). */
enum KvReqOp : u8
{
    kKvGet = 0,
    kKvPut = 1,
    kKvMove = 2, ///< cross-shard relocation through 2PC
};

class KvServingBackend : public runtime::ServingBackend
{
  public:
    struct Config
    {
        u32 keyspace = 0; ///< popularity ranks, mapped to keys 1..K
        DistributedKvConfig kv;
        bool adaptive = false;
    };

    explicit KvServingBackend(const Config &c) : cfg_(c), kv_(c.kv)
    {
        // Preload every rank so gets hit and moves have a source; the
        // seeding batch's cost is excluded via per-round deltas.
        std::vector<KvOp> seed_ops;
        seed_ops.reserve(cfg_.keyspace);
        for (u32 r = 0; r < cfg_.keyspace; ++r)
            seed_ops.push_back(KvOp::put(rankKey(r), 0x10000u + r));
        kv_.execute(seed_ops);

        if (cfg_.adaptive) {
            // Per-shard epoch feedback (docs/adaptive.md) on the
            // knobs that compose with a shared store: backoff/CM
            // re-tuning and hot-lock WRAM migration. Tasklet
            // throttling and kind switching stay off — the KV sizes
            // its launches itself and its shard state is bound to one
            // STM instance.
            runtime::AdaptiveSpec spec;
            spec.enabled = true;
            spec.epoch_cycles = 50000;
            spec.tune_throttle = false;
            for (unsigned s = 0; s < kv_.numShards(); ++s) {
                controllers_.push_back(
                    std::make_unique<runtime::AdaptiveController>(
                        kv_.shardStm(s), kv_.shardDpu(s), spec));
                runtime::AdaptiveController *ctl =
                    controllers_.back().get();
                kv_.shardDpu(s).setEpochHook(
                    spec.epoch_cycles, [ctl] { ctl->onEpoch(); });
            }
        }
        busy0_.resize(kv_.numShards());
    }

    unsigned
    numShards() const override
    {
        return kv_.numShards();
    }

    unsigned
    shardOf(const runtime::ServingRequest &req) const override
    {
        return kv_.shardOf(rankKey(req.key));
    }

    runtime::RoundCost
    executeRound(const std::vector<std::vector<runtime::ServingRequest>>
                     &batches) override
    {
        std::vector<KvOp> ops;
        std::vector<CrossShardTx> txs;
        for (const auto &batch : batches) {
            for (const runtime::ServingRequest &r : batch) {
                const u32 key = rankKey(r.key);
                switch (r.op) {
                  case kKvGet:
                    ops.push_back(KvOp::get(key));
                    break;
                  case kKvPut:
                    ops.push_back(KvOp::put(key, r.value | 1));
                    break;
                  default: {
                    // Relocations ping-pong a rank between its home
                    // key and a shadow key on another shard; the
                    // direction follows the store's current state.
                    const u32 shadow = key + cfg_.keyspace;
                    u32 v = 0;
                    if (kv_.peek(key, v))
                        txs.push_back(CrossShardTx::move(key, shadow));
                    else
                        txs.push_back(CrossShardTx::move(shadow, key));
                    break;
                  }
                }
            }
        }

        const double e0 = kv_.elapsedSeconds();
        for (unsigned s = 0; s < kv_.numShards(); ++s)
            busy0_[s] = kv_.shardBusySeconds(s);
        const KvBatchResult res = kv_.execute(ops, txs);
        for (const auto &tr : res.txs)
            tx_commits_ += tr.committed ? 1 : 0;

        runtime::RoundCost cost;
        cost.round_seconds = kv_.elapsedSeconds() - e0;
        cost.shard_busy_seconds.resize(kv_.numShards());
        for (unsigned s = 0; s < kv_.numShards(); ++s)
            cost.shard_busy_seconds[s] =
                kv_.shardBusySeconds(s) - busy0_[s];
        return cost;
    }

    /** Post-run sanity: the fleet is quiescent and no key leaked
     * outside the rank/shadow universe. */
    void
    verify() const
    {
        panicIf(kv_.livePins() != 0, "serving left pins outstanding");
        panicIf(kv_.population() > 2 * cfg_.keyspace,
                "serving grew the store past the key universe");
    }

    core::StmStats stmStats() const { return kv_.stmStats(); }
    sim::DpuStats dpuStats() const { return kv_.dpuStats(); }
    u64 txCommits() const { return tx_commits_; }

    u64
    adaptiveDecisions() const
    {
        u64 n = 0;
        for (const auto &c : controllers_)
            n += c->report()->decisions.size();
        return n;
    }

  private:
    u32
    rankKey(u32 rank) const
    {
        return rank + 1; // 0 stays clear of degenerate keys
    }

    Config cfg_;
    DistributedKv kv_;
    std::vector<std::unique_ptr<runtime::AdaptiveController>>
        controllers_;
    std::vector<double> busy0_;
    u64 tx_commits_ = 0;
};

//
// Vacation backend: a sharded reservation fleet. Each shard is one
// DPU holding the vacation shape (docs/serving.md): kTables
// reservation tables (free/price words) plus per-customer slot
// arrays, mutated by STM transactions.
//

/** Op classes of the vacation request stream. */
enum VacReqOp : u8
{
    kVacReserve = 0, ///< cheapest available item per table -> slots
    kVacCancel = 1,  ///< release all of the customer's slots
    kVacUpdate = 2,  ///< re-price one item
};

class VacationServingBackend : public runtime::ServingBackend
{
  public:
    static constexpr u32 kTables = 3;
    static constexpr u32 kEmptySlot = 0xffffffffu;

    struct Config
    {
        unsigned shards = 16;
        u32 customers = 64; ///< per shard
        u32 items = 64;     ///< per table
        u32 slots_per_customer = 6;
        u32 query = 4; ///< items scanned per table per reservation
        u32 initial_free = 50;
        unsigned tasklets = 4;
        u64 seed = 1;
        sim::FaultPlan faults;
    };

    explicit VacationServingBackend(const Config &c) : cfg_(c)
    {
        sim::DpuConfig dpu_cfg;
        dpu_cfg.mram_bytes = 1 << 20;
        dpu_cfg.seed = deriveSeed(c.seed, 0x766163);
        dpu_cfg.faults = c.faults;

        shards_.resize(c.shards);
        for (unsigned s = 0; s < c.shards; ++s) {
            Shard &sh = shards_[s];
            sim::DpuConfig shard_dpu_cfg = dpu_cfg;
            shard_dpu_cfg.seed = deriveSeed(dpu_cfg.seed, 0xD9u, s);
            sh.dpu = std::make_unique<sim::Dpu>(shard_dpu_cfg);

            core::StmConfig stm_cfg;
            stm_cfg.num_tasklets = c.tasklets;
            stm_cfg.max_read_set =
                2 * kTables * c.query + 2 * c.slots_per_customer + 16;
            stm_cfg.max_write_set =
                2 * kTables + c.slots_per_customer + 8;
            stm_cfg.data_words_hint = kTables * c.items * 2
                + c.customers * c.slots_per_customer;
            sh.stm = std::make_unique<core::Stm>(*sh.dpu, stm_cfg);

            Rng rng(deriveSeed(c.seed, 0x7661, s));
            for (u32 t = 0; t < kTables; ++t) {
                sh.free[t] = runtime::SharedArray32(
                    *sh.dpu, sim::Tier::Mram, c.items);
                sh.price[t] = runtime::SharedArray32(
                    *sh.dpu, sim::Tier::Mram, c.items);
                sh.free[t].fill(*sh.dpu, c.initial_free);
                for (u32 i = 0; i < c.items; ++i)
                    sh.price[t].poke(
                        *sh.dpu, i,
                        static_cast<u32>(rng.range(50, 500)));
            }
            sh.slots = runtime::SharedArray32(
                *sh.dpu, sim::Tier::Mram,
                static_cast<size_t>(c.customers)
                    * c.slots_per_customer);
            sh.slots.fill(*sh.dpu, kEmptySlot);
        }
    }

    unsigned
    numShards() const override
    {
        return cfg_.shards;
    }

    unsigned
    shardOf(const runtime::ServingRequest &req) const override
    {
        return req.key % cfg_.shards;
    }

    runtime::RoundCost
    executeRound(const std::vector<std::vector<runtime::ServingRequest>>
                     &batches) override
    {
        std::vector<unsigned> involved;
        size_t total = 0;
        for (unsigned s = 0; s < cfg_.shards; ++s) {
            if (!batches[s].empty()) {
                involved.push_back(s);
                total += batches[s].size();
            }
        }
        runtime::RoundCost cost;
        cost.shard_busy_seconds.assign(cfg_.shards, 0.0);
        if (involved.empty())
            return cost;

        std::vector<sim::DpuStats> runs(involved.size());

        // Involved shards run concurrently on host threads; each
        // result lands in its own slot so output is identical for any
        // --jobs value (same discipline as DistributedKv::runLaunch).
        util::parallelFor(involved.size(), [&](size_t ii) {
            Shard &sh = shards_[involved[ii]];
            const auto &reqs = batches[involved[ii]];
            runtime::launch(
                *sh.dpu, *sh.stm, cfg_.tasklets, reqs.size(),
                [&](sim::DpuContext &ctx, size_t i) {
                    runRequest(sh, ctx, reqs[i]);
                },
                [&](const sim::Dpu &dpu) { runs[ii] += dpu.stats(); });
        });

        double worst = 0.0;
        for (size_t ii = 0; ii < involved.size(); ++ii) {
            const double secs = sim::cyclesToSeconds(runs[ii].total_cycles);
            cost.shard_busy_seconds[involved[ii]] = secs;
            worst = std::max(worst, secs);
            dpu_ += runs[ii];
        }
        // Request down / result up, through the same CPU-mediated
        // link model the KV fleet is charged with.
        cost.round_seconds = sim::kLaunchOverheadSeconds
            + sim::transferSeconds(static_cast<double>(kReqBytesDown * total))
            + sim::transferSeconds(static_cast<double>(kRespBytesUp * total))
            + worst;
        return cost;
    }

    /**
     * Conservation check (runs are self-verifying, like every
     * workload in the repo): per shard and table, the total free-count
     * deficit must equal the number of occupied slots pointing at
     * that table — reservations and cancellations never create or
     * leak inventory.
     */
    void
    verify() const
    {
        for (const Shard &sh : shards_) {
            u64 deficit[kTables] = {};
            u64 occupied[kTables] = {};
            for (u32 t = 0; t < kTables; ++t)
                for (u32 i = 0; i < cfg_.items; ++i)
                    deficit[t] += cfg_.initial_free
                        - sh.free[t].peek(*sh.dpu, i);
            for (size_t w = 0; w < sh.slots.size(); ++w) {
                const u32 v = sh.slots.peek(*sh.dpu, w);
                if (v != kEmptySlot)
                    ++occupied[v >> 24];
            }
            for (u32 t = 0; t < kTables; ++t)
                panicIf(deficit[t] != occupied[t],
                        "vacation serving conservation violated: "
                        "table ",
                        t, " deficit ", deficit[t], " != occupied ",
                        occupied[t]);
        }
    }

    core::StmStats
    stmStats() const
    {
        core::StmStats sum;
        for (const Shard &sh : shards_)
            sum += sh.stm->stats();
        return sum;
    }

    sim::DpuStats dpuStats() const { return dpu_; }
    u64 reservations() const { return reservations_; }

  private:
    static constexpr size_t kReqBytesDown = 16;
    static constexpr size_t kRespBytesUp = 8;

    struct Shard
    {
        /** Declared first, so the STM that references the DPU is
         * destroyed before it. */
        std::unique_ptr<sim::Dpu> dpu;
        std::unique_ptr<core::Stm> stm;
        runtime::SharedArray32 free[kTables];
        runtime::SharedArray32 price[kTables];
        runtime::SharedArray32 slots;
    };

    u32
    customerOf(const runtime::ServingRequest &r) const
    {
        return (r.key / cfg_.shards) % cfg_.customers;
    }

    sim::Addr
    slotAddr(const Shard &sh, u32 customer, u32 slot) const
    {
        return sh.slots.at(static_cast<size_t>(customer)
                               * cfg_.slots_per_customer
                           + slot);
    }

    /** Deterministic item pick q for table t of request payload v —
     * a pure function, so an aborted transaction retries the same
     * picks (like Vacation's pre-drawn queries). */
    u32
    pickItem(u32 v, u32 t, u32 q) const
    {
        const u64 z = deriveSeed(v, t, q);
        return static_cast<u32>(z % cfg_.items);
    }

    void
    runRequest(Shard &sh, sim::DpuContext &ctx,
               const runtime::ServingRequest &r)
    {
        const u32 customer = customerOf(r);
        switch (r.op) {
          case kVacReserve:
            reserve(sh, ctx, customer, r.value);
            break;
          case kVacCancel:
            cancel(sh, ctx, customer);
            break;
          default:
            updatePrice(sh, ctx, r.value);
            break;
        }
    }

    void
    reserve(Shard &sh, sim::DpuContext &ctx, u32 customer, u32 payload)
    {
        core::atomically(*sh.stm, ctx, [&](core::TxHandle &tx) {
            // Cheapest available item per table among the picks.
            u32 chosen[kTables];
            for (u32 t = 0; t < kTables; ++t) {
                u32 best = kEmptySlot;
                u32 best_price = 0;
                for (u32 q = 0; q < cfg_.query; ++q) {
                    const u32 item = pickItem(payload, t, q);
                    if (tx.read(sh.free[t].at(item)) == 0)
                        continue;
                    const u32 p = tx.read(sh.price[t].at(item));
                    if (best == kEmptySlot || p < best_price) {
                        best = item;
                        best_price = p;
                    }
                }
                if (best == kEmptySlot)
                    return; // sold out: committed no-op
                chosen[t] = best;
            }
            // One empty slot per table.
            u32 free_slots[kTables];
            u32 found = 0;
            for (u32 w = 0;
                 w < cfg_.slots_per_customer && found < kTables; ++w)
                if (tx.read(slotAddr(sh, customer, w)) == kEmptySlot)
                    free_slots[found++] = w;
            if (found < kTables)
                return; // customer fully booked: committed no-op
            for (u32 t = 0; t < kTables; ++t) {
                const u32 avail = tx.read(sh.free[t].at(chosen[t]));
                if (avail == 0)
                    return; // raced out by this round's siblings
                tx.write(sh.free[t].at(chosen[t]), avail - 1);
                tx.write(slotAddr(sh, customer, free_slots[t]),
                         (t << 24) | chosen[t]);
            }
        });
        ++reservations_;
    }

    void
    cancel(Shard &sh, sim::DpuContext &ctx, u32 customer)
    {
        core::atomically(*sh.stm, ctx, [&](core::TxHandle &tx) {
            for (u32 w = 0; w < cfg_.slots_per_customer; ++w) {
                const u32 v = tx.read(slotAddr(sh, customer, w));
                if (v == kEmptySlot)
                    continue;
                const u32 t = v >> 24;
                const u32 item = v & 0xffffffu;
                tx.write(slotAddr(sh, customer, w), kEmptySlot);
                tx.write(sh.free[t].at(item),
                         tx.read(sh.free[t].at(item)) + 1);
            }
        });
    }

    void
    updatePrice(Shard &sh, sim::DpuContext &ctx, u32 payload)
    {
        const u32 t = payload % kTables;
        const u32 item = (payload >> 8) % cfg_.items;
        const u32 price = 50 + (payload >> 16) % 450;
        core::atomically(*sh.stm, ctx, [&](core::TxHandle &tx) {
            tx.write(sh.price[t].at(item), price);
        });
    }

    Config cfg_;
    std::vector<Shard> shards_;
    sim::DpuStats dpu_; ///< summed over every launch
    u64 reservations_ = 0;
};

//
// Scenario driver
//

struct ServeFlags
{
    std::string workload; ///< empty = both
    unsigned shards = 0;  ///< 0 = scenario default
    double rate = 0;      ///< 0 = scenario default
    u64 requests = 0;     ///< 0 = quick/full default
    std::string arrival;  ///< empty = scenario default
    double zipf = 0.99;
    unsigned batch_budget_us = 200;
    unsigned max_batch = 16;
    unsigned queue_cap = 64;
    double slo_p99_ms = 2.0;
    bool find_capacity = false;
    bool adaptive = false;
    bool check = false;

    bool
    customScenario() const
    {
        return shards != 0 || rate != 0 || !arrival.empty();
    }
};

struct Scenario
{
    std::string name;
    std::string workload; ///< "kv" | "vacation"
    unsigned shards = 0;
    runtime::ArrivalKind arrival = runtime::ArrivalKind::Poisson;
    double rate = 0;
    u64 requests = 0;
};

struct ScenarioResult
{
    runtime::ServingReport rep;
    core::StmStats stm; ///< summed over the fleet's shards
    sim::DpuStats dpu;  ///< summed over every shard launch
    u64 adaptive_decisions = 0;
    double wall_s = 0;
};

KvServingBackend::Config
kvBackendConfig(unsigned shards, const ServeFlags &f,
                const BenchOptions &opt)
{
    KvServingBackend::Config c;
    c.keyspace = shards * 32;
    c.kv.shards = shards;
    c.kv.capacity_per_shard = 256;
    c.kv.tasklets_per_dpu = 4;
    c.kv.mram_bytes = 1 << 20;
    c.kv.seed = 1;
    c.kv.faults = opt.run.faults;
    c.kv.boosting = opt.run.stm.boosting;
    c.kv.durable = opt.run.stm.durable;
    c.adaptive = f.adaptive;
    return c;
}

VacationServingBackend::Config
vacBackendConfig(unsigned shards, const BenchOptions &opt)
{
    VacationServingBackend::Config c;
    c.shards = shards;
    c.faults = opt.run.faults;
    return c;
}

runtime::StreamConfig
streamConfig(const Scenario &sc, const ServeFlags &f, u64 keys)
{
    runtime::StreamConfig s;
    s.arrival.kind = sc.arrival;
    s.arrival.rate_per_s = sc.rate;
    s.keys = keys;
    s.zipf_theta = f.zipf;
    s.seed = 1;
    if (sc.workload == "kv")
        s.op_weights = {0.60, 0.37, 0.03}; // get / put / movek
    else
        s.op_weights = {0.65, 0.20, 0.15}; // reserve/cancel/update
    return s;
}

runtime::ServingConfig
servingConfig(const ServeFlags &f)
{
    runtime::ServingConfig c;
    c.batch_budget_s = static_cast<double>(f.batch_budget_us) * 1e-6;
    c.max_batch_per_shard = f.max_batch;
    c.queue_cap_per_shard = f.queue_cap;
    return c;
}

ScenarioResult
runScenario(const Scenario &sc, const ServeFlags &f,
            const BenchOptions &opt)
{
    const auto wall0 = std::chrono::steady_clock::now();
    ScenarioResult out;
    if (sc.workload == "kv") {
        KvServingBackend backend(kvBackendConfig(sc.shards, f, opt));
        const auto stream = runtime::makeStream(
            streamConfig(sc, f, sc.shards * 32ull), sc.requests);
        out.rep =
            runServing(backend, stream, servingConfig(f));
        backend.verify();
        out.stm = backend.stmStats();
        out.dpu = backend.dpuStats();
        out.adaptive_decisions = backend.adaptiveDecisions();
    } else {
        VacationServingBackend backend(
            vacBackendConfig(sc.shards, opt));
        const auto stream = runtime::makeStream(
            streamConfig(sc, f, sc.shards * 64ull), sc.requests);
        out.rep =
            runServing(backend, stream, servingConfig(f));
        backend.verify();
        out.stm = backend.stmStats();
        out.dpu = backend.dpuStats();
    }
    out.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
    return out;
}

std::vector<Scenario>
scenarioTable(const ServeFlags &f, bool full)
{
    const u64 req = f.requests ? f.requests : (full ? 6000 : 1200);
    std::vector<Scenario> out;
    if (f.customScenario()) {
        Scenario sc;
        sc.workload = f.workload.empty() ? "kv" : f.workload;
        sc.shards = f.shards ? f.shards
                             : (sc.workload == "kv" ? 64u : 16u);
        sc.arrival = f.arrival == "bursty"
            ? runtime::ArrivalKind::Bursty
            : runtime::ArrivalKind::Poisson;
        sc.rate = f.rate != 0
            ? f.rate
            : (sc.workload == "kv" ? 450e3 : 200e3);
        sc.requests = req;
        std::ostringstream n;
        n << sc.workload << "/"
          << (sc.arrival == runtime::ArrivalKind::Bursty ? "bursty"
                                                         : "poisson")
          << "/s" << sc.shards;
        sc.name = n.str();
        out.push_back(sc);
        return out;
    }
    const bool kv = f.workload.empty() || f.workload == "kv";
    const bool vac = f.workload.empty() || f.workload == "vacation";
    if (kv) {
        out.push_back({"kv/poisson/s16", "kv", 16,
                       runtime::ArrivalKind::Poisson, 300e3, req});
        out.push_back({"kv/poisson/s64", "kv", 64,
                       runtime::ArrivalKind::Poisson, 450e3, req});
        out.push_back({"kv/bursty/s64", "kv", 64,
                       runtime::ArrivalKind::Bursty, 450e3, req});
    }
    if (vac)
        out.push_back({"vacation/poisson/s16", "vacation", 16,
                       runtime::ArrivalKind::Poisson, 200e3, req});
    return out;
}

double
msOf(u64 ns)
{
    return static_cast<double>(ns) * 1e-6;
}

void
recordScenario(const Scenario &sc, const ScenarioResult &r)
{
    PerfRecord rec;
    rec.label = sc.name;
    rec.wall_s = r.wall_s;
    rec.stm = r.stm;
    rec.dpu = r.dpu;
    PerfReporter::instance().record(std::move(rec));
}

//
// Capacity search mode
//

struct CapacityRow
{
    std::string name;
    runtime::CapacityResult res;
};

CapacityRow
searchCapacity(const std::string &workload, unsigned shards,
               const ServeFlags &f, const BenchOptions &opt, u64 req)
{
    Scenario sc;
    sc.workload = workload;
    sc.shards = shards;
    sc.arrival = runtime::ArrivalKind::Poisson;
    sc.requests = req;
    std::ostringstream n;
    n << workload << "/s" << shards;
    CapacityRow row;
    row.name = n.str();

    runtime::SloSpec slo;
    slo.p99_s = f.slo_p99_ms * 1e-3;
    row.res = runtime::findCapacity(
        [&](double rate) {
            Scenario probe = sc;
            probe.rate = rate;
            return runScenario(probe, f, opt).rep;
        },
        slo, /*lo_rate=*/2e3, /*max_rate=*/4e6);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    ServeFlags f;
    const char *prog = argv[0];
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            const std::string v = a.substr(a.find('=') + 1);
            const auto is = [&](const char *flag) {
                return a.rfind(flag, 0) == 0;
            };
            // A value that must be positive (rates and budgets).
            const auto positive = [&] {
                const double d = parseNumber(prog, a, v);
                if (d <= 0)
                    usageError(prog, a, "must be positive");
                return d;
            };
            if (is("--workload=")) {
                if (v != "kv" && v != "vacation")
                    usageError(prog, a, "expected kv or vacation");
                f.workload = v;
            } else if (is("--shards="))
                f.shards = parseDecimal<unsigned>(prog, a, v);
            else if (is("--rate="))
                f.rate = positive();
            else if (is("--requests="))
                f.requests = parseDecimal<u64>(prog, a, v);
            else if (is("--arrival=")) {
                if (v != "poisson" && v != "bursty")
                    usageError(prog, a, "expected poisson or bursty");
                f.arrival = v;
            } else if (is("--zipf=")) {
                f.zipf = parseNumber(prog, a, v);
                if (f.zipf < 0 || f.zipf >= 1)
                    usageError(prog, a, "must be in [0, 1)");
            } else if (is("--batch-budget-us="))
                f.batch_budget_us = parseDecimal<unsigned>(prog, a, v);
            else if (is("--max-batch="))
                f.max_batch = parsePositive<unsigned>(prog, a, v);
            else if (is("--queue-cap="))
                f.queue_cap = parsePositive<unsigned>(prog, a, v);
            else if (is("--slo-p99-ms="))
                f.slo_p99_ms = positive();
            else if (is("--adaptive="))
                f.adaptive = parseOnOff(prog, a, v);
            else if (a == "--find-capacity")
                f.find_capacity = true;
            else if (a == "--check")
                f.check = true;
            else
                return false;
            return true;
        });
    // Admission sheds past the queue bound, so one round's batch must
    // fit in it (runServing panics otherwise).
    if (f.queue_cap < f.max_batch)
        usageError(prog, "--queue-cap=" + std::to_string(f.queue_cap),
                   "must be at least --max-batch (" +
                       std::to_string(f.max_batch) + ")");

    return guardedMain([&] {
        std::ostringstream serving_json;
        serving_json.precision(17);

        if (f.find_capacity || f.check) {
            // Max-throughput-under-SLO search (kv at two shard
            // counts to expose the scaling knee, plus vacation).
            const u64 req = f.requests ? f.requests
                                       : (opt.full ? 2400 : 800);
            const bool kv =
                f.workload.empty() || f.workload == "kv";
            const bool vac =
                f.workload.empty() || f.workload == "vacation";
            std::vector<CapacityRow> rows;
            if (kv) {
                rows.push_back(
                    searchCapacity("kv", 16, f, opt, req));
                rows.push_back(
                    searchCapacity("kv", 64, f, opt, req));
            }
            if (vac)
                rows.push_back(
                    searchCapacity("vacation", 16, f, opt, req));

            Table table({"scenario", "capacity_req_per_s",
                         "tput_at_cap", "p99_at_cap_ms", "shed",
                         "probes"});
            for (const auto &row : rows) {
                const auto &r = row.res;
                table.newRow()
                    .cell(row.name)
                    .cell(r.capacity_per_s, 1)
                    .cell(r.at_capacity.throughputPerSec(), 1)
                    .cell(msOf(runtime::histogramPercentile(
                              r.at_capacity.e2e_ns, 0.99)),
                          3)
                    .cell(r.at_capacity.shed)
                    .cell(r.probes.size());
            }
            std::cout << "== serve_kv  max throughput under p99 <= "
                      << f.slo_p99_ms << " ms ==\n";
            if (opt.csv)
                table.printCsv(std::cout);
            else
                table.printText(std::cout);
            std::cout << "\n";

            serving_json << "{\"mode\": \"capacity\", \"slo_p99_ms\": "
                         << f.slo_p99_ms << ", \"capacity\": [";
            for (size_t i = 0; i < rows.size(); ++i) {
                const auto &r = rows[i].res;
                serving_json
                    << (i ? ", " : "") << "{\"name\": \""
                    << rows[i].name << "\", \"capacity_per_s\": "
                    << r.capacity_per_s << ", \"probes\": "
                    << r.probes.size() << ", \"at_capacity\": "
                    << runtime::servingReportJson(r.at_capacity)
                    << "}";
            }
            serving_json << "]}";

            if (f.check) {
                int failures = 0;
                double cap16 = 0, cap64 = 0, capvac = 0;
                for (const auto &row : rows) {
                    if (row.name == "kv/s16")
                        cap16 = row.res.capacity_per_s;
                    else if (row.name == "kv/s64")
                        cap64 = row.res.capacity_per_s;
                    else if (row.name == "vacation/s16")
                        capvac = row.res.capacity_per_s;
                }
                if (kv && (cap16 <= 0 || cap64 <= cap16)) {
                    std::cerr << "CHECK FAILED: capacity not "
                                 "monotone in shard count: s16 -> "
                              << cap16 << ", s64 -> " << cap64
                              << "\n";
                    ++failures;
                }
                if (vac && capvac <= 0) {
                    std::cerr << "CHECK FAILED: vacation capacity "
                                 "search found no sustainable rate\n";
                    ++failures;
                }
                if (kv) {
                    // Below the knee the system must be shed-free
                    // and inside the SLO.
                    Scenario below;
                    below.workload = "kv";
                    below.shards = 64;
                    below.arrival = runtime::ArrivalKind::Poisson;
                    below.rate = 0.5 * cap64;
                    below.requests = req;
                    below.name = "kv/below-knee/s64";
                    const ScenarioResult r =
                        runScenario(below, f, opt);
                    runtime::SloSpec slo;
                    slo.p99_s = f.slo_p99_ms * 1e-3;
                    if (r.rep.shed != 0
                        || !runtime::meetsSlo(r.rep, slo)) {
                        std::cerr
                            << "CHECK FAILED: below-knee run at "
                            << below.rate << " req/s shed "
                            << r.rep.shed << " and p99 "
                            << msOf(runtime::histogramPercentile(
                                   r.rep.e2e_ns, 0.99))
                            << " ms\n";
                        ++failures;
                    }
                }
                if (failures) {
                    PerfReporter::instance().setExtraBlock(
                        "serving", serving_json.str());
                    return 1;
                }
                std::cout << "CHECK OK: capacity monotone in shard "
                             "count; zero shed below the knee\n";
            }
        } else {
            // Scenario table mode.
            const auto scenarios = scenarioTable(f, opt.full);
            Table table({"scenario", "rate_req_per_s", "offered",
                         "completed", "shed", "tput_req_per_s",
                         "p50_ms", "p99_ms", "p999_ms", "occupancy"});
            serving_json << "{\"mode\": \"scenarios\", "
                         << "\"scenarios\": [";
            bool first = true;
            for (const Scenario &sc : scenarios) {
                const ScenarioResult r = runScenario(sc, f, opt);
                recordScenario(sc, r);
                const auto &rep = r.rep;
                table.newRow()
                    .cell(sc.name)
                    .cell(sc.rate, 0)
                    .cell(rep.offered)
                    .cell(rep.completed)
                    .cell(rep.shed)
                    .cell(rep.throughputPerSec(), 1)
                    .cell(msOf(runtime::histogramPercentile(
                              rep.e2e_ns, 0.50)),
                          3)
                    .cell(msOf(runtime::histogramPercentile(
                              rep.e2e_ns, 0.99)),
                          3)
                    .cell(msOf(runtime::histogramPercentile(
                              rep.e2e_ns, 0.999)),
                          3)
                    .cell(rep.meanOccupancy(), 3);
                serving_json
                    << (first ? "" : ", ") << "{\"name\": \""
                    << sc.name << "\", \"rate_per_s\": " << sc.rate
                    << ", \"adaptive_decisions\": "
                    << r.adaptive_decisions << ", \"report\": "
                    << runtime::servingReportJson(rep) << "}";
                first = false;
            }
            serving_json << "]}";
            std::cout << "== serve_kv  open-loop serving ==\n";
            if (opt.csv)
                table.printCsv(std::cout);
            else
                table.printText(std::cout);
            std::cout << "\n";
        }

        PerfReporter::instance().setExtraBlock("serving",
                                               serving_json.str());
        return 0;
    });
}
