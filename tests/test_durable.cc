/**
 * @file
 * Durable-transaction tests (docs/durability.md): whole-DPU crash
 * recovery verified end-to-end through the fault injector.
 *
 *  - crash-point sweep: for every STM kind, inject a whole-DPU crash
 *    at op 1, 2, 3, ... until the plan no longer fires; every run must
 *    recover, restart, complete and keep a sum-conservation invariant.
 *  - torn-write differential: the same crash points replayed under
 *    different scramble seeds (the persist model's keep / revert-8B /
 *    tear-low / tear-high choices) must all recover correctly.
 *  - recovery idempotence, durable-on semantic no-op (no faults), the
 *    configuration exclusion matrix, and the distributed_kv satellite:
 *    durable shards surviving shard crashes with token conservation,
 *    and the coordinator WAL replaying persisted decisions.
 *
 * Fiber caveat: an injected whole-DPU crash abandons the other
 * tasklets' fiber stacks without unwinding (sim/fiber.hh), so tasklet
 * bodies here keep only POD state on the fiber stack — anything
 * heap-owning lives on the host side, captured by reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/stm.hh"
#include "hostapp/distributed_kv.hh"
#include "runtime/driver.hh"
#include "runtime/shared_array.hh"
#include "sim/fault.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;
using pimstm::runtime::SharedArray32;

namespace
{

constexpr u32 kAccounts = 4;
constexpr u32 kInitial = 10;
constexpr u32 kTxPerTasklet = 3;
constexpr unsigned kTasklets = 2;

/** One crash-recover-restart execution of the transfer program. */
struct TransferRun
{
    u64 crashes = 0; ///< whole-DPU crashes delivered, summed over rounds
    StmStats stm;    ///< recoveries and log replay counts included
};

/**
 * Run the bank-transfer program under @p plan with durable mode on,
 * through runtime::launch — the crash-restart loop every launcher
 * uses. Each transaction moves one unit between two random accounts,
 * so the total balance is conserved across commits, aborts, crashes,
 * recoveries and restarts — including transactions that committed
 * durably but whose host-side bookkeeping died with the DPU (their
 * re-execution after restart is a new transfer, not a double-apply).
 */
TransferRun
runTransfersWithRecovery(StmKind kind, const FaultPlan &plan)
{
    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024;
    dpu_cfg.seed = 2027;
    dpu_cfg.faults = plan;
    Dpu dpu(dpu_cfg);

    StmConfig cfg;
    cfg.kind = kind;
    cfg.num_tasklets = kTasklets;
    cfg.max_read_set = 8;
    cfg.max_write_set = 8;
    cfg.data_words_hint = kAccounts;
    cfg.durable = true;
    auto stm = std::make_unique<Stm>(dpu, cfg);

    SharedArray32 accounts(dpu, Tier::Mram, kAccounts);
    accounts.fill(dpu, kInitial);
    // Host-loaded initial data is durable before launch (the load DMA
    // completes before the program starts); fence so an early crash
    // cannot revert it. The driver does the same after Workload::setup.
    dpu.mram().fence();

    TransferRun out;
    runtime::launch(
        dpu, *stm, kTasklets, kTasklets,
        [&](DpuContext &ctx, size_t) {
            for (u32 t = 0; t < kTxPerTasklet; ++t) {
                atomically(*stm, ctx, [&](TxHandle &tx) {
                    const u32 src =
                        static_cast<u32>(ctx.rng().below(kAccounts));
                    const u32 dst =
                        static_cast<u32>(ctx.rng().below(kAccounts));
                    const u32 s = tx.read(accounts.at(src));
                    const u32 d = tx.read(accounts.at(dst));
                    if (src == dst || s == 0)
                        return;
                    tx.write(accounts.at(src), s - 1);
                    tx.write(accounts.at(dst), d + 1);
                });
            }
        },
        [&](const Dpu &d) { out.crashes += d.stats().dpu_crashes; });

    u64 sum = 0;
    for (u32 i = 0; i < kAccounts; ++i)
        sum += accounts.peek(dpu, i);
    EXPECT_EQ(sum, static_cast<u64>(kAccounts) * kInitial)
        << stmKindName(kind) << ": total balance not conserved";

    out.stm = stm->stats();
    return out;
}

class Durable : public testing::TestWithParam<StmKind>
{
};

std::string
kindName(const testing::TestParamInfo<StmKind> &info)
{
    std::string s = stmKindName(info.param);
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

} // namespace

TEST_P(Durable, EveryReachableCrashPointRecovers)
{
    // Walk the crash point across the whole injectable op stream: op 1
    // lands before the first transaction touches anything, the last
    // reachable op lands inside the final commit, and the sweep only
    // ends when a plan stops firing (the run finished first). Every
    // landing spot must recover to a sum-conserving state.
    unsigned delivered = 0;
    for (unsigned op = 1; op < 5000; ++op) {
        SCOPED_TRACE("dpu-crash=" + std::to_string(op));
        const auto r = runTransfersWithRecovery(
            GetParam(),
            FaultPlan::parse("dpu-crash=" + std::to_string(op)));
        if (r.crashes == 0)
            break; // op count exceeds the program: sweep complete
        EXPECT_EQ(r.crashes, 1u);
        EXPECT_EQ(r.stm.recoveries, 1u);
        ++delivered;
    }
    EXPECT_GT(delivered, 10u)
        << "sweep never exercised a meaningful range of crash points";
}

TEST_P(Durable, TornWriteSeedDifferentialKeepsInvariant)
{
    // The same double-crash plan replayed under different persist-model
    // seeds: each seed picks different per-line crash effects (keep,
    // revert 8B, tear low half, tear high half), so recovery sees
    // different flushed prefixes and torn records — and must reach a
    // consistent state from every one of them.
    StmStats total;
    unsigned crashes = 0;
    for (unsigned seed = 0; seed < 8; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        const auto r = runTransfersWithRecovery(
            GetParam(),
            FaultPlan::parse("dpu-crash=25;dpu-crash=60;seed=" +
                             std::to_string(seed)));
        crashes += r.crashes;
        EXPECT_EQ(r.stm.recoveries, r.crashes);
        total += r.stm;
    }
    EXPECT_GT(crashes, 0u) << "no crash ever fired across the seeds";
    EXPECT_GT(total.log_redone + total.log_undone + total.log_discarded +
                  total.torn_logs,
              0u)
        << "recovery never found any log activity across the seeds";
}

TEST_P(Durable, RecoveryIsIdempotent)
{
    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024;
    dpu_cfg.seed = 11;
    dpu_cfg.faults = FaultPlan::parse("dpu-crash=30");
    Dpu dpu(dpu_cfg);

    StmConfig cfg;
    cfg.kind = GetParam();
    cfg.num_tasklets = kTasklets;
    cfg.max_read_set = 8;
    cfg.max_write_set = 8;
    cfg.data_words_hint = kAccounts;
    cfg.durable = true;
    auto stm = std::make_unique<Stm>(dpu, cfg);

    SharedArray32 accounts(dpu, Tier::Mram, kAccounts);
    accounts.fill(dpu, kInitial);
    dpu.mram().fence(); // host-loaded data is durable before launch
    const auto body = [&](DpuContext &ctx) {
        for (u32 t = 0; t < 8; ++t) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                const u32 a = static_cast<u32>(ctx.rng().below(kAccounts));
                const u32 b = static_cast<u32>(ctx.rng().below(kAccounts));
                const u32 va = tx.read(accounts.at(a));
                const u32 vb = tx.read(accounts.at(b));
                if (a == b || va == 0)
                    return;
                tx.write(accounts.at(a), va - 1);
                tx.write(accounts.at(b), vb + 1);
            });
        }
    };

    dpu.addTasklets(kTasklets, body);
    ASSERT_THROW(dpu.run(), DpuCrashError);

    (void)stm->recoverAfterCrash();
    // A second pass must find only truncated slots: recovery rebuilt
    // the committed state and left nothing behind to replay.
    const RecoveryReport second = stm->recoverAfterCrash();
    EXPECT_EQ(second.redone, 0u);
    EXPECT_EQ(second.undone, 0u);
    EXPECT_EQ(second.discarded, 0u);
    EXPECT_EQ(second.torn, 0u);

    // And the machine restarts and completes normally afterwards.
    dpu.resetRun(/*reset_faults=*/false);
    dpu.addTasklets(kTasklets, body);
    dpu.run();
    u64 sum = 0;
    for (u32 i = 0; i < kAccounts; ++i)
        sum += accounts.peek(dpu, i);
    EXPECT_EQ(sum, static_cast<u64>(kAccounts) * kInitial);
}

TEST_P(Durable, NoCrashDurableRunIsSemanticNoOp)
{
    // With no fault plan, durable mode changes costs (log writes and
    // fences) but never outcomes: the run completes, conserves the
    // balance sum, persists every commit that wrote anything and never
    // triggers recovery. Read-only and empty-write-set commits skip
    // the persist path, so durable_commits can trail commits.
    const auto r = runTransfersWithRecovery(GetParam(), FaultPlan{});
    EXPECT_EQ(r.crashes, 0u);
    EXPECT_EQ(r.stm.recoveries, 0u);
    EXPECT_EQ(r.stm.torn_logs, 0u);
    EXPECT_GT(r.stm.flush_fences, 0u);
    EXPECT_GT(r.stm.log_appends, 0u);
    EXPECT_GT(r.stm.durable_commits, 0u);
    EXPECT_LE(r.stm.durable_commits, r.stm.commits);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Durable,
                         testing::ValuesIn(allStmKindsExtended()),
                         kindName);

TEST(DurableRedoLog, ConcurrentCommitsKeepTheirOwnRedoImages)
{
    // Two write-back transactions with different write-set sizes reach
    // their durability points close together: the large one's redo
    // image is still in flight (writeBlock charges the MRAM write, and
    // may switch fibers, before it copies) when the small one encodes
    // its own. A third tasklet cuts the power as soon as both commits
    // are durable. Recovery must find both records sealed under their
    // own sequence numbers and redo them; a redo-image buffer shared
    // between tasklets let the small image overwrite (or, when larger,
    // free) the large one mid-copy. The small transaction's start delay
    // is swept across the window where the two commits overlap.
    constexpr u32 kBig = 6, kSmall = 2;
    constexpr u64 kLogBytes = (kBig + 1 + kSmall + 1) * 16;
    unsigned both_sealed = 0;
    for (Cycles delay = 1300; delay < 1700; delay += 20) {
        SCOPED_TRACE("small-tx start delay " + std::to_string(delay));
        DpuConfig dpu_cfg;
        dpu_cfg.mram_bytes = 1 << 20;
        Dpu dpu(dpu_cfg);
        StmConfig cfg;
        cfg.kind = StmKind::VrCtlWb;
        cfg.num_tasklets = 3;
        cfg.max_read_set = 8;
        cfg.max_write_set = 8;
        cfg.data_words_hint = 64;
        cfg.durable = true;
        auto stm = std::make_unique<Stm>(dpu, cfg);
        SharedArray32 words(dpu, Tier::Mram, 64);
        words.fill(dpu, 0);
        dpu.mram().fence();

        dpu.addTasklet([&](DpuContext &ctx) {
            atomically(*stm, ctx, [&](TxHandle &tx) {
                for (u32 i = 0; i < kBig; ++i)
                    tx.write(words.at(i), 100 + i);
            });
        });
        dpu.addTasklet([&](DpuContext &ctx) {
            ctx.delay(delay);
            atomically(*stm, ctx, [&](TxHandle &tx) {
                for (u32 i = 0; i < kSmall; ++i)
                    tx.write(words.at(32 + i), 200 + i);
            });
        });
        dpu.addTasklet([&](DpuContext &ctx) {
            while (stm->stats().durable_commits < 2)
                ctx.delay(1);
            ctx.dpu().beginCrash();
            throw DpuCrashException{ctx.taskletId()};
        });
        ASSERT_THROW(dpu.run(), DpuCrashError);
        EXPECT_EQ(stm->stats().log_bytes, kLogBytes);

        dpu.resetRun(/*reset_faults=*/false);
        const RecoveryReport r = stm->recoverAfterCrash();
        EXPECT_EQ(r.torn, 0u);
        EXPECT_EQ(r.discarded, 0u);
        EXPECT_GE(r.redone, 1u);
        both_sealed += r.redone == 2;
        for (u32 i = 0; i < kBig; ++i)
            EXPECT_EQ(words.peek(dpu, i), 100 + i);
        for (u32 i = 0; i < kSmall; ++i)
            EXPECT_EQ(words.peek(dpu, 32 + i), 200 + i);
    }
    // The sweep must reach the overlap it exists for: crashes that
    // find both records committed and not yet truncated.
    EXPECT_GT(both_sealed, 0u);
}

TEST(DurableConfig, ExclusionsAreRefused)
{
    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 << 20;
    Dpu dpu(dpu_cfg);

    StmConfig base;
    base.kind = StmKind::NOrec;
    base.num_tasklets = 2;
    base.data_words_hint = 16;
    base.durable = true;

    {
        StmConfig cfg = base;
        cfg.serial_fallback_after = 4;
        EXPECT_THROW(Stm(dpu, cfg), FatalError);
    }
    {
        StmConfig cfg = base;
        cfg.boosting = true;
        EXPECT_THROW(Stm(dpu, cfg), FatalError);
    }
    {
        // Two candidates: a live kind switch would change the log
        // format recovery has to read.
        EXPECT_THROW(Stm(dpu, base, {StmKind::TinyEtlWb}), FatalError);
    }
    {
        // Driver-level: the adaptive controller re-plans layout and can
        // switch kinds, so durable runs refuse it up front.
        runtime::RunSpec spec;
        spec.kind = StmKind::NOrec;
        spec.tasklets = 2;
        spec.mram_bytes = 1 << 20;
        spec.stm.durable = true;
        spec.adaptive.enabled = true;
        workloads::ArrayBench wl(
            workloads::ArrayBenchParams::workloadB(2));
        EXPECT_THROW((void)runtime::runWorkload(wl, spec), FatalError);
    }
}

namespace
{

/**
 * Driver-level transfer workload whose verify() is crash-safe: the
 * balance sum is conserved no matter how many crash-restart rounds the
 * driver ran. (A count-based invariant like ArrayBench's sum ==
 * commits * rmw is NOT crash-safe — a crash between the durable commit
 * point and the host-side commit tally leaves an applied effect with
 * no matching count.)
 */
class TransferWl : public runtime::Workload
{
  public:
    const char *name() const override { return "TransferWl"; }

    void
    configure(core::StmConfig &cfg) const override
    {
        cfg.max_read_set = 8;
        cfg.max_write_set = 8;
        cfg.data_words_hint = kAccounts;
    }

    void
    setup(Dpu &dpu, Stm &) override
    {
        accounts_ = SharedArray32(dpu, Tier::Mram, kAccounts);
        accounts_.fill(dpu, kInitial);
    }

    void
    tasklet(DpuContext &ctx, Stm &stm) override
    {
        for (u32 t = 0; t < 20; ++t) {
            atomically(stm, ctx, [&](TxHandle &tx) {
                const u32 a = static_cast<u32>(ctx.rng().below(kAccounts));
                const u32 b = static_cast<u32>(ctx.rng().below(kAccounts));
                const u32 va = tx.read(accounts_.at(a));
                const u32 vb = tx.read(accounts_.at(b));
                if (a == b || va == 0)
                    return;
                tx.write(accounts_.at(a), va - 1);
                tx.write(accounts_.at(b), vb + 1);
            });
        }
    }

    void
    verify(Dpu &dpu, Stm &) override
    {
        u64 sum = 0;
        for (u32 i = 0; i < kAccounts; ++i)
            sum += accounts_.peek(dpu, i);
        fatalIf(sum != static_cast<u64>(kAccounts) * kInitial,
                "transfer sum not conserved: ", sum);
    }

  private:
    SharedArray32 accounts_;
};

} // namespace

TEST(DurableDriver, CrashRestartLoopCompletesRuns)
{
    for (StmKind kind : allStmKinds()) {
        SCOPED_TRACE(stmKindName(kind));
        runtime::RunSpec spec;
        spec.kind = kind;
        spec.tasklets = 4;
        spec.mram_bytes = 8 * 1024 * 1024;
        spec.stm.durable = true;
        spec.faults = FaultPlan::parse("dpu-crash=120;dpu-crash=420");

        TransferWl wl;
        const auto r = runtime::runWorkload(wl, spec);
        EXPECT_GT(r.dpu.dpu_crashes, 0u);
        EXPECT_EQ(r.stm.recoveries, r.dpu.dpu_crashes);
    }
}

TEST(DurableDriver, EveryCrashOfADensePlanIsRecovered)
{
    // Twenty crash points, one launch: each point fires once per DPU
    // lifetime and the op count keeps growing across restarts, so the
    // loop recovers all twenty and ends without a restart budget.
    std::string plan = "dpu-crash=40";
    for (unsigned op = 80; op <= 800; op += 40)
        plan += ";dpu-crash=" + std::to_string(op);
    for (StmKind kind : {StmKind::NOrec, StmKind::TinyEtlWt}) {
        SCOPED_TRACE(stmKindName(kind));
        runtime::RunSpec spec;
        spec.kind = kind;
        spec.tasklets = 4;
        spec.mram_bytes = 8 * 1024 * 1024;
        spec.stm.durable = true;
        spec.faults = FaultPlan::parse(plan);

        TransferWl wl;
        const auto r = runtime::runWorkload(wl, spec);
        EXPECT_EQ(r.dpu.dpu_crashes, 20u);
        EXPECT_EQ(r.stm.recoveries, 20u);
    }
}

TEST(DurableDriver, NonDurableRunPropagatesTheCrash)
{
    runtime::RunSpec spec;
    spec.kind = StmKind::NOrec;
    spec.tasklets = 4;
    spec.mram_bytes = 8 * 1024 * 1024;
    spec.faults = FaultPlan::parse("dpu-crash=120");

    workloads::ArrayBench wl(workloads::ArrayBenchParams::workloadB(12));
    EXPECT_THROW((void)runtime::runWorkload(wl, spec), DpuCrashError);
}

namespace
{

/**
 * Durable distributed_kv harness: seed tokens, churn them with
 * cross-shard moves, then check conservation — the key population and
 * the multiset of values must both be exactly what was seeded, since
 * every committed movek relocates a token without changing its value.
 * Exactly-once for moves is the coordinator WAL + idempotent prepare
 * fragments; plain puts are idempotent, so at-least-once re-execution
 * after a shard crash is invisible.
 */
struct KvChurn
{
    hostapp::TwoPcStats two_pc;
    StmStats stm; ///< summed over the shards
};

KvChurn
runDurableKvChurn(StmKind kind, const std::string &fault_spec)
{
    constexpr unsigned kShards = 4;
    constexpr u32 kTokens = 16;
    constexpr u32 kKeySpace = 32;

    hostapp::DistributedKvConfig cfg;
    cfg.shards = kShards;
    cfg.capacity_per_shard = 256;
    cfg.kind = kind;
    cfg.tasklets_per_dpu = 4;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.durable = true;
    cfg.faults = FaultPlan::parse(fault_spec);
    hostapp::DistributedKv kv(cfg);

    std::vector<hostapp::KvOp> seed;
    std::vector<u32> seeded_values;
    for (u32 k = 1; k <= kTokens; ++k) {
        seed.push_back(hostapp::KvOp::put(k, 5000 + k));
        seeded_values.push_back(5000 + k);
    }
    kv.execute(seed);

    Rng rng(97);
    for (int batch = 0; batch < 3; ++batch) {
        std::vector<hostapp::CrossShardTx> txs;
        for (int i = 0; i < 8; ++i) {
            const u32 s = static_cast<u32>(rng.below(kKeySpace)) + 1;
            const u32 d = static_cast<u32>(rng.below(kKeySpace)) + 1;
            txs.push_back(hostapp::CrossShardTx::move(s, d));
        }
        (void)kv.execute({}, txs);
    }

    EXPECT_EQ(kv.livePins(), 0u);
    EXPECT_EQ(kv.population(), kTokens) << "tokens not conserved";
    std::vector<u32> values;
    for (u32 k = 1; k <= kKeySpace; ++k) {
        u32 v = 0;
        if (kv.peek(k, v))
            values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, seeded_values) << "token values not conserved";
    return {kv.stats(), kv.stmStats()};
}

} // namespace

TEST(DurableDistributedKv, ShardCrashesRecoverAndConserveTokens)
{
    // Whole-shard crashes land mid-launch; the durable shards recover
    // in place and the launch re-runs only the unacknowledged items.
    // Sweep a few crash points so at least one plan fires on at least
    // one shard (op counts differ per shard and per point).
    // TinyEtlWt writes in place, so a crash mid-transaction leaves an
    // undo log for recovery to roll back.
    u64 recoveries = 0;
    u64 persists = 0;
    u64 undone = 0;
    for (unsigned op : {25u, 60u, 110u, 190u}) {
        SCOPED_TRACE("dpu-crash=" + std::to_string(op));
        const auto churn = runDurableKvChurn(
            StmKind::TinyEtlWt,
            "dpu-crash=" + std::to_string(op) + ";seed=3");
        EXPECT_EQ(churn.stm.recoveries, churn.two_pc.shard_recoveries);
        recoveries += churn.two_pc.shard_recoveries;
        persists += churn.two_pc.wal_persists;
        undone += churn.stm.log_undone;
    }
    EXPECT_GT(recoveries, 0u) << "no shard crash was ever delivered";
    EXPECT_GT(persists, 0u) << "no commit decision was ever persisted";
    EXPECT_GT(undone, 0u) << "no shard recovery rolled back an undo log";
}

TEST(DurableDistributedKv, NOrecShardsReplayRedoLogsUnderADensePlan)
{
    // NOrec writes back at commit, so recovery redoes the committed
    // redo logs a crash leaves behind. The plan is serve_kv's 17-point
    // one (dpu-crash=50..850, every 50 ops); denser plans crash before
    // any transaction commits.
    std::string plan = "seed=3";
    for (unsigned op = 50; op <= 850; op += 50)
        plan += ";dpu-crash=" + std::to_string(op);
    const auto churn = runDurableKvChurn(StmKind::NOrec, plan);
    EXPECT_GT(churn.two_pc.shard_recoveries, 0u);
    EXPECT_EQ(churn.stm.recoveries, churn.two_pc.shard_recoveries);
    EXPECT_GT(churn.stm.log_redone, 0u)
        << "no shard recovery replayed a committed redo log";
}

namespace {

/*
 * Moves whose destination provably lives on a different shard than the
 * source. Same-shard pairs degrade to LocalMove items that commit
 * immediately outside the 2PC/WAL path, which would dilute what the
 * coordinator-crash tests exercise.
 */
std::vector<std::pair<u32, u32>>
crossShardPairs(unsigned shards, u32 count)
{
    std::vector<std::pair<u32, u32>> out;
    u32 dst = 100;
    for (u32 k = 1; k <= count; ++k) {
        while (hostapp::shardOfKey(dst, shards) ==
               hostapp::shardOfKey(k, shards))
            ++dst;
        out.emplace_back(k, dst++);
    }
    return out;
}

} // namespace

TEST(DurableDistributedKv, CoordinatorReplaysPersistedDecisions)
{
    // A coordinator crash mid-decision-delivery: commit verdicts were
    // already persisted to the WAL seam, so recover() must replay them
    // (decisions_replayed) and finish delivering idempotently — the
    // committed moves survive the coordinator death.
    hostapp::DistributedKvConfig cfg;
    cfg.shards = 4;
    cfg.capacity_per_shard = 256;
    cfg.kind = StmKind::NOrec;
    cfg.tasklets_per_dpu = 4;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.durable = true;
    hostapp::DistributedKv kv(cfg);

    std::vector<hostapp::KvOp> seed;
    for (u32 k = 1; k <= 8; ++k)
        seed.push_back(hostapp::KvOp::put(k, 7000 + k));
    kv.execute(seed);

    // Disjoint cross-shard moves to empty destinations: every one must
    // go through 2PC and commit.
    const auto pairs = crossShardPairs(cfg.shards, 8);
    std::vector<hostapp::CrossShardTx> txs;
    for (const auto &p : pairs)
        txs.push_back(hostapp::CrossShardTx::move(p.first, p.second));

    kv.injectCoordinatorCrash(
        hostapp::DistributedKv::CrashPoint::MidDecision,
        /*max_decision_shards=*/1);
    EXPECT_THROW((void)kv.execute({}, txs),
                 hostapp::DistributedKv::CoordinatorCrashed);
    ASSERT_TRUE(kv.needsRecovery());

    kv.recover();
    const auto stats = kv.stats();
    EXPECT_GT(stats.decisions_replayed, 0u)
        << "no persisted decision came back from the WAL";
    EXPECT_GT(stats.wal_persists, 0u);

    // The replayed commits are durable facts: every token sits at its
    // destination, none was lost or duplicated.
    EXPECT_EQ(kv.livePins(), 0u);
    EXPECT_EQ(kv.population(), 8u);
    for (const auto &p : pairs) {
        u32 v = 0;
        EXPECT_TRUE(kv.peek(p.second, v))
            << "token " << p.first << " not at its destination";
        EXPECT_EQ(v, 7000 + p.first);
    }
}

TEST(DurableDistributedKv, AfterPrepareCrashIsPresumedAbort)
{
    // The counterpart: a crash after the votes but before any decision
    // reaches the WAL seam must abort everything on recovery — no
    // half-applied moves, tokens stay at their sources.
    hostapp::DistributedKvConfig cfg;
    cfg.shards = 4;
    cfg.capacity_per_shard = 256;
    cfg.kind = StmKind::NOrec;
    cfg.tasklets_per_dpu = 4;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.durable = true;
    hostapp::DistributedKv kv(cfg);

    std::vector<hostapp::KvOp> seed;
    for (u32 k = 1; k <= 8; ++k)
        seed.push_back(hostapp::KvOp::put(k, 7000 + k));
    kv.execute(seed);

    const auto pairs = crossShardPairs(cfg.shards, 8);
    std::vector<hostapp::CrossShardTx> txs;
    for (const auto &p : pairs)
        txs.push_back(hostapp::CrossShardTx::move(p.first, p.second));

    kv.injectCoordinatorCrash(
        hostapp::DistributedKv::CrashPoint::AfterPrepare);
    EXPECT_THROW((void)kv.execute({}, txs),
                 hostapp::DistributedKv::CoordinatorCrashed);
    kv.recover();

    EXPECT_EQ(kv.stats().decisions_replayed, 0u)
        << "nothing was persisted, nothing may replay";
    EXPECT_EQ(kv.livePins(), 0u);
    EXPECT_EQ(kv.population(), 8u);
    for (u32 k = 1; k <= 8; ++k) {
        u32 v = 0;
        EXPECT_TRUE(kv.peek(k, v)) << "token " << k << " left its source";
        EXPECT_EQ(v, 7000 + k);
    }
}
