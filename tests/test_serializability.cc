/**
 * @file
 * A serializability checker, run against every STM implementation
 * (including the TL2 extension).
 *
 * Protocol: every transaction picks a few cells, reads each cell's
 * counter and writes counter+1, recording the values it observed on
 * its committed attempt. In any serializable execution:
 *
 *  1. per cell, the observed values are exactly {0, 1, ..., k-1} with
 *     no duplicates (each increment saw a distinct predecessor), and
 *  2. the precedence relation induced by observations — tx A precedes
 *     tx B whenever they touched a common cell and A observed the
 *     smaller value — must be ACYCLIC (a cycle means no serial order
 *     can explain the observations).
 *
 * The checker builds the precedence graph over all committed
 * transactions and runs a DFS cycle detection. Any lost update,
 * dirty read or write skew the STMs could exhibit would show up as a
 * duplicate observation or a precedence cycle.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/stm.hh"
#include "hostapp/distributed_kv.hh"
#include "runtime/shared_array.hh"

using namespace pimstm;
using namespace pimstm::sim;
using namespace pimstm::core;
using pimstm::runtime::SharedArray32;

namespace
{

struct CommittedTx
{
    /** (cell, value observed just before our increment). */
    std::vector<std::pair<u32, u32>> observations;
};

/** Check property 1 and build per-cell observation orderings. */
void
checkPerCellHistories(const std::vector<CommittedTx> &txs, u32 cells)
{
    // cell -> observed value -> tx index
    std::vector<std::map<u32, size_t>> by_cell(cells);
    for (size_t t = 0; t < txs.size(); ++t) {
        for (const auto &[cell, value] : txs[t].observations) {
            const auto [it, fresh] = by_cell[cell].emplace(value, t);
            ASSERT_TRUE(fresh)
                << "cell " << cell << ": value " << value
                << " observed twice (lost update)";
        }
    }
    for (u32 c = 0; c < cells; ++c) {
        u32 expected = 0;
        for (const auto &[value, tx] : by_cell[c]) {
            ASSERT_EQ(value, expected)
                << "cell " << c << ": observation gap at " << expected;
            ++expected;
        }
    }
}

/** Check property 2: precedence graph acyclicity. */
void
checkAcyclicPrecedence(const std::vector<CommittedTx> &txs, u32 cells)
{
    // Edges: for each cell, tx observing value v precedes the tx
    // observing v+1 (transitively closed by chaining, so consecutive
    // edges suffice).
    std::vector<std::map<u32, size_t>> by_cell(cells);
    for (size_t t = 0; t < txs.size(); ++t)
        for (const auto &[cell, value] : txs[t].observations)
            by_cell[cell][value] = t;

    std::vector<std::vector<size_t>> succ(txs.size());
    for (u32 c = 0; c < cells; ++c) {
        size_t prev = SIZE_MAX;
        for (const auto &[value, tx] : by_cell[c]) {
            if (prev != SIZE_MAX && prev != tx)
                succ[prev].push_back(tx);
            prev = tx;
        }
    }

    // Iterative DFS cycle detection (colors: 0 white, 1 grey, 2 black).
    std::vector<u8> color(txs.size(), 0);
    for (size_t root = 0; root < txs.size(); ++root) {
        if (color[root] != 0)
            continue;
        std::vector<std::pair<size_t, size_t>> stack{{root, 0}};
        color[root] = 1;
        while (!stack.empty()) {
            auto &[node, child] = stack.back();
            if (child < succ[node].size()) {
                const size_t next = succ[node][child++];
                ASSERT_NE(color[next], 1)
                    << "precedence cycle: execution not serializable";
                if (color[next] == 0) {
                    color[next] = 1;
                    stack.emplace_back(next, 0);
                }
            } else {
                color[node] = 2;
                stack.pop_back();
            }
        }
    }
}

struct Param
{
    StmKind kind;
    MetadataTier tier;
};

std::string
paramName(const testing::TestParamInfo<Param> &info)
{
    std::string s = stmKindName(info.param.kind);
    s += info.param.tier == MetadataTier::Wram ? "_WRAM" : "_MRAM";
    for (auto &c : s)
        if (c == ' ')
            c = '_';
    return s;
}

std::vector<Param>
allParams()
{
    std::vector<Param> ps;
    for (StmKind k : allStmKindsExtended()) {
        ps.push_back({k, MetadataTier::Mram});
        ps.push_back({k, MetadataTier::Wram});
    }
    return ps;
}

class Serializability : public testing::TestWithParam<Param>
{
};

/** The increment-history protocol, optionally under fault injection
 * (crash-free plans only: the history check needs every transaction to
 * eventually commit). */
void
runIncrementHistoryCheck(const Param &param, const FaultPlan &faults)
{
    constexpr u32 kCells = 12;
    constexpr unsigned kTasklets = 8;
    constexpr unsigned kOpsPerTasklet = 20;

    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024;
    dpu_cfg.seed = 2026;
    dpu_cfg.faults = faults;
    Dpu dpu(dpu_cfg);

    StmConfig cfg;
    cfg.kind = param.kind;
    cfg.metadata_tier = param.tier;
    cfg.num_tasklets = kTasklets;
    cfg.max_read_set = 32;
    cfg.max_write_set = 16;
    cfg.data_words_hint = kCells;
    auto stm = std::make_unique<Stm>(dpu, cfg);

    SharedArray32 counters(dpu, Tier::Mram, kCells);
    counters.fill(dpu, 0);

    std::vector<std::vector<CommittedTx>> logs(kTasklets);
    dpu.addTasklets(kTasklets, [&](DpuContext &ctx) {
        const unsigned me = ctx.taskletId();
        for (unsigned op = 0; op < kOpsPerTasklet; ++op) {
            // 1-3 distinct cells per transaction.
            const unsigned n =
                static_cast<unsigned>(ctx.rng().range(1, 3));
            std::vector<u32> cells;
            while (cells.size() < n) {
                const u32 c = static_cast<u32>(ctx.rng().below(kCells));
                bool dup = false;
                for (u32 x : cells)
                    dup = dup || x == c;
                if (!dup)
                    cells.push_back(c);
            }
            CommittedTx record;
            atomically(*stm, ctx, [&](TxHandle &tx) {
                record.observations.clear();
                for (const u32 c : cells) {
                    const u32 v = tx.read(counters.at(c));
                    tx.write(counters.at(c), v + 1);
                    record.observations.emplace_back(c, v);
                }
            });
            // atomically() returned: `record` is the committed attempt.
            logs[me].push_back(record);
        }
    });
    dpu.run();

    std::vector<CommittedTx> txs;
    for (auto &l : logs)
        for (auto &r : l)
            txs.push_back(std::move(r));
    ASSERT_EQ(txs.size(), kTasklets * kOpsPerTasklet);

    checkPerCellHistories(txs, kCells);
    checkAcyclicPrecedence(txs, kCells);

    // Final counters must equal the number of increments per cell.
    std::vector<u32> expected(kCells, 0);
    for (const auto &t : txs)
        for (const auto &[cell, value] : t.observations)
            ++expected[cell];
    for (u32 c = 0; c < kCells; ++c)
        EXPECT_EQ(counters.peek(dpu, c), expected[c]) << "cell " << c;
}

//
// Crash-stitched histories: the increment protocol under durable mode
// with injected whole-DPU crashes (docs/durability.md). The stitched
// history — every committed transaction across all crash-restart
// rounds — must still be serializable. One wrinkle: a crash can land
// between a transaction's durable commit point and the host-side
// record of its observations, so the recorded history may have GAPS
// (a committed increment nobody logged). Gaps weaken the per-cell
// completeness check (bounded by in-flight transactions at crash
// time) but never excuse a duplicate observation (lost update) or a
// precedence cycle.
//

/** POD committed-tx record: whole-DPU crashes abandon fiber stacks
 * without unwinding, so nothing heap-owning may live there. */
struct PodTx
{
    u32 cell[3];
    u32 value[3];
    u32 n;
};

void
runDurableCrashStitchedCheck(const Param &param, const std::string &spec)
{
    constexpr u32 kCells = 8;
    constexpr unsigned kTasklets = 6;
    constexpr unsigned kOpsPerTasklet = 12;
    constexpr unsigned kMaxCellsPerTx = 3;

    DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024;
    dpu_cfg.seed = 2027;
    dpu_cfg.faults = FaultPlan::parse(spec);
    Dpu dpu(dpu_cfg);

    StmConfig cfg;
    cfg.kind = param.kind;
    cfg.metadata_tier = param.tier;
    cfg.num_tasklets = kTasklets;
    cfg.max_read_set = 32;
    cfg.max_write_set = 16;
    cfg.data_words_hint = kCells;
    cfg.durable = true;
    auto stm = std::make_unique<Stm>(dpu, cfg);

    SharedArray32 counters(dpu, Tier::Mram, kCells);
    counters.fill(dpu, 0);
    dpu.mram().fence(); // host-loaded initial image is durable

    std::vector<std::vector<PodTx>> logs(kTasklets);
    const auto body = [&](DpuContext &ctx) {
        const unsigned me = ctx.taskletId();
        for (unsigned op = 0; op < kOpsPerTasklet; ++op) {
            const unsigned n =
                static_cast<unsigned>(ctx.rng().range(1, kMaxCellsPerTx));
            u32 cells[kMaxCellsPerTx];
            unsigned picked = 0;
            while (picked < n) {
                const u32 c = static_cast<u32>(ctx.rng().below(kCells));
                bool dup = false;
                for (unsigned i = 0; i < picked; ++i)
                    dup = dup || cells[i] == c;
                if (!dup)
                    cells[picked++] = c;
            }
            PodTx rec;
            atomically(*stm, ctx, [&](TxHandle &tx) {
                rec.n = 0;
                for (unsigned i = 0; i < n; ++i) {
                    const u32 v = tx.read(counters.at(cells[i]));
                    tx.write(counters.at(cells[i]), v + 1);
                    rec.cell[rec.n] = cells[i];
                    rec.value[rec.n] = v;
                    ++rec.n;
                }
            });
            // Committed. (A crash landing before this line loses the
            // record but not the increment: that is the gap budget.)
            logs[me].push_back(rec);
        }
    };

    dpu.addTasklets(kTasklets, body);
    unsigned crashes = 0;
    for (;;) {
        try {
            dpu.run();
            break;
        } catch (const DpuCrashError &) {
            ++crashes;
            ASSERT_LT(crashes, 64u) << "crash-restart loop not converging";
            dpu.resetRun(/*reset_faults=*/false);
            (void)stm->recoverAfterCrash();
            dpu.addTasklets(kTasklets, body);
        }
    }
    ASSERT_GT(crashes, 0u) << "plan '" << spec << "' never fired";

    std::vector<CommittedTx> txs;
    for (const auto &l : logs)
        for (const auto &r : l) {
            CommittedTx t;
            for (u32 i = 0; i < r.n; ++i)
                t.observations.emplace_back(r.cell[i], r.value[i]);
            txs.push_back(std::move(t));
        }

    // Property 1 (crash-stitched form): per cell, no value observed
    // twice, every observed value below the final counter, and the
    // total number of unobserved committed increments bounded by the
    // in-flight transactions the crashes could have cut off.
    std::vector<std::map<u32, size_t>> by_cell(kCells);
    for (size_t t = 0; t < txs.size(); ++t) {
        for (const auto &[cell, value] : txs[t].observations) {
            const auto [it, fresh] = by_cell[cell].emplace(value, t);
            ASSERT_TRUE(fresh)
                << "cell " << cell << ": value " << value
                << " observed twice (lost update across crash)";
        }
    }
    u64 missing = 0;
    for (u32 c = 0; c < kCells; ++c) {
        const u32 fin = counters.peek(dpu, c);
        for (const auto &[value, tx] : by_cell[c])
            ASSERT_LT(value, fin) << "cell " << c
                                  << ": observation beyond final state";
        ASSERT_GE(fin, by_cell[c].size());
        missing += fin - static_cast<u32>(by_cell[c].size());
    }
    EXPECT_LE(missing, static_cast<u64>(crashes) * kTasklets *
                           kMaxCellsPerTx)
        << "more unobserved increments than crashes can explain";

    // Property 2 unchanged: the recorded suborder must stay acyclic.
    checkAcyclicPrecedence(txs, kCells);
}

//
// Multi-shard histories: the 2PC layer on top of the STMs. Tokens
// (unique values) are seeded once and then relocated by random
// cross-shard transactions; after every batch, the set of committed
// transactions must admit SOME serial order in which each one's
// predicates hold and the value it reports is the value its source
// held at that point. The final store must equal the reference model
// after that order is applied — token conservation plus atomicity of
// every movek across shards, under all eight STM kinds.
//

/** Can all committed moves be applied to @p ref in some serial order?
 * DFS with backtracking (batches are small); applies in place and
 * returns true when an order exists. */
bool
applyInSomeSerialOrder(std::map<u32, u32> &ref,
                       std::vector<std::pair<hostapp::CrossShardTx, u32>> moves)
{
    if (moves.empty())
        return true;
    for (size_t i = 0; i < moves.size(); ++i) {
        const auto &[tx, value] = moves[i];
        const auto src = ref.find(tx.src_key);
        if (src == ref.end() || src->second != value ||
            ref.count(tx.dst_key))
            continue;
        std::map<u32, u32> next = ref;
        next.erase(tx.src_key);
        next.emplace(tx.dst_key, value);
        std::vector<std::pair<hostapp::CrossShardTx, u32>> rest;
        for (size_t j = 0; j < moves.size(); ++j)
            if (j != i)
                rest.push_back(moves[j]);
        if (applyInSomeSerialOrder(next, std::move(rest))) {
            ref = std::move(next);
            return true;
        }
    }
    return false;
}

/** Random mixed batches against one DistributedKv; returns its final
 * 2PC stats so crash sweeps can check phase coverage. */
hostapp::TwoPcStats
runDistributedMoveCheck(const Param &param, const FaultPlan &faults)
{
    constexpr unsigned kShards = 4;
    constexpr u32 kTokens = 24;
    constexpr u32 kKeySpace = 48; ///< moveks roam twice the seeded range

    hostapp::DistributedKvConfig cfg;
    cfg.shards = kShards;
    cfg.capacity_per_shard = 256;
    cfg.kind = param.kind;
    cfg.tier = param.tier;
    cfg.tasklets_per_dpu = 4;
    cfg.mram_bytes = 1 * 1024 * 1024;
    cfg.faults = faults;
    auto kv = std::make_unique<hostapp::DistributedKv>(cfg);

    std::map<u32, u32> ref;
    std::vector<hostapp::KvOp> seed;
    for (u32 k = 1; k <= kTokens; ++k) {
        seed.push_back(hostapp::KvOp::put(k, 1000 + k));
        ref[k] = 1000 + k;
    }
    kv->execute(seed);

    Rng rng(31 * static_cast<u64>(param.kind) +
            (param.tier == MetadataTier::Wram ? 7 : 0));
    for (int batch = 0; batch < 2; ++batch) {
        std::vector<hostapp::CrossShardTx> txs;
        for (int i = 0; i < 10; ++i) {
            const u32 s = static_cast<u32>(rng.below(kKeySpace)) + 1;
            const u32 d = static_cast<u32>(rng.below(kKeySpace)) + 1;
            txs.push_back(hostapp::CrossShardTx::move(s, d));
        }
        // Single-shard noise on a disjoint key range, same launches.
        std::vector<hostapp::KvOp> ops;
        for (u32 i = 0; i < 4; ++i)
            ops.push_back(hostapp::KvOp::put(100 + batch * 8 + i, i));

        const auto r = kv->execute(ops, txs);

        for (u32 i = 0; i < 4; ++i) {
            EXPECT_TRUE(r.ops[i].ok);
            ref[100 + batch * 8 + i] = i;
        }
        std::vector<std::pair<hostapp::CrossShardTx, u32>> committed;
        for (size_t i = 0; i < txs.size(); ++i)
            if (r.txs[i].committed)
                committed.emplace_back(txs[i], r.txs[i].value);
        EXPECT_TRUE(applyInSomeSerialOrder(ref, std::move(committed)))
            << "committed moves admit no serial order (batch " << batch
            << ")";
    }

    EXPECT_EQ(kv->livePins(), 0u);
    EXPECT_EQ(kv->population(), ref.size());
    for (const auto &[key, value] : ref) {
        u32 v = 0;
        EXPECT_TRUE(kv->peek(key, v)) << "key " << key;
        EXPECT_EQ(v, value) << "key " << key;
    }
    return kv->stats();
}

} // namespace

TEST_P(Serializability, RandomIncrementHistoriesAreSerializable)
{
    runIncrementHistoryCheck(GetParam(), FaultPlan{});
}

TEST_P(Serializability, HistoriesStaySerializableUnderFaultInjection)
{
    // Stalls, probabilistic acquire delays and spurious aborts shuffle
    // the interleaving and force extra retries, but must never produce
    // a non-serializable committed history.
    runIncrementHistoryCheck(
        GetParam(),
        FaultPlan::parse("seed=5;stall=*@3000:500;stall=2@9000:1500;"
                         "acq-delay=60:250;abort=30"));
}

TEST_P(Serializability, CrashStitchedHistoriesStaySerializable)
{
    // Durable mode + whole-DPU crashes: recovery stitches the flushed
    // prefix into the restarted run; the combined committed history
    // must still be serializable. Two plans: a mid-run crash and a
    // double crash with a different scramble seed.
    runDurableCrashStitchedCheck(GetParam(), "dpu-crash=90");
    runDurableCrashStitchedCheck(GetParam(),
                                 "dpu-crash=60;dpu-crash=200;seed=9");
}

TEST_P(Serializability, MultiShardMoveHistoriesAreSerializable)
{
    runDistributedMoveCheck(GetParam(), FaultPlan{});
}

TEST_P(Serializability, MultiShardHistoriesSurviveParticipantCrashes)
{
    // Sweep the crash point across the per-tasklet operation stream so
    // injected participant crashes land in prepare rounds for some
    // offsets and in decision rounds for others. Every run must keep
    // the token-conservation / serial-order invariants; across the
    // sweep both protocol phases must actually have been hit.
    u64 in_prepare = 0;
    u64 in_commit = 0;
    for (u32 n = 20; n <= 420 && (in_prepare == 0 || in_commit == 0);
         n += 7) {
        for (u32 tasklet = 0; tasklet < 2; ++tasklet) {
            SCOPED_TRACE("crash=" + std::to_string(tasklet) + "@" +
                         std::to_string(n));
            const auto stats = runDistributedMoveCheck(
                GetParam(),
                FaultPlan::parse("seed=1;crash=" +
                                 std::to_string(tasklet) + "@" +
                                 std::to_string(n)));
            in_prepare += stats.crashes_in_prepare;
            in_commit += stats.crashes_in_commit;
        }
    }
    EXPECT_GT(in_prepare, 0u)
        << "sweep never crashed a participant mid-prepare";
    EXPECT_GT(in_commit, 0u)
        << "sweep never crashed a participant mid-commit";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, Serializability,
                         testing::ValuesIn(allParams()), paramName);
