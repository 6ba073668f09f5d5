/**
 * @file
 * DistributedKv — the paper's future-work item (§5): a concurrent
 * key-value store distributed across multiple DPUs so the dataset can
 * exceed one DPU's 64 MB, built on PIM-STM.
 *
 * Design, following the paper's constraints:
 *  - Keys are hashed to shards; each shard is a TxHashMap in one DPU's
 *    MRAM. Within a shard, PIM-STM transparently regulates concurrency
 *    among the tasklets executing that shard's operations.
 *  - DPUs cannot talk to each other, so the host routes operations:
 *    execute() groups a batch by shard, runs every involved DPU
 *    concurrently (host threads via util::ThreadPool; the modelled
 *    batch takes as long as the slowest shard) and charges the
 *    host-link cost model of sim/config.hh for every
 *    fragment/vote/decision transfer and launch.
 *  - Cross-shard transactions (movek: atomically relocate a key) run
 *    under host-coordinated two-phase commit over per-shard fragments:
 *    each involved DPU executes its fragment as a shard-local STM
 *    transaction that acquires a *pin* (an entry in a per-shard
 *    transactional pin table) on its key, the host collects votes and
 *    delivers commit/abort decisions, and pins are held across the
 *    prepare -> decision window so no conflicting shard-local operation
 *    can slip between the phases. Single-shard ops and cross-shard
 *    transactions flow through the same launches; ops that touch a
 *    pinned key are deferred to the next round (the pin read is what
 *    orders them after the in-flight transaction). Full protocol,
 *    cost accounting and failure matrix: docs/distributed.md.
 */

#ifndef PIMSTM_HOSTAPP_DISTRIBUTED_KV_HH
#define PIMSTM_HOSTAPP_DISTRIBUTED_KV_HH

#include <memory>
#include <string>
#include <vector>

#include "core/stm.hh"
#include "runtime/boosted.hh"
#include "runtime/tx_hashmap.hh"
#include "sim/config.hh"
#include "sim/dpu.hh"

namespace pimstm::hostapp
{

/** A host-issued KV operation. */
struct KvOp
{
    enum class Type : u8
    {
        Put,
        Get,
        Erase,
    };
    Type type = Type::Get;
    u32 key = 0;
    u32 value = 0;

    static KvOp
    put(u32 key, u32 value)
    {
        return {Type::Put, key, value};
    }

    static KvOp
    get(u32 key)
    {
        return {Type::Get, key, 0};
    }

    static KvOp
    erase(u32 key)
    {
        return {Type::Erase, key, 0};
    }
};

/** Result of one KV operation. */
struct KvResult
{
    bool ok = false; ///< found / inserted / erased
    u32 value = 0;   ///< Get only
};

/**
 * A cross-shard transaction: atomically relocate @p src_key to
 * @p dst_key. Its read/write set is partitioned into one fragment per
 * involved shard (source: predicate "present", erase on commit;
 * destination: predicate "absent", insert on commit), each executed as
 * a shard-local STM transaction inside its DPU.
 */
struct CrossShardTx
{
    u32 src_key = 0;
    u32 dst_key = 0;

    static CrossShardTx
    move(u32 src_key, u32 dst_key)
    {
        return {src_key, dst_key};
    }
};

/** Outcome of one cross-shard transaction. */
struct CrossShardTxResult
{
    bool committed = false;
    u32 value = 0;          ///< relocated value, when committed
    unsigned attempts = 0;  ///< prepare attempts (1 = first try)
    bool serialized = false; ///< resolved under the serial token
};

/** Results of one mixed batch, positionally aligned with the inputs. */
struct KvBatchResult
{
    std::vector<KvResult> ops;
    std::vector<CrossShardTxResult> txs;
};

/**
 * Coordinator / participant statistics of one DistributedKv instance;
 * a bench sums its instances' stats() for the --perf-json
 * `distributed` block. Host-side observability only.
 */
struct TwoPcStats
{
    u64 batches = 0;        ///< execute() batches processed
    u64 prepare_rounds = 0; ///< op+prepare launches issued
    u64 commit_rounds = 0;  ///< decision launches (incl. re-deliveries)
    u64 tx_commits = 0;
    u64 tx_predicate_fails = 0;  ///< absent source / occupied dest
    u64 tx_conflict_retries = 0; ///< pin conflicts sent back to retry
    u64 serial_fallbacks = 0;    ///< txs resolved under the serial token
    u64 deferred_ops = 0;        ///< ops postponed by a pinned key
    u64 participant_redeliveries = 0; ///< fragments re-sent after a crash
    u64 crashes_in_prepare = 0; ///< injected crashes during prepare rounds
    u64 crashes_in_commit = 0;  ///< injected crashes during decision rounds
    u64 shard_recoveries = 0;   ///< whole-DPU shard crashes recovered
    u64 wal_persists = 0;       ///< commit decisions persisted to the WAL
    u64 decisions_replayed = 0; ///< persisted decisions replayed by recover()
    u64 bytes_down = 0;         ///< host -> DPU fragment/decision bytes
    u64 bytes_up = 0;           ///< DPU -> host result/vote/ack bytes
    double shard_busy_seconds = 0;     ///< summed per-shard simulated time
    double shard_capacity_seconds = 0; ///< num_shards x batch makespans

    /** Mean fraction of batch time the average shard spent busy. */
    double
    meanShardOccupancy() const
    {
        return shard_capacity_seconds > 0
                   ? shard_busy_seconds / shard_capacity_seconds
                   : 0.0;
    }

    /** Fold another instance's counters in. */
    TwoPcStats &
    operator+=(const TwoPcStats &o)
    {
        batches += o.batches;
        prepare_rounds += o.prepare_rounds;
        commit_rounds += o.commit_rounds;
        tx_commits += o.tx_commits;
        tx_predicate_fails += o.tx_predicate_fails;
        tx_conflict_retries += o.tx_conflict_retries;
        serial_fallbacks += o.serial_fallbacks;
        deferred_ops += o.deferred_ops;
        participant_redeliveries += o.participant_redeliveries;
        crashes_in_prepare += o.crashes_in_prepare;
        crashes_in_commit += o.crashes_in_commit;
        shard_recoveries += o.shard_recoveries;
        wal_persists += o.wal_persists;
        decisions_replayed += o.decisions_replayed;
        bytes_down += o.bytes_down;
        bytes_up += o.bytes_up;
        shard_busy_seconds += o.shard_busy_seconds;
        shard_capacity_seconds += o.shard_capacity_seconds;
        return *this;
    }
};

// operator+= names every counter: a new one must be summed there too.
static_assert(sizeof(TwoPcStats) == 16 * sizeof(u64) + 2 * sizeof(double),
              "TwoPcStats changed: update TwoPcStats::operator+=");

/** The `distributed` --perf-json block for @p s (one JSON object). */
std::string twoPcStatsJson(const TwoPcStats &s);

/** Shard a key belongs to in an @p shards-way store (host-pure;
 * independent of the in-shard slot hash so shards stay balanced). */
unsigned shardOfKey(u32 key, unsigned shards);

/** How the coordinator routes one CrossShardTx. */
enum class TxRoute : u8
{
    /** src and dst shards differ: genuine two-phase commit. */
    Cross,
    /** Both keys hash to one shard: degrade to a single shard-local
     * transaction (erase+insert atomically) — never a degenerate 2PC. */
    Local,
    /** src_key == dst_key: rejected up front (committed = false). */
    Degenerate,
};

/** Routing decision for one CrossShardTx (host-pure, unit-testable
 * without DPUs). */
struct TxPlan
{
    TxRoute route = TxRoute::Cross;
    unsigned src_shard = 0;
    unsigned dst_shard = 0;
};

/** Classify @p tx for an @p shards-way store. Keys must be valid. */
TxPlan planCrossShardTx(const CrossShardTx &tx, unsigned shards);

/** In-DPU backstop: a shard-local transaction escalates to
 * serial-irrevocable mode after this many consecutive aborts
 * (StmConfig::serial_fallback_after; off for durable shards). */
constexpr unsigned kStmSerialFallbackAfter = 64;

struct DistributedKvConfig
{
    unsigned shards = 4;
    u32 capacity_per_shard = 4096;
    core::StmKind kind = core::StmKind::NOrec;
    core::MetadataTier tier = core::MetadataTier::Wram;
    unsigned tasklets_per_dpu = 11;
    size_t mram_bytes = 4 * 1024 * 1024;
    u64 seed = 1;

    /** Fault-injection plan applied to every shard DPU (operation
     * counts accumulate across all launches of the instance, so a
     * `crash=` point fires once per shard DPU lifetime, wherever the
     * count lands — seeding, a prepare round, or a decision round). */
    sim::FaultPlan faults;

    /** Coordinator backstop: after this many pin-conflict retries a
     * cross-shard transaction takes the serial token — remaining
     * transactions resolve one at a time, which breaks any
     * deterministic conflict cycle. Must be >= 1. */
    unsigned serial_token_after = 4;

    /** Pin-table capacity per shard; bounds in-flight fragments (a
     * prepare that cannot pin votes Conflict and retries). */
    u32 max_inflight_per_shard = 64;

    /** Route shard-local map and pin-table accesses — including the
     * 2PC prepare/decision fragments — through boosted views
     * (runtime::BoostedMap, docs/boosting.md) instead of word-based
     * transactions. */
    bool boosting = false;

    /** Durable shards (StmConfig::durable, docs/durability.md): every
     * shard STM logs its commits at the MRAM persist boundary, and a
     * whole-DPU shard crash (`dpu-crash=` fault plan) is recovered
     * in-launch — unfinished fragments re-run, finished outcomes are
     * host state and survive. Forces kStmSerialFallbackAfter off
     * (incompatible with durable mode) and excludes boosting. */
    bool durable = false;
};

/** A KV store sharded over several simulated DPUs. */
class DistributedKv
{
  public:
    explicit DistributedKv(const DistributedKvConfig &cfg);
    ~DistributedKv();

    DistributedKv(const DistributedKv &) = delete;
    DistributedKv &operator=(const DistributedKv &) = delete;

    /** Shard a key belongs to. */
    unsigned shardOf(u32 key) const;

    /**
     * Execute a mixed batch: single-shard operations and cross-shard
     * transactions flow through the same launches. Operations on
     * different shards run on their DPUs in parallel (modelled, and on
     * host threads); operations on the same shard run concurrently
     * across that DPU's tasklets, isolated by the STM; cross-shard
     * transactions commit via two-phase commit over per-shard
     * fragments. Results are positionally aligned with the inputs.
     */
    KvBatchResult execute(const std::vector<KvOp> &ops,
                          const std::vector<CrossShardTx> &txs);

    /** Operations-only batch. */
    std::vector<KvResult> execute(const std::vector<KvOp> &ops);

    /**
     * Atomically relocate @p key to @p new_key (which may live on a
     * different shard) via one cross-shard transaction. Returns false
     * (and changes nothing) when @p key is absent or @p new_key
     * already exists.
     */
    bool moveKey(u32 key, u32 new_key);

    /**
     * The §3.1 serialized escape hatch the 2PC path replaces, kept as
     * the measured baseline (bench/micro_2pc.cc): probe both keys with
     * one whole-batch execute, then erase+put with another, each a
     * full pipeline drain. Semantics match moveKey.
     */
    bool moveKeySerialized(u32 key, u32 new_key);

    /** Total simulated+modelled time spent so far (seconds). */
    double elapsedSeconds() const { return elapsed_seconds_; }

    /** STM counters summed over the shards (each shard STM's whole
     * lifetime, seeding batches included). */
    core::StmStats stmStats() const;

    /** DPU counters summed over the shards and every launch so far. */
    sim::DpuStats dpuStats() const;

    /** @{ Shorthands for dpuStats() fields (perfbench/ reads these). */
    u64 simCycles() const { return dpuStats().total_cycles; }
    u64 schedSwitches() const { return dpuStats().sched_switches; }
    u64 schedElisions() const { return dpuStats().sched_elisions; }
    /** @} */

    /** 2PC statistics for this instance. */
    const TwoPcStats &stats() const { return stats_; }

    /** Simulated busy seconds of shard @p s across all launches. */
    double shardBusySeconds(unsigned s) const;

    /** Host-side exact population (verification). */
    u32 population() const;

    /** Host-side lookup without timing (verification). */
    bool peek(u32 key, u32 &value_out) const;

    /** Outstanding pins across all shards (0 when quiescent). */
    u32 livePins() const;

    /**
     * @{ Composition hooks (bench/serve_kv.cc, docs/serving.md):
     * borrow one shard's STM / DPU, e.g. to attach a per-shard
     * runtime::AdaptiveController via Dpu::setEpochHook. Callers must
     * not run the DPU themselves and must leave both quiescent
     * between execute() calls.
     */
    core::Stm &shardStm(unsigned s);
    sim::Dpu &shardDpu(unsigned s);
    /** @} */

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    //
    // Coordinator-failure test hooks (fault-injection only).
    //

    /** Where an injected coordinator crash fires inside execute(). */
    enum class CrashPoint : u8
    {
        None,
        /** After votes return, before the decision is logged: a
         * recovering coordinator finds no decision record and must
         * presume abort. */
        AfterPrepare,
        /** After the decision is logged and delivered to at most
         * @p max_decision_shards shards: recovery must re-deliver the
         * logged decision to the rest, idempotently. */
        MidDecision,
    };

    /** Thrown by execute() when the armed crash point fires. */
    struct CoordinatorCrashed
    {
    };

    /** Arm a one-shot coordinator crash for the next execute(). */
    void injectCoordinatorCrash(CrashPoint point,
                                unsigned max_decision_shards = 0);

    /** True after a coordinator crash until recover() completes;
     * execute() refuses to run in this state. */
    bool needsRecovery() const { return recovery_needed_; }

    /**
     * Coordinator recovery: walk the in-flight transaction log,
     * re-deliver logged commit decisions until every fragment has
     * applied (idempotent), and abort every undecided transaction
     * (presumed abort — release its pins). Afterwards every shard's
     * map reflects some serial order of the committed transactions
     * and all pins are released.
     */
    void recover();

  private:
    struct Shard
    {
        /** Declared first, so the STM and the views that reference
         * the DPU are destroyed before it (STMs unregister from it). */
        std::unique_ptr<sim::Dpu> dpu;
        std::unique_ptr<core::Stm> stm;
        runtime::TxHashMap map;
        runtime::TxHashMap pins; ///< key -> in-flight tx token
        /** Boosted views of map/pins; non-null iff cfg.boosting. */
        std::unique_ptr<runtime::BoostedMap> bmap;
        std::unique_ptr<runtime::BoostedMap> bpins;
        unsigned live_pins = 0;  ///< host view of committed pins
        bool pins_dirty = false; ///< pin table has tombstones to recycle
        sim::DpuStats dpu_stats; ///< summed over every launch
        double busy_seconds = 0;
    };

    struct WorkItem;
    struct Outcome;
    struct InFlight;

    /** Execute one work item as a shard-local transaction. */
    void runItem(Shard &shard, sim::DpuContext &ctx, const WorkItem &it,
                 Outcome &out, bool check_pins);

    /** Run one launch over the shards with work; returns the slowest
     * shard's simulated seconds and fills per-item outcomes. */
    double runLaunch(std::vector<std::vector<WorkItem>> &work,
                     std::vector<std::vector<Outcome>> &outcomes,
                     bool decision_launch);

    /** Charge one round's launch + transfer costs and makespan. */
    void chargeRound(const std::vector<std::vector<WorkItem>> &work,
                     double worst_shard_seconds);

    /** Deliver decisions for @p wal entries, re-delivering fragments
     * that a participant crash left unapplied. Fires the MidDecision
     * crash hook when armed. */
    void deliverDecisions(std::vector<InFlight *> &wal);

    /** Recycle quiescent dirty pin tables (tombstone cleanup). */
    void recyclePins();

    /** Persist one logged commit decision (the coordinator WAL's
     * durability seam — presumed abort needs no persisted record). */
    void persistDecision(const InFlight &f);

    /** Persisted decision for @p token, or null (presumed abort). */
    const InFlight *findPersisted(u32 token) const;

    DistributedKvConfig cfg_;
    std::vector<Shard> shards_;
    double elapsed_seconds_ = 0;
    u32 next_token_ = 1;
    TwoPcStats stats_;

    std::vector<InFlight> wal_; ///< in-flight tx log (coordinator WAL)
    /** Durable copy of logged commit decisions: persisted before any
     * delivery, truncated once every fragment has applied. recover()
     * trusts only this copy — the in-memory wal_'s vote/pin flags are
     * treated as lost with the crashed coordinator. */
    std::vector<InFlight> persisted_wal_;
    bool recovery_needed_ = false;
    CrashPoint crash_point_ = CrashPoint::None;
    unsigned crash_decision_shards_ = 0;
};

} // namespace pimstm::hostapp

#endif // PIMSTM_HOSTAPP_DISTRIBUTED_KV_HH
