/**
 * @file
 * DistributedKv implementation: host-coordinated two-phase commit over
 * per-shard transaction fragments. See the header and
 * docs/distributed.md for the protocol; the invariants the code leans
 * on are called out inline.
 */

#include "hostapp/distributed_kv.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pimstm::hostapp
{

namespace
{

// Modelled per-message link payloads (bytes). Ops carry (type, key,
// value) down and (ok, value) up; local moves carry both keys; prepare
// fragments carry (op, key, token) down and (vote, value, token) up;
// decisions carry (verdict, key, value, token) down and one ack word
// up. All rounds are batched copies, so totals feed
// sim::transferSeconds directly.
constexpr size_t kOpBytesDown = 12;
constexpr size_t kOpBytesUp = 8;
constexpr size_t kLocalMoveBytesDown = 16;
constexpr size_t kLocalMoveBytesUp = 8;
constexpr size_t kPrepareBytesDown = 16;
constexpr size_t kVoteBytesUp = 12;
constexpr size_t kDecisionBytesDown = 16;
constexpr size_t kAckBytesUp = 4;

/** Coordinator's view of one fragment's prepare outcome. */
enum class Vote : u8
{
    Missing, ///< fragment never ran (participant crash): abort + retry
    Yes,     ///< predicate holds, key pinned
    Conflict,      ///< key pinned by another tx (or pin table full)
    PredicateFail, ///< source absent / destination occupied: final
};

} // namespace

std::string
twoPcStatsJson(const TwoPcStats &s)
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"batches\": " << s.batches
      << ", \"prepare_rounds\": " << s.prepare_rounds
      << ", \"commit_rounds\": " << s.commit_rounds
      << ", \"tx_commits\": " << s.tx_commits
      << ", \"tx_predicate_fails\": " << s.tx_predicate_fails
      << ", \"tx_conflict_retries\": " << s.tx_conflict_retries
      << ", \"serial_fallbacks\": " << s.serial_fallbacks
      << ", \"deferred_ops\": " << s.deferred_ops
      << ", \"participant_redeliveries\": " << s.participant_redeliveries
      << ", \"crashes_in_prepare\": " << s.crashes_in_prepare
      << ", \"crashes_in_commit\": " << s.crashes_in_commit
      << ", \"shard_recoveries\": " << s.shard_recoveries
      << ", \"wal_persists\": " << s.wal_persists
      << ", \"decisions_replayed\": " << s.decisions_replayed
      << ", \"bytes_down\": " << s.bytes_down
      << ", \"bytes_up\": " << s.bytes_up
      << ", \"mean_shard_occupancy\": " << s.meanShardOccupancy() << "}";
    return o.str();
}

unsigned
shardOfKey(u32 key, unsigned shards)
{
    // Independent of the in-shard slot hash so shards stay balanced.
    const u32 h = (key ^ 0x9e3779b9u) * 0x85ebca6bu;
    return (h >> 16) % shards;
}

TxPlan
planCrossShardTx(const CrossShardTx &tx, unsigned shards)
{
    TxPlan p;
    p.src_shard = shardOfKey(tx.src_key, shards);
    p.dst_shard = shardOfKey(tx.dst_key, shards);
    if (tx.src_key == tx.dst_key)
        p.route = TxRoute::Degenerate;
    else if (p.src_shard == p.dst_shard)
        p.route = TxRoute::Local;
    else
        p.route = TxRoute::Cross;
    return p;
}

/** One message of a launch, executed as a shard-local transaction. */
struct DistributedKv::WorkItem
{
    enum class Kind : u8
    {
        Op,         ///< single-shard KvOp
        LocalMove,  ///< same-shard CrossShardTx (degraded, satellite 6)
        PrepareSrc, ///< 2PC fragment: predicate "present", pin
        PrepareDst, ///< 2PC fragment: predicate "absent", reserve + pin
        CommitSrc,  ///< decision: erase + unpin (idempotent on token)
        CommitDst,  ///< decision: fill reservation + unpin
        AbortSrc,   ///< decision: unpin
        AbortDst,   ///< decision: drop reservation + unpin
    };
    Kind kind = Kind::Op;
    KvOp::Type op = KvOp::Type::Get;
    u32 key = 0;
    u32 value = 0; ///< Put value / LocalMove dst key / CommitDst value
    u32 token = 0; ///< in-flight tx identity (pins store it)
    size_t slot = 0; ///< op index / tx index / WAL index (x2 + side)
};

/** What came back up the link for one work item. */
struct DistributedKv::Outcome
{
    enum class Status : u8
    {
        NotRun,   ///< tasklet crashed before this item committed
        Done,     ///< item's transaction committed
        Deferred, ///< op touched a pinned key; retry next round
    };
    Status status = Status::NotRun;
    bool ok = false;       ///< op result / prepare predicate held
    bool conflict = false; ///< prepare only: pinned by another tx
    u32 value = 0;         ///< Get result / prepared source value
};

/** Coordinator WAL entry for one cross-shard transaction attempt. */
struct DistributedKv::InFlight
{
    u32 src_key = 0;
    u32 dst_key = 0;
    u32 value = 0; ///< source value captured at prepare
    u32 token = 0;
    unsigned src_shard = 0;
    unsigned dst_shard = 0;
    size_t tx_index = 0; ///< position in the caller's txs vector
    bool decided = false; ///< decision logged (the WAL write)
    bool commit = false;
    bool src_pinned = false; ///< prepare voted Yes (pin exists)
    bool dst_pinned = false;
    bool src_done = false; ///< decision fragment applied + acked
    bool dst_done = false;
};

DistributedKv::DistributedKv(const DistributedKvConfig &cfg) : cfg_(cfg)
{
    fatalIf(cfg.shards == 0, "DistributedKv needs at least one shard");
    fatalIf(cfg.serial_token_after == 0,
            "serial_token_after must be >= 1");
    fatalIf(cfg.max_inflight_per_shard == 0,
            "max_inflight_per_shard must be >= 1");
    fatalIf(cfg.durable && cfg.boosting,
            "durable shards are incompatible with boosting "
            "(semantic undo logs are not crash-redoable)");

    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = cfg.mram_bytes;
    dpu_cfg.seed = deriveSeed(cfg.seed, 0x6b76);
    dpu_cfg.faults = cfg.faults;

    u32 pin_cap = 16;
    while (pin_cap < 2 * cfg.max_inflight_per_shard)
        pin_cap <<= 1;

    shards_.resize(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
        auto &shard = shards_[s];
        sim::DpuConfig shard_dpu_cfg = dpu_cfg;
        shard_dpu_cfg.seed = deriveSeed(dpu_cfg.seed, 0xD9u, s);
        shard.dpu = std::make_unique<sim::Dpu>(shard_dpu_cfg);

        core::StmConfig stm_cfg;
        stm_cfg.kind = cfg.kind;
        stm_cfg.metadata_tier = cfg.tier;
        stm_cfg.num_tasklets = cfg.tasklets_per_dpu;
        // Probe chains bound the footprint of one operation; at sane
        // load factors they stay short, so cap the reservation rather
        // than provisioning for a full-table probe (an overflow would
        // still fail loudly via the descriptor capacity check). Pin
        // tables are recycled while quiescent, so their chains stay
        // bounded by the in-flight count.
        stm_cfg.max_read_set = std::min<u32>(
            2 * cfg.capacity_per_shard + 4 * cfg.max_inflight_per_shard +
                24,
            256);
        stm_cfg.max_write_set = 8;
        stm_cfg.data_words_hint = cfg.capacity_per_shard * 2 + pin_cap * 2;
        stm_cfg.serial_fallback_after =
            cfg.durable ? 0 : kStmSerialFallbackAfter;
        stm_cfg.boosting = cfg.boosting;
        stm_cfg.durable = cfg.durable;
        shard.stm = std::make_unique<core::Stm>(*shard.dpu, stm_cfg);

        shard.map = runtime::TxHashMap(*shard.dpu, sim::Tier::Mram,
                                       cfg.capacity_per_shard);
        shard.pins =
            runtime::TxHashMap(*shard.dpu, sim::Tier::Mram, pin_cap);
        if (cfg.boosting) {
            shard.bmap = std::make_unique<runtime::BoostedMap>(
                *shard.dpu, *shard.stm, shard.map, 64,
                core::StructureId::KvMap);
            shard.bpins = std::make_unique<runtime::BoostedMap>(
                *shard.dpu, *shard.stm, shard.pins, 64,
                core::StructureId::KvPins);
        }
        // The hash-map bucket image is host-loaded after the Stm armed
        // persist tracking; fence it so a crash in the first launch
        // cannot revert the table structure to zeroes.
        if (cfg.durable)
            shard.dpu->mram().fence();
    }
}

DistributedKv::~DistributedKv() = default;

unsigned
DistributedKv::shardOf(u32 key) const
{
    return shardOfKey(key, static_cast<unsigned>(shards_.size()));
}

void
DistributedKv::runItem(Shard &shard, sim::DpuContext &ctx,
                       const WorkItem &it, Outcome &out, bool check_pins)
{
    // The body may retry: build the outcome in a local and publish it
    // only after the transaction commits, so a crashed (unwound) item
    // stays NotRun and an aborted attempt leaves no stale fields.
    Outcome tmp;
    core::atomically(*shard.stm, ctx, [&](core::TxHandle &tx) {
        tmp = Outcome{};
        u32 tok = 0;
        u32 v = 0;
        // Same fragment logic either way; boosting only swaps the
        // isolation mechanism (key-granular abstract locks instead of
        // word-based read/write sets).
        const bool boosted = shard.bmap != nullptr;
        const auto mapInsert = [&](u32 k, u32 val) {
            return boosted ? shard.bmap->insert(tx, k, val)
                           : shard.map.insert(tx, k, val);
        };
        const auto mapLookup = [&](u32 k, u32 &out_v) {
            return boosted ? shard.bmap->lookup(tx, k, out_v)
                           : shard.map.lookup(tx, k, out_v);
        };
        const auto mapErase = [&](u32 k) {
            return boosted ? shard.bmap->erase(tx, k)
                           : shard.map.erase(tx, k);
        };
        const auto pinLookup = [&](u32 k, u32 &out_v) {
            return boosted ? shard.bpins->lookup(tx, k, out_v)
                           : shard.pins.lookup(tx, k, out_v);
        };
        const auto pinInsert = [&](u32 k, u32 val) {
            return boosted ? shard.bpins->insert(tx, k, val)
                           : shard.pins.insert(tx, k, val);
        };
        const auto pinErase = [&](u32 k) {
            return boosted ? shard.bpins->erase(tx, k)
                           : shard.pins.erase(tx, k);
        };
        switch (it.kind) {
          case WorkItem::Kind::Op:
            // Reading the pin slot is what orders this op after the
            // in-flight cross-shard transaction: if the pin commits
            // first we defer; if we commit first, the prepare's pin
            // insert conflicts with this read and the STM retries one
            // of the two.
            if (check_pins && pinLookup(it.key, tok)) {
                tmp.status = Outcome::Status::Deferred;
                return;
            }
            switch (it.op) {
              case KvOp::Type::Put:
                tmp.ok = mapInsert(it.key, it.value);
                break;
              case KvOp::Type::Get:
                tmp.ok = mapLookup(it.key, tmp.value);
                break;
              case KvOp::Type::Erase:
                tmp.ok = mapErase(it.key);
                break;
            }
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::LocalMove:
            // Same-shard movek: one shard-local transaction, never a
            // degenerate 2PC. key = src, value = dst key.
            if (check_pins && (pinLookup(it.key, tok) ||
                               pinLookup(it.value, tok))) {
                tmp.status = Outcome::Status::Deferred;
                return;
            }
            if (!mapLookup(it.key, v) ||
                mapLookup(it.value, tok)) {
                tmp.status = Outcome::Status::Done; // predicate fail
                return;
            }
            // Insert before erase: a full-table insert failure must
            // leave the source untouched.
            if (!mapInsert(it.value, v)) {
                tmp.status = Outcome::Status::Done;
                return;
            }
            mapErase(it.key);
            tmp.ok = true;
            tmp.value = v;
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::PrepareSrc:
            if (pinLookup(it.key, tok)) {
                if (tok == it.token) {
                    // Re-run after a recovered shard crash: our pin
                    // from the interrupted round committed durably.
                    // Re-vote Yes, idempotently.
                    mapLookup(it.key, v);
                    tmp.ok = true;
                    tmp.value = v;
                    tmp.status = Outcome::Status::Done;
                    return;
                }
                tmp.conflict = true;
                tmp.status = Outcome::Status::Done;
                return;
            }
            if (!mapLookup(it.key, v)) {
                tmp.status = Outcome::Status::Done; // predicate fail
                return;
            }
            if (!pinInsert(it.key, it.token)) {
                tmp.conflict = true; // pin table full: retryable
                tmp.status = Outcome::Status::Done;
                return;
            }
            tmp.ok = true;
            tmp.value = v;
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::PrepareDst:
            if (pinLookup(it.key, tok)) {
                if (tok == it.token) {
                    // Idempotent re-vote: reservation + pin survived
                    // the recovered crash.
                    tmp.ok = true;
                    tmp.status = Outcome::Status::Done;
                    return;
                }
                tmp.conflict = true;
                tmp.status = Outcome::Status::Done;
                return;
            }
            if (mapLookup(it.key, v)) {
                tmp.status = Outcome::Status::Done; // occupied: fail
                return;
            }
            // Reserve the slot now so the later commit is a guaranteed
            // overwrite — a commit must never fail on a full table.
            if (!mapInsert(it.key, 0)) {
                tmp.status = Outcome::Status::Done; // full: fail
                return;
            }
            if (!pinInsert(it.key, it.token)) {
                mapErase(it.key); // undo the reservation
                tmp.conflict = true;
                tmp.status = Outcome::Status::Done;
                return;
            }
            tmp.ok = true;
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::CommitSrc:
            // Decisions are idempotent, keyed on the pin token: a
            // re-delivered fragment finds its pin gone and acks.
            if (pinLookup(it.key, tok) && tok == it.token) {
                mapErase(it.key);
                pinErase(it.key);
                tmp.ok = true;
            }
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::CommitDst:
            if (pinLookup(it.key, tok) && tok == it.token) {
                mapInsert(it.key, it.value);
                pinErase(it.key);
                tmp.ok = true;
            }
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::AbortSrc:
            if (pinLookup(it.key, tok) && tok == it.token) {
                pinErase(it.key);
                tmp.ok = true;
            }
            tmp.status = Outcome::Status::Done;
            break;

          case WorkItem::Kind::AbortDst:
            if (pinLookup(it.key, tok) && tok == it.token) {
                mapErase(it.key); // drop the reservation
                pinErase(it.key);
                tmp.ok = true;
            }
            tmp.status = Outcome::Status::Done;
            break;
        }
    });
    out = tmp;
}

double
DistributedKv::runLaunch(std::vector<std::vector<WorkItem>> &work,
                         std::vector<std::vector<Outcome>> &outcomes,
                         bool decision_launch)
{
    std::vector<unsigned> involved;
    for (unsigned s = 0; s < shards_.size(); ++s)
        if (!work[s].empty())
            involved.push_back(s);
    if (involved.empty())
        return 0.0;

    struct ShardRun
    {
        double seconds = 0;
        u64 crashes = 0;
        u64 dpu_crashes = 0;
    };
    std::vector<ShardRun> runs(involved.size());

    // Involved DPUs run concurrently on host threads; each result lands
    // in its own slot, so output is identical for any --jobs value.
    util::parallelFor(involved.size(), [&](size_t ii) {
        const unsigned s = involved[ii];
        Shard &shard = shards_[s];
        auto &items = work[s];
        auto &outs = outcomes[s];
        outs.assign(items.size(), Outcome{});

        // Ops must read the pin table whenever a pin could exist during
        // this launch: either one survives from an earlier round, or a
        // prepare fragment in this very launch may create one.
        bool check_pins = shard.live_pins > 0;
        for (const auto &it : items)
            check_pins = check_pins ||
                         it.kind == WorkItem::Kind::PrepareSrc ||
                         it.kind == WorkItem::Kind::PrepareDst;

        // Keep fault-injection op counts across the batch's launches so
        // a crash point fires once per batch, not once per round.
        shard.dpu->resetRun(/*reset_faults=*/false);

        // Round-robin slices: tasklet t handles items[t], [t+T], ...
        // Items already Done are skipped — that makes the bodies
        // re-registrable after a recovered whole-DPU crash, where
        // finished outcomes are host state and survive.
        const unsigned tasklets = static_cast<unsigned>(
            std::min<size_t>(cfg_.tasklets_per_dpu, items.size()));
        const auto add_bodies = [&] {
            for (unsigned t = 0; t < tasklets; ++t) {
                shard.dpu->addTasklet([this, &shard, &items, &outs, t,
                                       tasklets,
                                       check_pins](sim::DpuContext &ctx) {
                    for (size_t i = t; i < items.size(); i += tasklets)
                        if (outs[i].status == Outcome::Status::NotRun)
                            runItem(shard, ctx, items[i], outs[i],
                                    check_pins);
                });
            }
        };
        const auto charge_round = [&] {
            const auto &st = shard.dpu->stats();
            shard.dpu_stats += st;
            const double secs = sim::cyclesToSeconds(st.total_cycles);
            shard.busy_seconds += secs;
            runs[ii].seconds += secs;
            for (const auto &f : shard.dpu->taskletFaults())
                if (f.injected_crash)
                    ++runs[ii].crashes;
        };
        add_bodies();
        for (;;) {
            try {
                shard.dpu->run();
                charge_round();
                break;
            } catch (const sim::DpuCrashError &) {
                // Whole-DPU shard crash. Without durable shards the
                // store is gone — propagate. With them, recover the
                // shard from its durable log and re-run the launch's
                // unfinished items (dpu-crash points are one-shot per
                // DPU lifetime, so this terminates).
                if (!cfg_.durable)
                    throw;
                charge_round();
                ++runs[ii].dpu_crashes;
                shard.dpu->resetRun(/*reset_faults=*/false);
                shard.stm->recoverAfterCrash();
                add_bodies();
            }
        }
    });

    double worst = 0.0;
    for (const auto &r : runs) {
        worst = std::max(worst, r.seconds);
        stats_.shard_busy_seconds += r.seconds;
        stats_.shard_recoveries += r.dpu_crashes;
        if (decision_launch)
            stats_.crashes_in_commit += r.crashes;
        else
            stats_.crashes_in_prepare += r.crashes;
    }
    return worst;
}

void
DistributedKv::chargeRound(const std::vector<std::vector<WorkItem>> &work,
                           double worst_shard_seconds)
{
    size_t down = 0;
    size_t up = 0;
    for (const auto &items : work) {
        for (const auto &it : items) {
            switch (it.kind) {
              case WorkItem::Kind::Op:
                down += kOpBytesDown;
                up += kOpBytesUp;
                break;
              case WorkItem::Kind::LocalMove:
                down += kLocalMoveBytesDown;
                up += kLocalMoveBytesUp;
                break;
              case WorkItem::Kind::PrepareSrc:
              case WorkItem::Kind::PrepareDst:
                down += kPrepareBytesDown;
                up += kVoteBytesUp;
                break;
              default:
                down += kDecisionBytesDown;
                up += kAckBytesUp;
                break;
            }
        }
    }
    const double t = sim::kLaunchOverheadSeconds +
                     sim::transferSeconds(static_cast<double>(down)) +
                     sim::transferSeconds(static_cast<double>(up)) +
                     worst_shard_seconds;
    elapsed_seconds_ += t;
    stats_.bytes_down += down;
    stats_.bytes_up += up;
    stats_.shard_capacity_seconds +=
        static_cast<double>(shards_.size()) * t;
}

void
DistributedKv::deliverDecisions(std::vector<InFlight *> &wal)
{
    if (wal.empty())
        return;
    const bool crash_mid = crash_point_ == CrashPoint::MidDecision;

    for (size_t round = 0;; ++round) {
        panicIf(round > 200 + shards_.size(),
                "2PC decision delivery made no progress");

        std::vector<std::vector<WorkItem>> work(shards_.size());
        std::vector<std::vector<Outcome>> outs(shards_.size());
        for (size_t wi = 0; wi < wal.size(); ++wi) {
            const InFlight &f = *wal[wi];
            // Abort fragments exist only where a pin does; slot encodes
            // (WAL index, side) so acks can clear the done flags.
            if ((f.commit || f.src_pinned) && !f.src_done) {
                WorkItem it;
                it.kind = f.commit ? WorkItem::Kind::CommitSrc
                                   : WorkItem::Kind::AbortSrc;
                it.key = f.src_key;
                it.token = f.token;
                it.slot = wi * 2;
                work[f.src_shard].push_back(it);
            }
            if ((f.commit || f.dst_pinned) && !f.dst_done) {
                WorkItem it;
                it.kind = f.commit ? WorkItem::Kind::CommitDst
                                   : WorkItem::Kind::AbortDst;
                it.key = f.dst_key;
                it.value = f.value;
                it.token = f.token;
                it.slot = wi * 2 + 1;
                work[f.dst_shard].push_back(it);
            }
        }

        // MidDecision coordinator crash: deliver to only the first
        // crash_decision_shards_ involved shards, then die.
        if (crash_mid) {
            unsigned kept = 0;
            for (unsigned s = 0; s < shards_.size(); ++s) {
                if (work[s].empty())
                    continue;
                if (kept >= crash_decision_shards_)
                    work[s].clear();
                else
                    ++kept;
            }
        }

        size_t item_count = 0;
        for (const auto &items : work)
            item_count += items.size();

        if (item_count > 0) {
            if (round > 0)
                stats_.participant_redeliveries += item_count;
            ++stats_.commit_rounds;
            const double worst =
                runLaunch(work, outs, /*decision_launch=*/true);
            chargeRound(work, worst);

            for (unsigned s = 0; s < shards_.size(); ++s) {
                for (size_t i = 0; i < work[s].size(); ++i) {
                    if (outs[s][i].status != Outcome::Status::Done)
                        continue; // participant crash: re-deliver
                    InFlight &f = *wal[work[s][i].slot / 2];
                    if (work[s][i].slot % 2 == 0)
                        f.src_done = true;
                    else
                        f.dst_done = true;
                    // ok reports that the decision transaction found
                    // and released the pin; an idempotent re-delivery
                    // that found it gone must not double-count.
                    if (outs[s][i].ok) {
                        panicIf(shards_[s].live_pins == 0,
                                "2PC pin accounting underflow");
                        --shards_[s].live_pins;
                    }
                }
            }
        }

        if (crash_mid) {
            crash_point_ = CrashPoint::None;
            recovery_needed_ = true;
            throw CoordinatorCrashed{};
        }
        if (item_count == 0)
            return;
    }
}

KvBatchResult
DistributedKv::execute(const std::vector<KvOp> &ops,
                       const std::vector<CrossShardTx> &txs)
{
    fatalIf(recovery_needed_, "DistributedKv::execute after a "
                              "coordinator crash: call recover() first");

    KvBatchResult result;
    result.ops.resize(ops.size());
    result.txs.resize(txs.size());

    for (const auto &op : ops)
        fatalIf(!runtime::TxHashMap::validKey(op.key),
                "invalid key in KV batch");

    const unsigned num_shards = numShards();
    std::vector<TxPlan> plans(txs.size());
    std::vector<size_t> pending_cross;
    std::vector<size_t> pending_local;
    for (size_t i = 0; i < txs.size(); ++i) {
        fatalIf(!runtime::TxHashMap::validKey(txs[i].src_key) ||
                    !runtime::TxHashMap::validKey(txs[i].dst_key),
                "invalid key in cross-shard transaction");
        plans[i] = planCrossShardTx(txs[i], num_shards);
        switch (plans[i].route) {
          case TxRoute::Degenerate:
            break; // refused up front: committed = false, attempts = 0
          case TxRoute::Local:
            pending_local.push_back(i);
            break;
          case TxRoute::Cross:
            pending_cross.push_back(i);
            break;
        }
    }
    std::vector<size_t> pending_ops(ops.size());
    for (size_t i = 0; i < ops.size(); ++i)
        pending_ops[i] = i;

    if (pending_ops.empty() && pending_local.empty() &&
        pending_cross.empty())
        return result;

    ++stats_.batches;
    std::vector<unsigned> attempts(txs.size(), 0);
    bool serial_mode = false;
    size_t guard = 0;
    const size_t guard_limit = 1000 + 10 * (ops.size() + txs.size());

    while (!pending_ops.empty() || !pending_local.empty() ||
           !pending_cross.empty()) {
        panicIf(++guard > guard_limit,
                "2PC coordinator made no progress");

        // Under the serial token only the oldest cross-shard tx runs —
        // one tx alone cannot pin-conflict, which breaks deterministic
        // conflict cycles (the coordinator-level backstop).
        std::vector<size_t> round_cross =
            (serial_mode && pending_cross.size() > 1)
                ? std::vector<size_t>{pending_cross.front()}
                : pending_cross;

        wal_.clear();
        wal_.reserve(round_cross.size());
        for (size_t ti : round_cross) {
            InFlight f;
            f.src_key = txs[ti].src_key;
            f.dst_key = txs[ti].dst_key;
            f.token = next_token_++;
            f.src_shard = plans[ti].src_shard;
            f.dst_shard = plans[ti].dst_shard;
            f.tx_index = ti;
            ++attempts[ti];
            wal_.push_back(f);
        }

        // One launch carries this round's ops, local moves and prepare
        // fragments together — single-shard traffic is not stalled by
        // in-flight 2PC.
        std::vector<std::vector<WorkItem>> work(shards_.size());
        std::vector<std::vector<Outcome>> outs(shards_.size());
        for (size_t oi : pending_ops) {
            WorkItem it;
            it.kind = WorkItem::Kind::Op;
            it.op = ops[oi].type;
            it.key = ops[oi].key;
            it.value = ops[oi].value;
            it.slot = oi;
            work[shardOf(ops[oi].key)].push_back(it);
        }
        for (size_t ti : pending_local) {
            WorkItem it;
            it.kind = WorkItem::Kind::LocalMove;
            it.key = txs[ti].src_key;
            it.value = txs[ti].dst_key;
            it.slot = ti;
            ++attempts[ti];
            work[plans[ti].src_shard].push_back(it);
        }
        for (size_t wi = 0; wi < wal_.size(); ++wi) {
            const InFlight &f = wal_[wi];
            WorkItem src;
            src.kind = WorkItem::Kind::PrepareSrc;
            src.key = f.src_key;
            src.token = f.token;
            src.slot = wi;
            work[f.src_shard].push_back(src);
            WorkItem dst;
            dst.kind = WorkItem::Kind::PrepareDst;
            dst.key = f.dst_key;
            dst.token = f.token;
            dst.slot = wi;
            work[f.dst_shard].push_back(dst);
        }

        ++stats_.prepare_rounds;
        const double worst =
            runLaunch(work, outs, /*decision_launch=*/false);
        chargeRound(work, worst);

        // Collect results. Deferred and not-run (crashed-tasklet) items
        // simply stay pending for the next round.
        std::vector<size_t> next_ops;
        std::vector<size_t> next_local;
        std::vector<Vote> src_votes(wal_.size(), Vote::Missing);
        std::vector<Vote> dst_votes(wal_.size(), Vote::Missing);
        for (unsigned s = 0; s < shards_.size(); ++s) {
            for (size_t i = 0; i < work[s].size(); ++i) {
                const WorkItem &it = work[s][i];
                const Outcome &o = outs[s][i];
                switch (it.kind) {
                  case WorkItem::Kind::Op:
                    if (o.status == Outcome::Status::Done) {
                        result.ops[it.slot] = {o.ok, o.value};
                    } else {
                        next_ops.push_back(it.slot);
                        if (o.status == Outcome::Status::Deferred)
                            ++stats_.deferred_ops;
                    }
                    break;
                  case WorkItem::Kind::LocalMove:
                    if (o.status == Outcome::Status::Done) {
                        CrossShardTxResult r;
                        r.committed = o.ok;
                        r.value = o.value;
                        r.attempts = attempts[it.slot];
                        result.txs[it.slot] = r;
                        if (o.ok)
                            ++stats_.tx_commits;
                        else
                            ++stats_.tx_predicate_fails;
                    } else {
                        next_local.push_back(it.slot);
                        if (o.status == Outcome::Status::Deferred)
                            ++stats_.deferred_ops;
                    }
                    break;
                  case WorkItem::Kind::PrepareSrc:
                  case WorkItem::Kind::PrepareDst: {
                    const Vote v = o.status != Outcome::Status::Done
                                       ? Vote::Missing
                                   : o.ok        ? Vote::Yes
                                   : o.conflict ? Vote::Conflict
                                                : Vote::PredicateFail;
                    InFlight &f = wal_[it.slot];
                    if (it.kind == WorkItem::Kind::PrepareSrc) {
                        src_votes[it.slot] = v;
                        if (v == Vote::Yes) {
                            f.src_pinned = true;
                            f.value = o.value;
                            ++shards_[s].live_pins;
                            shards_[s].pins_dirty = true;
                        }
                    } else {
                        dst_votes[it.slot] = v;
                        if (v == Vote::Yes) {
                            f.dst_pinned = true;
                            ++shards_[s].live_pins;
                            shards_[s].pins_dirty = true;
                        }
                    }
                    break;
                  }
                  default:
                    panic("decision item in a prepare launch");
                }
            }
        }
        std::sort(next_ops.begin(), next_ops.end());
        std::sort(next_local.begin(), next_local.end());
        pending_ops = std::move(next_ops);
        pending_local = std::move(next_local);

        // Coordinator crash hook: die after votes, before any decision
        // is logged — recovery must presume abort.
        if (crash_point_ == CrashPoint::AfterPrepare && !wal_.empty()) {
            crash_point_ = CrashPoint::None;
            recovery_needed_ = true;
            throw CoordinatorCrashed{};
        }

        // Decide: commit iff both fragments voted Yes. Logging the
        // decision (f.decided/f.commit in the WAL) happens before any
        // delivery, so a MidDecision crash can re-deliver it.
        std::vector<size_t> next_cross;
        std::vector<InFlight *> decided;
        decided.reserve(wal_.size());
        for (size_t wi = 0; wi < wal_.size(); ++wi) {
            InFlight &f = wal_[wi];
            const size_t ti = f.tx_index;
            const Vote sv = src_votes[wi];
            const Vote dv = dst_votes[wi];
            f.decided = true;
            if (sv == Vote::Yes && dv == Vote::Yes) {
                f.commit = true;
                // The WAL write: the commit decision is durable before
                // any fragment is delivered (presumed abort needs no
                // record for the other outcomes).
                persistDecision(f);
                CrossShardTxResult r;
                r.committed = true;
                r.value = f.value;
                r.attempts = attempts[ti];
                r.serialized = serial_mode;
                result.txs[ti] = r;
                ++stats_.tx_commits;
                if (serial_mode)
                    ++stats_.serial_fallbacks;
            } else if (sv == Vote::PredicateFail ||
                       dv == Vote::PredicateFail) {
                CrossShardTxResult r;
                r.committed = false;
                r.attempts = attempts[ti];
                r.serialized = serial_mode;
                result.txs[ti] = r;
                ++stats_.tx_predicate_fails;
                if (serial_mode)
                    ++stats_.serial_fallbacks;
            } else {
                // Pin conflict or participant crash: abort this
                // attempt (releasing whatever it pinned) and retry.
                next_cross.push_back(ti);
                ++stats_.tx_conflict_retries;
                if (attempts[ti] >= cfg_.serial_token_after)
                    serial_mode = true;
            }
            decided.push_back(&f);
        }
        for (size_t ti : pending_cross) {
            // Txs parked by the serial token stay pending.
            bool in_round = false;
            for (size_t rt : round_cross)
                in_round = in_round || rt == ti;
            if (!in_round)
                next_cross.push_back(ti);
        }
        std::sort(next_cross.begin(), next_cross.end());
        pending_cross = std::move(next_cross);

        deliverDecisions(decided);
        wal_.clear();
        // Every fragment of every persisted decision has applied and
        // acked: truncate the coordinator WAL.
        persisted_wal_.clear();
    }

    recyclePins();
    return result;
}

std::vector<KvResult>
DistributedKv::execute(const std::vector<KvOp> &ops)
{
    return execute(ops, {}).ops;
}

bool
DistributedKv::moveKey(u32 key, u32 new_key)
{
    const auto r = execute({}, {CrossShardTx::move(key, new_key)});
    return r.txs[0].committed;
}

bool
DistributedKv::moveKeySerialized(u32 key, u32 new_key)
{
    fatalIf(!runtime::TxHashMap::validKey(key) ||
                !runtime::TxHashMap::validKey(new_key),
            "invalid key in moveKey");
    if (key == new_key)
        return false;

    // CPU-coordinated sequence (§3.1): each step is one DPU-local
    // transaction; the host serializes the steps. Nothing else runs
    // between steps, so the relocation is atomic w.r.t. every other
    // host-issued operation — at the price of two full pipeline drains
    // per movek.
    const auto probe = execute({KvOp::get(key), KvOp::get(new_key)});
    if (!probe[0].ok || probe[1].ok)
        return false;
    const auto commit = execute(
        {KvOp::erase(key), KvOp::put(new_key, probe[0].value)});
    panicIf(!commit[0].ok || !commit[1].ok,
            "moveKey lost a step despite host serialization");
    return true;
}

void
DistributedKv::injectCoordinatorCrash(CrashPoint point,
                                      unsigned max_decision_shards)
{
    crash_point_ = point;
    crash_decision_shards_ = max_decision_shards;
}

void
DistributedKv::persistDecision(const InFlight &f)
{
    // Model of the durable write: the copy keeps only what recovery
    // may trust — identity, routing and the verdict. Vote/pin flags
    // and delivery progress are coordinator memory and die with it.
    InFlight p;
    p.src_key = f.src_key;
    p.dst_key = f.dst_key;
    p.value = f.value;
    p.token = f.token;
    p.src_shard = f.src_shard;
    p.dst_shard = f.dst_shard;
    p.tx_index = f.tx_index;
    p.decided = true;
    p.commit = f.commit;
    persisted_wal_.push_back(p);
    ++stats_.wal_persists;
}

const DistributedKv::InFlight *
DistributedKv::findPersisted(u32 token) const
{
    for (const auto &p : persisted_wal_)
        if (p.token == token)
            return &p;
    return nullptr;
}

void
DistributedKv::recover()
{
    crash_point_ = CrashPoint::None;
    crash_decision_shards_ = 0;
    if (!recovery_needed_)
        return;

    // Rebuild the recovery set from the persisted WAL: a transaction
    // with a persisted record replays its logged commit; any other is
    // presumed aborted. The crashed coordinator's vote/pin flags and
    // delivery progress are not trusted — abort fragments go to both
    // sides regardless (idempotent on the pin token), and re-delivered
    // commit fragments that find their pin gone ack as no-ops.
    for (auto &f : wal_) {
        if (const InFlight *p = findPersisted(f.token)) {
            f.decided = true;
            f.commit = p->commit;
            f.src_done = false;
            f.dst_done = false;
            ++stats_.decisions_replayed;
        } else {
            f.decided = true;
            f.commit = false;
            f.src_pinned = true; // conservative: abort both sides
            f.dst_pinned = true;
            f.src_done = false;
            f.dst_done = false;
        }
    }
    // Pin bookkeeping is coordinator memory too: recount from the pin
    // tables themselves so delivery's release accounting stays exact.
    for (auto &shard : shards_) {
        shard.live_pins = shard.pins.population(*shard.dpu);
        shard.pins_dirty = shard.pins_dirty || shard.live_pins > 0;
    }
    std::vector<InFlight *> ptrs;
    ptrs.reserve(wal_.size());
    for (auto &f : wal_)
        ptrs.push_back(&f);
    deliverDecisions(ptrs);
    wal_.clear();
    persisted_wal_.clear();
    recovery_needed_ = false;
    recyclePins();
}

void
DistributedKv::recyclePins()
{
    // Tombstones from released pins would grow probe chains without
    // bound across batches; while a shard is quiescent the host resets
    // its pin table (a DPU-idle MRAM copy, charged per capacity).
    double bytes = 0;
    for (auto &shard : shards_) {
        if (!shard.pins_dirty || shard.live_pins != 0)
            continue;
        shard.pins.clear(*shard.dpu);
        shard.pins_dirty = false;
        bytes += static_cast<double>(shard.pins.capacity()) * 8;
    }
    if (bytes > 0)
        elapsed_seconds_ += sim::transferSeconds(bytes);
}

core::StmStats
DistributedKv::stmStats() const
{
    core::StmStats sum;
    for (const auto &s : shards_)
        sum += s.stm->stats();
    return sum;
}

sim::DpuStats
DistributedKv::dpuStats() const
{
    sim::DpuStats sum;
    for (const auto &s : shards_)
        sum += s.dpu_stats;
    return sum;
}

double
DistributedKv::shardBusySeconds(unsigned s) const
{
    panicIf(s >= shards_.size(), "shard index out of range");
    return shards_[s].busy_seconds;
}

u32
DistributedKv::population() const
{
    u32 n = 0;
    for (const auto &s : shards_)
        n += s.map.population(*s.dpu);
    return n;
}

bool
DistributedKv::peek(u32 key, u32 &value_out) const
{
    const auto &s = shards_[shardOf(key)];
    return s.map.peekValue(*s.dpu, key, value_out);
}

u32
DistributedKv::livePins() const
{
    u32 n = 0;
    for (const auto &s : shards_)
        n += s.live_pins;
    return n;
}

core::Stm &
DistributedKv::shardStm(unsigned s)
{
    panicIf(s >= shards_.size(), "shardStm: shard out of range");
    return *shards_[s].stm;
}

sim::Dpu &
DistributedKv::shardDpu(unsigned s)
{
    panicIf(s >= shards_.size(), "shardDpu: shard out of range");
    return *shards_[s].dpu;
}

} // namespace pimstm::hostapp
