#include "core/stm.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <ostream>
#include <utility>

#include "core/algorithm.hh"
#include "core/durable_log.hh"
#include "core/norec.hh"
#include "core/tiny.hh"
#include "core/vr.hh"
#include "util/logging.hh"

namespace pimstm::core
{

namespace
{

/** The algorithm implementing @p kind, bound to the engine @p stm:
 * the runtime analogue of the paper's compile-time algorithm-selection
 * macros. */
std::unique_ptr<StmAlgorithm>
makeAlgorithm(Stm &stm, StmKind kind)
{
    switch (kind) {
      case StmKind::NOrec:
        return std::make_unique<NOrecAlgorithm>(stm);
      case StmKind::TinyEtlWb:
      case StmKind::TinyEtlWt:
      case StmKind::TinyCtlWb:
      case StmKind::Tl2:
        return std::make_unique<TinyAlgorithm>(stm, kind);
      case StmKind::VrEtlWb:
      case StmKind::VrEtlWt:
      case StmKind::VrCtlWb:
        return std::make_unique<VrAlgorithm>(stm, kind);
      default:
        fatal("unknown StmKind ", static_cast<int>(kind));
    }
}

// Process-wide tx-set index counters; folded in by Stm::~Stm.
std::atomic<u64> g_idx_lookups{0};
std::atomic<u64> g_idx_probes{0};
std::atomic<u64> g_idx_inserts{0};
std::atomic<u64> g_idx_max_probe{0};

void
accumulateIndexStats(const util::EpochIndexStats &s)
{
    g_idx_lookups.fetch_add(s.lookups, std::memory_order_relaxed);
    g_idx_probes.fetch_add(s.probes, std::memory_order_relaxed);
    g_idx_inserts.fetch_add(s.inserts, std::memory_order_relaxed);
    u64 prev = g_idx_max_probe.load(std::memory_order_relaxed);
    while (prev < s.max_probe &&
           !g_idx_max_probe.compare_exchange_weak(
               prev, s.max_probe, std::memory_order_relaxed)) {
    }
}

} // namespace

TxIndexTotals
txIndexTotals()
{
    TxIndexTotals t;
    t.lookups = g_idx_lookups.load(std::memory_order_relaxed);
    t.probes = g_idx_probes.load(std::memory_order_relaxed);
    t.inserts = g_idx_inserts.load(std::memory_order_relaxed);
    t.max_probe = g_idx_max_probe.load(std::memory_order_relaxed);
    return t;
}

const char *
stmKindName(StmKind kind)
{
    switch (kind) {
      case StmKind::NOrec: return "NOrec";
      case StmKind::TinyEtlWb: return "Tiny ETLWB";
      case StmKind::TinyEtlWt: return "Tiny ETLWT";
      case StmKind::TinyCtlWb: return "Tiny CTLWB";
      case StmKind::VrEtlWb: return "VR ETLWB";
      case StmKind::VrEtlWt: return "VR ETLWT";
      case StmKind::VrCtlWb: return "VR CTLWB";
      case StmKind::Tl2: return "TL2";
      default: return "?";
    }
}

const std::vector<StmKind> &
allStmKinds()
{
    static const std::vector<StmKind> kinds = {
        StmKind::NOrec,
        StmKind::TinyEtlWb,
        StmKind::TinyEtlWt,
        StmKind::TinyCtlWb,
        StmKind::VrEtlWb,
        StmKind::VrEtlWt,
        StmKind::VrCtlWb,
    };
    return kinds;
}

const std::vector<StmKind> &
allStmKindsExtended()
{
    static const std::vector<StmKind> kinds = [] {
        std::vector<StmKind> all = allStmKinds();
        all.push_back(StmKind::Tl2);
        return all;
    }();
    return kinds;
}

//
// TxHandle
//

u32
TxHandle::read(Addr a)
{
    return stm_.txRead(ctx_, tx_, a);
}

void
TxHandle::write(Addr a, u32 v)
{
    stm_.txWrite(ctx_, tx_, a, v);
}

float
TxHandle::readFloat(Addr a)
{
    return std::bit_cast<float>(read(a));
}

void
TxHandle::writeFloat(Addr a, float v)
{
    write(a, std::bit_cast<u32>(v));
}

void
TxHandle::retry()
{
    stm_.txAbort(ctx_, tx_, AbortReason::UserAbort);
}

//
// Stm base
//

Stm::Stm(sim::Dpu &dpu, const StmConfig &cfg,
         const std::vector<StmKind> &candidates)
    : dpu_(dpu), cfg_(cfg), kinds_{cfg.kind}
{
    fatalIf(cfg.num_tasklets == 0, "StmConfig::num_tasklets must be > 0");
    fatalIf(cfg.num_tasklets > sim::kMaxTasklets,
            "StmConfig::num_tasklets exceeds the DPU tasklet count");
    fatalIf(cfg.durable && cfg.serial_fallback_after != 0,
            "durable mode is incompatible with serial_fallback_after: "
            "irrevocable transactions write in place without a log");
    fatalIf(cfg.durable && cfg.boosting,
            "durable mode is incompatible with boosting: semantic "
            "operations have no word-level redo image");
    for (StmKind k : candidates) {
        if (std::find(kinds_.begin(), kinds_.end(), k) == kinds_.end())
            kinds_.push_back(k);
    }
    // Escalation and kind switching each quiesce the DPU in txStart;
    // no test covers the two drains interleaving, so it is refused.
    fatalIf(kinds_.size() > 1 && cfg.serial_fallback_after != 0,
            "live kind switching is incompatible with the "
            "serial-irrevocable fallback");
    fatalIf(kinds_.size() > 1 && cfg.durable,
            "durable mode is incompatible with live kind switching: "
            "recovery must only ever see one log format");
    descriptors_.reserve(cfg.num_tasklets);
    for (unsigned t = 0; t < cfg.num_tasklets; ++t)
        descriptors_.emplace_back(t, cfg.max_read_set, cfg.max_write_set);
    for (StmKind k : kinds_)
        algos_.push_back(makeAlgorithm(*this, k));
    algo_ = algos_.front().get();
    reserveMetadata();
    // The watchdog's diagnostic dump includes this instance's held
    // ownership records and abort histogram.
    dpu_.addDiagnostic(this,
                       [this](std::ostream &os) { dumpDiagnostics(os); });
}

Stm::~Stm()
{
    dpu_.removeDiagnostic(this);
    for (const auto &tx : descriptors_)
        accumulateIndexStats(tx.indexStats());
}

TxDescriptor &
Stm::descriptor(unsigned tasklet)
{
    panicIf(tasklet >= descriptors_.size(),
            "no descriptor for tasklet ", tasklet);
    return descriptors_[tasklet];
}

unsigned
Stm::heldOwnershipCount() const
{
    unsigned n = 0;
    for (const auto &a : algos_)
        n += a->heldOwnershipCount();
    return n;
}

void
Stm::dumpDiagnostics(std::ostream &os) const
{
    os << "  [stm " << name() << "] held ownership records: "
       << heldOwnershipCount() << "\n";
    for (const auto &a : algos_)
        a->dumpOwnership(os);
    os << "    commits=" << stats_.commits << " aborts=" << stats_.aborts
       << " escalations=" << stats_.escalations
       << " serial_commits=" << stats_.serial_commits << "\n";
    os << "    aborts by reason:";
    for (size_t r = 0; r < kNumAbortReasons; ++r) {
        if (stats_.abort_reasons[r] == 0)
            continue;
        os << " " << abortReasonName(static_cast<AbortReason>(r)) << "="
           << stats_.abort_reasons[r];
    }
    os << "\n";
}

u32
Stm::computedLockTableEntries() const
{
    u32 entries = cfg_.lock_table_entries_override
        ? cfg_.lock_table_entries_override
        : static_cast<u32>(nextPow2(cfg_.data_words_hint));
    entries = std::max(entries, kMinLockTableEntries);
    entries = std::min(entries, kMaxLockTableEntries);
    fatalIf(!isPow2(entries), "lock-table size must be a power of two");
    return entries;
}

void
Stm::reserveMetadata()
{
    // One reservation serves every candidate (the simulated bump
    // allocator cannot free), so it is sized at the largest entry of
    // each kind; the lock-table geometry is the same for all of them.
    size_t read_entry = 0, write_entry = 0, entry_bytes = 0;
    for (const auto &a : algos_) {
        read_entry = std::max(read_entry, a->readEntryBytes());
        write_entry = std::max(write_entry, a->writeEntryBytes());
        entry_bytes = std::max(entry_bytes, a->lockTableEntryBytes());
        lock_table_entries_ =
            std::max(lock_table_entries_, a->lockTableEntries());
    }

    // Per-tasklet descriptors (read set + write set + lock list).
    const size_t per_tasklet =
        static_cast<size_t>(cfg_.max_read_set) * read_entry +
        static_cast<size_t>(cfg_.max_write_set) * write_entry +
        (static_cast<size_t>(cfg_.max_read_set) + cfg_.max_write_set) * 4 +
        64; // descriptor header (snapshot bounds, counters)
    const size_t sets_bytes = per_tasklet * cfg_.num_tasklets;

    const Tier meta_tier = toSimTier(cfg_.metadata_tier);
    auto &meta_mem = dpu_.memory(meta_tier);
    if (!meta_mem.canAlloc(sets_bytes)) {
        fatal("STM metadata (", sets_bytes, " bytes of read/write sets) ",
              "does not fit in ", sim::tierName(meta_tier));
    }
    meta_mem.alloc(sets_bytes);

    // Durable redo/undo log (docs/durability.md), always in MRAM.
    if (cfg_.durable)
        log_ = std::make_unique<DurableLog>(dpu_, cfg_, stats_);

    // ORec lock table (absent for NOrec).
    lock_table_tier_ = meta_tier;
    if (entry_bytes == 0)
        return;

    const u32 entries = lock_table_entries_;
    const size_t table_bytes = static_cast<size_t>(entries) * entry_bytes;
    Tier table_tier = meta_tier;
    if (!dpu_.memory(table_tier).canAlloc(table_bytes)) {
        // The paper's ArrayBench A case: WRAM metadata requested but the
        // lock table alone exceeds WRAM — spill only the table to MRAM.
        if (table_tier == Tier::Wram && cfg_.allow_lock_table_spill &&
            dpu_.mram().canAlloc(table_bytes)) {
            table_tier = Tier::Mram;
        } else {
            fatal("ORec lock table (", table_bytes, " bytes) does not fit ",
                  "in ", sim::tierName(table_tier));
        }
    }
    dpu_.memory(table_tier).alloc(table_bytes);
    lock_table_tier_ = table_tier;

    // WRAM hot-lock cache (docs/adaptive.md): reserved up front (the
    // bump allocator cannot free); inert when the table is already
    // WRAM-resident or the region does not fit.
    const u32 hot = std::min(cfg_.hot_lock_capacity, entries);
    if (hot != 0 && table_tier != Tier::Wram) {
        const size_t hot_bytes = static_cast<size_t>(hot) * entry_bytes;
        if (dpu_.wram().canAlloc(hot_bytes)) {
            dpu_.wram().alloc(hot_bytes);
            hot_capacity_ = hot;
        }
    }
    for (const auto &a : algos_)
        a->initLockAdaptState(table_tier, hot_capacity_ != 0);
}

void
Stm::metaRead(DpuContext &ctx, size_t bytes)
{
    ctx.touchRead(toSimTier(cfg_.metadata_tier), bytes);
}

void
Stm::metaWrite(DpuContext &ctx, size_t bytes)
{
    ctx.touchWrite(toSimTier(cfg_.metadata_tier), bytes);
}

//
// StmAlgorithm: lock-table charging and hot-lock migration state, one
// copy per candidate kind.
//

StmAlgorithm::StmAlgorithm(Stm &stm, StmKind kind, size_t read_entry_bytes,
                           size_t write_entry_bytes,
                           size_t lock_entry_bytes)
    : stm_(stm), cfg_(stm.cfg_), stats_(stm.stats_), kind_(kind),
      read_entry_bytes_(read_entry_bytes),
      write_entry_bytes_(write_entry_bytes),
      lock_entry_bytes_(lock_entry_bytes),
      lock_table_entries_(lock_entry_bytes != 0
                              ? stm.computedLockTableEntries()
                              : 0)
{}

void
StmAlgorithm::initLockAdaptState(Tier table_tier, bool migrate)
{
    lock_table_tier_ = table_tier;
    if (lock_table_entries_ == 0 || !migrate)
        return;
    lock_heat_.assign(lock_table_entries_, 0);
    hot_state_.assign(lock_table_entries_, kCold);
}

void
StmAlgorithm::lockTableRead(DpuContext &ctx, u32 index, size_t bytes)
{
    if (!lock_heat_.empty())
        ++lock_heat_[index];
    if (!hot_state_.empty()) {
        if (hot_state_[index] >= kPromotePending)
            settleMigration(ctx, index);
        if (hot_state_[index] == kHot) {
            ctx.touchRead(Tier::Wram, bytes);
            return;
        }
    }
    ctx.touchRead(lock_table_tier_, bytes);
}

void
StmAlgorithm::lockTableWrite(DpuContext &ctx, u32 index, size_t bytes)
{
    if (!lock_heat_.empty())
        ++lock_heat_[index];
    if (!hot_state_.empty()) {
        if (hot_state_[index] >= kPromotePending)
            settleMigration(ctx, index);
        if (hot_state_[index] == kHot) {
            ctx.touchWrite(Tier::Wram, bytes);
            return;
        }
    }
    ctx.touchWrite(lock_table_tier_, bytes);
}

void
StmAlgorithm::settleMigration(DpuContext &ctx, u32 index)
{
    // Lazy settlement: the controller only flips host-side state; the
    // copy itself is charged here, on the first post-decision access,
    // through the same transfer cost model as any other traffic.
    const size_t entry_bytes = lock_entry_bytes_;
    u8 &st = hot_state_[index];
    if (st == kPromotePending) {
        ctx.touchRead(lock_table_tier_, entry_bytes);
        ctx.touchWrite(Tier::Wram, entry_bytes);
        st = kHot;
    } else {
        ctx.touchRead(Tier::Wram, entry_bytes);
        ctx.touchWrite(lock_table_tier_, entry_bytes);
        st = kCold;
    }
    ++stats_.lock_migrations;
}

void
StmAlgorithm::migrateLocks(const std::vector<u32> &promote,
                           const std::vector<u32> &demote)
{
    if (hot_state_.empty())
        return;
    // Host-only decision flip; cost is charged lazily in settleMigration.
    // Demotions first so a promote/demote pair in the same epoch never
    // transiently exceeds the hot capacity.
    for (u32 i : demote) {
        if (i >= hot_state_.size())
            continue;
        u8 &st = hot_state_[i];
        if (st == kHot)
            st = kDemotePending;
        else if (st == kPromotePending)
            st = kCold; // never copied up: cancellation is free
    }
    for (u32 i : promote) {
        if (i >= hot_state_.size())
            continue;
        u8 &st = hot_state_[i];
        if (st == kCold)
            st = kPromotePending;
        else if (st == kDemotePending)
            st = kHot; // still WRAM-resident: cancel the eviction
    }
}

void
Stm::setBackoffParams(Cycles base, unsigned max_shift)
{
    if (base == 0) {
        cfg_.abort_backoff = false;
        cfg_.abort_backoff_base = 1;
    } else {
        cfg_.abort_backoff = true;
        cfg_.abort_backoff_base = base;
    }
    cfg_.abort_backoff_max_shift = max_shift;
}

//
// Stm: adaptation surface and live kind switching
//

const std::vector<u32> &
Stm::lockHeat() const
{
    if (algos_.size() == 1)
        return algo_->lock_heat_;
    heat_sum_.clear();
    for (const auto &a : algos_) {
        const auto &h = a->lock_heat_;
        if (h.size() > heat_sum_.size())
            heat_sum_.resize(h.size(), 0);
        for (size_t i = 0; i < h.size(); ++i)
            heat_sum_[i] += h[i];
    }
    return heat_sum_;
}

void
Stm::migrateLocks(const std::vector<u32> &promote,
                  const std::vector<u32> &demote)
{
    // Every candidate records the intent; a kind that becomes current
    // after a switch settles its own pending entries on first access.
    for (const auto &a : algos_)
        a->migrateLocks(promote, demote);
}

bool
Stm::requestKindSwitch(StmKind k)
{
    const auto it = std::find(kinds_.begin(), kinds_.end(), k);
    if (it == kinds_.end() || k == cfg_.kind)
        return false;
    pending_ = static_cast<int>(it - kinds_.begin());
    return true;
}

void
Stm::switchKind(DpuContext &ctx)
{
    const StmAlgorithm &from = *algo_;
    algo_ = algos_[static_cast<size_t>(pending_)].get();
    cfg_.kind = kinds_[static_cast<size_t>(pending_)];
    pending_ = -1;
    // The DPU is drained, so every ownership record must have been
    // released by the final commit/abort — a leak here would corrupt
    // the next kind's view of the (shared) data words.
    panicIf(from.heldOwnershipCount() != 0,
            "kind switch with ownership records still held by ",
            from.name());
    ++stats_.kind_switches;
    // Metadata translation: stream the old kind's lock table out and
    // initialize the new kind's — both at the resolved table tier.
    const size_t old_bytes =
        static_cast<size_t>(from.lockTableEntries()) *
        from.lockTableEntryBytes();
    const size_t new_bytes =
        static_cast<size_t>(algo_->lockTableEntries()) *
        algo_->lockTableEntryBytes();
    if (old_bytes != 0)
        ctx.touchRead(lock_table_tier_, old_bytes);
    if (new_bytes != 0)
        ctx.touchWrite(lock_table_tier_, new_bytes);
}

void
Stm::scanCost(DpuContext &ctx, size_t entries, size_t entry_bytes)
{
    if (entries == 0)
        return;
    // Sets are contiguous, so a scan streams them in one DMA (MRAM) or
    // walks them word by word (WRAM).
    metaRead(ctx, entries * entry_bytes);
}

void
Stm::maybeInjectFault(DpuContext &ctx, TxDescriptor &tx, bool can_abort,
                      bool in_tx)
{
    sim::FaultInjector *fi = dpu_.faultInjector();
    // Serial-irrevocable transactions are exempt: they are the
    // termination guarantee under injected abort storms, and undoing
    // their direct writes after a crash would be impossible.
    if (fi == nullptr || tx.irrevocable)
        return;
    switch (fi->onStmOp(tx.tasklet(), can_abort)) {
      case sim::StmFault::None:
        return;
      case sim::StmFault::SpuriousAbort:
        ++stats_.injected_aborts;
        txAbort(ctx, tx, AbortReason::ValidationFail);
      case sim::StmFault::Crash:
        crashOut(ctx, tx, in_tx);
      case sim::StmFault::DpuCrash:
        // Whole-DPU power loss: deliberately NO cleanup — the volatile
        // state simply vanishes. The scheduler drains the run, wipes
        // WRAM, resolves the unflushed MRAM lines and surfaces
        // sim::DpuCrashError from Dpu::run().
        dpu_.beginCrash();
        ctx.setPhase(sim::Phase::NonTx);
        throw sim::DpuCrashException{tx.tasklet()};
    }
}

void
Stm::replaySemanticUndo(DpuContext &ctx, TxDescriptor &tx)
{
    if (tx.semantic_undo.empty())
        return;
    // Log-scan cost: the undo log is contiguous descriptor metadata
    // the simulated machine must stream before replaying (each entry
    // is an op code plus captured operands, ~16 bytes).
    scanCost(ctx, tx.semantic_undo.size(), 16);
    while (!tx.semantic_undo.empty()) {
        SemanticUndo entry = std::move(tx.semantic_undo.back());
        tx.semantic_undo.pop_back();
        if (cfg_.trace) {
            cfg_.trace->record(
                ctx.now(), ctx.taskletId(), TxEvent::SemanticUndo,
                static_cast<u32>(tx.semantic_undo.size()), 0,
                static_cast<StructureId>(entry.structure));
        }
        entry.apply(ctx);
        ++stats_.semantic_undos;
    }
}

void
Stm::releaseSemanticLocks(DpuContext &ctx, TxDescriptor &tx)
{
    while (!tx.semantic_locks.empty()) {
        const SemanticLock l = tx.semantic_locks.back();
        tx.semantic_locks.pop_back();
        l.owner->releaseAbstract(ctx, tx.tasklet(), l.stripe,
                                 l.exclusive);
    }
}

void
Stm::crashOut(DpuContext &ctx, TxDescriptor &tx, bool in_tx)
{
    ++stats_.crashes;
    if (in_tx) {
        // Clean termination mid-transaction: release every lock / ORec
        // the transaction holds, exactly as an abort would — including
        // replaying the semantic undo log so eagerly applied boosted
        // operations do not leak into the committed state.
        algo_->doAbortCleanup(ctx, tx);
        replaySemanticUndo(ctx, tx);
        releaseSemanticLocks(ctx, tx);
        --active_txs_;
        ctx.txAccountingAbort();
    }
    ctx.setPhase(sim::Phase::NonTx);
    throw sim::TaskletCrashException{tx.tasklet()};
}

void
Stm::acquireSerialToken(DpuContext &ctx, TxDescriptor &tx)
{
    // Win the global token. The token word is host state guarded by an
    // atomic-register bracket (so the claim itself is a scheduling
    // point with real cost, like any CAS emulation in the library).
    for (;;) {
        ctx.acquire(kSerialTokenKey);
        const bool won = serial_owner_ < 0;
        if (won)
            serial_owner_ = static_cast<int>(tx.tasklet());
        ctx.release(kSerialTokenKey);
        if (won)
            break;
        ctx.delay(kSerialWaitCycles);
    }
    // Quiesce: new transactions now park in txStart, so waiting for the
    // in-flight count to drain gives this tasklet exclusive access.
    // Every in-flight transaction finishes in bounded simulated time
    // (all STM waits are bounded polls), so this loop terminates.
    while (active_txs_ != 0)
        ctx.delay(kSerialWaitCycles);
}

void
Stm::releaseSerialToken(DpuContext &ctx, TxDescriptor &tx)
{
    ctx.acquire(kSerialTokenKey);
    panicIf(serial_owner_ != static_cast<int>(tx.tasklet()),
            "serial token released by a non-owner");
    serial_owner_ = -1;
    ctx.release(kSerialTokenKey);
}

void
Stm::txStart(DpuContext &ctx, TxDescriptor &tx)
{
    // Dynamic throttle (docs/adaptive.md): surplus tasklets park at the
    // transaction boundary — the one point where holding no ownership
    // records is guaranteed — until the controller raises the limit.
    // A single always-false compare when throttling is off.
    while (tasklet_limit_ != 0 && tx.tasklet() >= tasklet_limit_) {
        ++stats_.park_polls;
        ctx.delay(kParkPollCycles);
    }
    // Live kind switch (docs/adaptive.md): park until the in-flight
    // transactions drain (each finishes in bounded simulated time).
    // The first tasklet to observe the drain switches; the check and
    // the flip are host-side with no scheduling point between them, so
    // exactly one tasklet switches. A parked tasklet has not started
    // yet, so no transaction straddles the switch.
    if (pending_ >= 0) {
        while (pending_ >= 0 && active_txs_ != 0)
            ctx.delay(kSerialWaitCycles);
        if (pending_ >= 0)
            switchKind(ctx);
    }
    maybeInjectFault(ctx, tx, /*can_abort=*/false, /*in_tx=*/false);
    ctx.txAccountingBegin();
    ctx.setPhase(sim::Phase::TxStart);
    const bool escalate = cfg_.serial_fallback_after != 0
        && tx.retries >= cfg_.serial_fallback_after;
    if (escalate) {
        acquireSerialToken(ctx, tx);
    } else {
        // While a serial-irrevocable transaction is running, new ones
        // park here; a single always-false compare when the fallback
        // is disabled.
        while (serial_owner_ >= 0)
            ctx.delay(kSerialWaitCycles);
    }
    ++stats_.starts;
    if (cfg_.trace) {
        tx.trace_start_cycle = ctx.now();
        cfg_.trace->record(ctx.now(), ctx.taskletId(), TxEvent::Start);
    }
    ++active_txs_;
    tx.reset();
    if (escalate) {
        tx.irrevocable = true;
        ++stats_.escalations;
    } else {
        algo_->doStart(ctx, tx);
    }
    ctx.setPhase(sim::Phase::TxOther);
}

u32
Stm::txRead(DpuContext &ctx, TxDescriptor &tx, Addr a)
{
    maybeInjectFault(ctx, tx, /*can_abort=*/true, /*in_tx=*/true);
    ctx.setPhase(sim::Phase::TxRead);
    const u32 v =
        tx.irrevocable ? ctx.read32(a) : algo_->doRead(ctx, tx, a);
    ++stats_.reads;
    if (cfg_.trace) {
        cfg_.trace->record(ctx.now(), ctx.taskletId(), TxEvent::Read, a,
                           0, static_cast<StructureId>(tx.structure));
    }
    ctx.setPhase(sim::Phase::TxOther);
    return v;
}

void
Stm::txWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v)
{
    maybeInjectFault(ctx, tx, /*can_abort=*/true, /*in_tx=*/true);
    ctx.setPhase(sim::Phase::TxWrite);
    if (tx.irrevocable)
        ctx.write32(a, v); // exclusive access: write in place
    else
        algo_->doWrite(ctx, tx, a, v);
    tx.read_only = false;
    ++stats_.writes;
    if (cfg_.trace) {
        cfg_.trace->record(ctx.now(), ctx.taskletId(), TxEvent::Write, a,
                           0, static_cast<StructureId>(tx.structure));
    }
    ctx.setPhase(sim::Phase::TxOther);
}

void
Stm::txCommit(DpuContext &ctx, TxDescriptor &tx)
{
    maybeInjectFault(ctx, tx, /*can_abort=*/true, /*in_tx=*/true);
    ctx.setPhase(sim::Phase::TxCommit);
    const Cycles commit_begin = cfg_.trace ? ctx.now() : 0;
    if (tx.irrevocable) {
        // Direct writes are already in memory; committing is just
        // handing the token back.
        releaseSerialToken(ctx, tx);
        ++stats_.serial_commits;
    } else {
        algo_->doCommit(ctx, tx);
    }
    // Boosted state: the eager writes are now the committed truth;
    // discard the inverse log and hand the abstract locks back.
    if (!tx.semantic_undo.empty())
        tx.semantic_undo.clear();
    if (!tx.semantic_locks.empty())
        releaseSemanticLocks(ctx, tx);
    ++stats_.commits;
    if (cfg_.trace) {
        const Cycles end = ctx.now();
        cfg_.trace->record(end, ctx.taskletId(), TxEvent::Commit,
                           static_cast<u32>(tx.write_set.size()));
        cfg_.trace->noteCommit(end - tx.trace_start_cycle,
                               end - commit_begin, tx.read_set.size(),
                               tx.write_set.size());
    }
    if (tx.read_only)
        ++stats_.read_only_commits;
    tx.retries = 0;
    tx.irrevocable = false;
    --active_txs_;
    dpu_.noteProgress();
    ctx.txAccountingCommit();
    ctx.setPhase(sim::Phase::NonTx);
}

void
Stm::txAbort(DpuContext &ctx, TxDescriptor &tx, AbortReason reason,
             u32 conflict_lock, Addr conflict_addr)
{
    if (tx.irrevocable) {
        // Only TxHandle::retry() can reach here — conflict aborts are
        // impossible in serial mode and injection is suppressed. The
        // direct writes cannot be undone, so this is a misuse, not a
        // recoverable state.
        panic("TxHandle::retry() inside a serial-irrevocable transaction; "
              "serial_fallback_after is incompatible with retry()-based "
              "atomic blocks");
    }
    algo_->doAbortCleanup(ctx, tx);
    // Word-level rollback done; now undo the eagerly applied boosted
    // operations (LIFO, abstract locks still held) and release.
    replaySemanticUndo(ctx, tx);
    releaseSemanticLocks(ctx, tx);
    ++stats_.aborts;
    ++stats_.abort_reasons[static_cast<size_t>(reason)];
    if (cfg_.trace) {
        cfg_.trace->record(ctx.now(), ctx.taskletId(), TxEvent::Abort,
                           static_cast<u32>(reason), conflict_addr,
                           static_cast<StructureId>(tx.structure));
        cfg_.trace->noteAbort(reason, conflict_lock,
                              static_cast<StructureId>(tx.structure));
    }
    ++tx.retries;
    --active_txs_;
    ctx.txAccountingAbort();
    if (cfg_.abort_backoff) {
        // Randomized exponential back-off: breaks deterministic
        // abort-retry lockstep between symmetric tasklets.
        const unsigned shift = static_cast<unsigned>(
            std::min<u64>(tx.retries, cfg_.abort_backoff_max_shift));
        const Cycles window = cfg_.abort_backoff_base << shift;
        const Cycles d = ctx.rng().range(1, window);
        stats_.backoff_cycles += d;
        ctx.setPhase(sim::Phase::Wasted);
        ctx.delay(d);
    }
    ctx.setPhase(sim::Phase::NonTx);
    throw TxAbortException{reason};
}

//
// Write-set plumbing and the durable commit protocol
// (docs/durability.md)
//

void
Stm::recordWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v,
                 u32 lock_index, size_t entry_bytes, bool in_place)
{
    scanCost(ctx, tx.write_set.size(), entry_bytes);
    const int w = tx.findWrite(a);
    if (w >= 0) {
        tx.write_set[static_cast<size_t>(w)].value = v;
    } else {
        WriteEntry e;
        e.addr = a;
        e.value = v;
        e.lock_index = lock_index;
        if (in_place) {
            e.old_value = ctx.read32(a);
            // Write-ahead rule: the undo entry is fenced before the
            // in-place write below, with the ownership record held.
            if (log_)
                log_->logUndo(ctx, tx, a, e.old_value);
        }
        tx.pushWrite(e);
    }
    metaWrite(ctx, entry_bytes);
    if (in_place)
        ctx.write32(a, v);
}

void
Stm::writeBackCommit(DpuContext &ctx, TxDescriptor &tx, size_t entry_bytes)
{
    // Durability point: the redo image and the commit record are sealed
    // with every ownership record held, before the first in-place write.
    if (log_)
        log_->sealRedo(ctx, tx);
    scanCost(ctx, tx.write_set.size(), entry_bytes);
    for (const auto &e : tx.write_set)
        ctx.write32(e.addr, e.value);
    if (log_)
        log_->retire(ctx, tx.tasklet());
}

void
Stm::writeThroughCommit(DpuContext &ctx, TxDescriptor &tx)
{
    if (log_)
        log_->commitUndo(ctx, tx.tasklet());
}

void
Stm::writeThroughUndo(DpuContext &ctx, TxDescriptor &tx)
{
    for (auto it = tx.write_set.rbegin(); it != tx.write_set.rend(); ++it)
        ctx.write32(it->addr, it->old_value);
    if (log_)
        log_->retire(ctx, tx.tasklet());
}

RecoveryReport
Stm::recoverAfterCrash()
{
    const RecoveryReport r = log_ ? log_->recover() : RecoveryReport{};

    // Volatile STM bookkeeping: the host vectors survived the crash,
    // but the transactions they describe did not.
    for (const auto &a : algos_)
        a->clearLocksForRecovery();
    for (auto &d : descriptors_) {
        d.reset();
        d.retries = 0;
        d.structure = 0;
    }
    active_txs_ = 0;
    serial_owner_ = -1;

    ++stats_.recoveries;
    stats_.log_redone += r.redone;
    stats_.log_undone += r.undone;
    stats_.log_discarded += r.discarded;
    stats_.torn_logs += r.torn;
    if (cfg_.trace) {
        cfg_.trace->record(dpu_.now(), 0, TxEvent::Recovery, r.redone,
                           r.undone + r.discarded);
    }
    return r;
}

} // namespace pimstm::core
