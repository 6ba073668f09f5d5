#include "core/tiny.hh"

#include <ostream>

#include "util/logging.hh"

namespace pimstm::core
{

TinyAlgorithm::TinyAlgorithm(Stm &stm, StmKind kind)
    : StmAlgorithm(stm, kind, /*read_entry=*/16, /*write_entry=*/24,
                   /*lock_entry=*/8)
{
    switch (kind) {
      case StmKind::TinyEtlWb:
        etl_ = true;
        wb_ = true;
        break;
      case StmKind::TinyEtlWt:
        etl_ = true;
        wb_ = false;
        break;
      case StmKind::TinyCtlWb:
        etl_ = false;
        wb_ = true;
        break;
      case StmKind::Tl2:
        // Classic TL2: commit-time locking, write-back, and a FIXED
        // read timestamp — version > snapshot always aborts.
        etl_ = false;
        wb_ = true;
        no_extend_ = true;
        break;
      default:
        fatal("TinyAlgorithm constructed with non-Tiny kind");
    }
    table_.assign(lockTableEntries(), Orec{});
}

u64
TinyAlgorithm::incrementClock(DpuContext &ctx)
{
    // fetch-and-increment emulated with the atomic register.
    ctx.acquire(kClockKey);
    metaRead(ctx, 8);
    const u64 wc = ++clock_;
    metaWrite(ctx, 8);
    ctx.release(kClockKey);
    return wc;
}

void
TinyAlgorithm::doStart(DpuContext &ctx, TxDescriptor &tx)
{
    metaRead(ctx, 8);
    tx.snapshot = clock_;
    tx.upper = clock_;
}

void
TinyAlgorithm::validate(DpuContext &ctx, TxDescriptor &tx)
{
    ++stats_.validations;
    traceValidate(ctx, tx.read_set.size());
    for (const auto &e : tx.read_set) {
        lockTableRead(ctx, e.lock_index, 8);
        const Orec &cur = table_[e.lock_index];
        if (cur.locked && cur.owner != tx.tasklet())
            txAbort(ctx, tx, AbortReason::ValidationFail, e.lock_index,
                    e.addr);
        if (cur.version != e.version)
            txAbort(ctx, tx, AbortReason::ValidationFail, e.lock_index,
                    e.addr);
    }
}

void
TinyAlgorithm::extend(DpuContext &ctx, TxDescriptor &tx)
{
    if (no_extend_) // TL2: the read window is fixed at start
        txAbort(ctx, tx, AbortReason::ValidationFail);
    const auto prev_phase = ctx.phase();
    ctx.setPhase(sim::Phase::TxValidate);
    ++stats_.extensions;
    metaRead(ctx, 8);
    const u64 now_clock = clock_;
    validate(ctx, tx);
    tx.upper = now_clock;
    ctx.setPhase(prev_phase);
}

u32
TinyAlgorithm::doRead(DpuContext &ctx, TxDescriptor &tx, Addr a)
{
    // CTL buffers writes without locking, so reads-after-writes must
    // scan the write set (one of CTL's costs the paper highlights).
    if (!etl_ && !tx.write_set.empty()) {
        scanCost(ctx, tx.write_set.size(), writeEntryBytes());
        const int w = tx.findWrite(a);
        if (w >= 0)
            return tx.write_set[static_cast<size_t>(w)].value;
    }

    const u32 index = lockIndexFor(a);
    lockTableRead(ctx, index, 8);
    Orec o = table_[index];

    // Optional wait-on-contention manager: poll a foreign lock a
    // bounded number of times before aborting.
    for (unsigned poll = 0;
         o.locked && !(etl_ && o.owner == tx.tasklet()) &&
         poll < cfg_.cm_wait_polls;
         ++poll) {
        traceLockWait(ctx, index, cfg_.cm_wait_cycles);
        ctx.delay(cfg_.cm_wait_cycles);
        lockTableRead(ctx, index, 8);
        o = table_[index];
    }

    if (o.locked) {
        if (etl_ && o.owner == tx.tasklet()) {
            // We hold this ORec. WT: memory already has our value.
            // WB: the value may be in our write set (or the ORec may
            // merely alias an address we wrote).
            if (!wb_)
                return ctx.read32(a);
            scanCost(ctx, tx.write_set.size(), writeEntryBytes());
            const int w = tx.findWrite(a);
            if (w >= 0)
                return tx.write_set[static_cast<size_t>(w)].value;
            return ctx.read32(a);
        }
        txAbort(ctx, tx, AbortReason::ReadConflict, index, a);
    }

    // Invisible read: data read sandwiched between two ORec reads.
    const u32 v = ctx.read32(a);
    lockTableRead(ctx, index, 8);
    const Orec &recheck = table_[index];
    if (recheck.locked || recheck.version != o.version)
        txAbort(ctx, tx, AbortReason::ReadConflict, index, a);

    // The snapshot upper bound lives in the descriptor, i.e. in the
    // metadata tier — consulting it is a real access there (one of the
    // extra MRAM reads the paper charges invisible-read designs with).
    metaRead(ctx, 8);
    if (o.version > tx.upper)
        extend(ctx, tx);

    ReadEntry e;
    e.addr = a;
    e.value = v;
    e.version = o.version;
    e.lock_index = index;
    tx.pushRead(e);
    // Entry plus the descriptor's set-size counter.
    metaWrite(ctx, readEntryBytes() + 8);
    return v;
}

bool
TinyAlgorithm::acquireOrec(DpuContext &ctx, TxDescriptor &tx, u32 index)
{
    unsigned poll = 0;
retry:
    ctx.acquire(index);
    lockTableRead(ctx, index, 8);
    Orec &o = table_[index];
    if (o.locked) {
        const bool mine = o.owner == tx.tasklet();
        ctx.release(index);
        if (!mine && poll < cfg_.cm_wait_polls) {
            // Wait-on-contention: back off and retry the acquisition.
            ++poll;
            traceLockWait(ctx, index, cfg_.cm_wait_cycles);
            ctx.delay(cfg_.cm_wait_cycles);
            goto retry;
        }
        return mine;
    }
    if (o.version > tx.upper) {
        // Newer than our snapshot window: try to extend first.
        ctx.release(index);
        extend(ctx, tx); // aborts on failure
        ctx.acquire(index);
        lockTableRead(ctx, index, 8);
        if (table_[index].locked || table_[index].version > tx.upper) {
            ctx.release(index);
            return false;
        }
    }
    o.locked = true;
    o.owner = static_cast<u8>(tx.tasklet());
    lockTableWrite(ctx, index, 8);
    ctx.release(index);
    tx.locks.push_back({index, true});
    traceLockAcquire(ctx, index, poll * u64{cfg_.cm_wait_cycles});
    return true;
}

void
TinyAlgorithm::doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v)
{
    const u32 index = lockIndexFor(a);
    if (etl_) {
        if (!acquireOrec(ctx, tx, index))
            txAbort(ctx, tx, AbortReason::WriteConflict, index, a);
    }
    recordWrite(ctx, tx, a, v, index, /*in_place=*/!wb_);
}

void
TinyAlgorithm::doCommit(DpuContext &ctx, TxDescriptor &tx)
{
    if (tx.write_set.empty())
        return; // read-only: the snapshot window proves serializability

    if (!etl_) {
        // Commit-time locking: acquire every written ORec now.
        for (const auto &e : tx.write_set) {
            // Skip ORecs we already locked via an earlier entry.
            bool already = false;
            for (const auto &l : tx.locks)
                if (l.index == e.lock_index)
                    already = true;
            if (already)
                continue;
            if (!acquireOrec(ctx, tx, e.lock_index))
                txAbort(ctx, tx, AbortReason::CommitConflict, e.lock_index,
                        e.addr);
        }
    }

    const u64 wc = incrementClock(ctx);
    if (wc != tx.upper + 1) {
        const auto prev_phase = ctx.phase();
        ctx.setPhase(sim::Phase::TxValidate);
        validate(ctx, tx);
        ctx.setPhase(prev_phase);
    }

    // Validated, with every written ORec held: apply (WB) or make the
    // in-place writes durable (WT) before any ORec is released.
    if (wb_)
        writeBackCommit(ctx, tx);
    else
        writeThroughCommit(ctx, tx);

    // Release with the commit timestamp.
    for (const auto &l : tx.locks) {
        Orec &o = table_[l.index];
        o.locked = false;
        o.version = wc;
        lockTableWrite(ctx, l.index, 8);
    }
}

void
TinyAlgorithm::doAbortCleanup(DpuContext &ctx, TxDescriptor &tx)
{
    // Write-through: restore overwritten values while the ORecs are
    // still held.
    if (!wb_)
        writeThroughUndo(ctx, tx);
    // Drop the lock bit; the version is untouched (it was never
    // advanced), so concurrent readers remain consistent.
    for (const auto &l : tx.locks) {
        Orec &o = table_[l.index];
        panicIf(!o.locked || o.owner != tx.tasklet(),
                "abort cleanup releasing an ORec we do not hold");
        o.locked = false;
        lockTableWrite(ctx, l.index, 8);
    }
    tx.locks.clear();
}

unsigned
TinyAlgorithm::heldOwnershipCount() const
{
    unsigned held = 0;
    for (const Orec &o : table_)
        held += o.locked ? 1 : 0;
    return held;
}

void
TinyAlgorithm::dumpOwnership(std::ostream &os) const
{
    // Cap the listing: the table can have 64K entries, the dump is for
    // humans.
    unsigned listed = 0;
    for (u32 i = 0; i < table_.size() && listed < 16; ++i) {
        if (!table_[i].locked)
            continue;
        os << "    orec " << i << ": locked by tasklet "
           << static_cast<unsigned>(table_[i].owner) << " (version "
           << table_[i].version << ")\n";
        ++listed;
    }
}

} // namespace pimstm::core
