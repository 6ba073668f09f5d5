#include "core/vr.hh"

#include <ostream>

#include "core/rw_lock.hh"
#include "util/logging.hh"

namespace pimstm::core
{

VrAlgorithm::VrAlgorithm(Stm &stm, StmKind kind)
    : StmAlgorithm(stm, kind, /*read_entry=*/8, /*write_entry=*/16,
                   /*lock_entry=*/4)
{
    switch (kind) {
      case StmKind::VrEtlWb:
        etl_ = true;
        wb_ = true;
        break;
      case StmKind::VrEtlWt:
        etl_ = true;
        wb_ = false;
        break;
      case StmKind::VrCtlWb:
        etl_ = false;
        wb_ = true;
        break;
      default:
        fatal("VrAlgorithm constructed with non-VR kind");
    }
    table_.assign(lockTableEntries(), rwlock::Free);
}

void
VrAlgorithm::doStart(DpuContext &, TxDescriptor &)
{
    // No snapshot, no clock: visible reads need no start bookkeeping.
}

void
VrAlgorithm::readLock(DpuContext &ctx, TxDescriptor &tx, u32 index, Addr a)
{
    const unsigned me = tx.tasklet();
    unsigned poll = 0;
retry:
    ctx.acquire(index);
    lockTableRead(ctx, index, 4);
    const u32 w = table_[index];

    if (rwlock::isWrite(w)) {
        const bool mine = rwlock::writeOwner(w) == me;
        ctx.release(index);
        if (mine)
            return; // our write lock subsumes read permission
        if (poll < cfg_.cm_wait_polls) {
            // Wait-on-contention: poll the writer a bounded number of
            // times before aborting.
            ++poll;
            traceLockWait(ctx, index, cfg_.cm_wait_cycles);
            ctx.delay(cfg_.cm_wait_cycles);
            goto retry;
        }
        txAbort(ctx, tx, AbortReason::ReadConflict, index, a);
    }
    if (rwlock::hasReader(w, me)) {
        ctx.release(index);
        return; // already visible — the reader bitmap spares re-locking
    }
    table_[index] = rwlock::addReader(w, me);
    lockTableWrite(ctx, index, 4);
    ctx.release(index);
    tx.locks.push_back({index, false});
    traceLockAcquire(ctx, index, poll * u64{cfg_.cm_wait_cycles});
}

void
VrAlgorithm::writeLock(DpuContext &ctx, TxDescriptor &tx, u32 index,
                       bool at_commit, Addr a)
{
    const unsigned me = tx.tasklet();
    unsigned poll = 0;
retry:
    ctx.acquire(index);
    lockTableRead(ctx, index, 4);
    const u32 w = table_[index];

    if (rwlock::isWrite(w)) {
        const bool mine = rwlock::writeOwner(w) == me;
        ctx.release(index);
        if (mine)
            return;
        if (poll < cfg_.cm_wait_polls) {
            ++poll;
            traceLockWait(ctx, index, cfg_.cm_wait_cycles);
            ctx.delay(cfg_.cm_wait_cycles);
            goto retry;
        }
        txAbort(ctx, tx,
                at_commit ? AbortReason::CommitConflict
                          : AbortReason::WriteConflict,
                index, a);
    }
    if (rwlock::isFree(w)) {
        table_[index] = rwlock::makeWrite(me);
        lockTableWrite(ctx, index, 4);
        ctx.release(index);
        tx.locks.push_back({index, true});
        traceLockAcquire(ctx, index, poll * u64{cfg_.cm_wait_cycles});
        return;
    }
    // Read mode: upgrade only if we are the sole reader; otherwise
    // abort immediately (deadlock avoidance, §3.2.1 — the source of
    // VR's spurious aborts under contention).
    if (rwlock::soleReader(w, me)) {
        table_[index] = rwlock::makeWrite(me);
        lockTableWrite(ctx, index, 4);
        ctx.release(index);
        for (auto &l : tx.locks) {
            if (l.index == index) {
                l.write_mode = true;
                return;
            }
        }
        panic("upgraded a read lock that was not recorded");
    }
    const bool i_am_reader = rwlock::hasReader(w, me);
    ctx.release(index);
    txAbort(ctx, tx,
            i_am_reader ? AbortReason::UpgradeConflict
                        : (at_commit ? AbortReason::CommitConflict
                                     : AbortReason::WriteConflict),
            index, a);
}

void
VrAlgorithm::releaseAll(DpuContext &ctx, TxDescriptor &tx)
{
    const unsigned me = tx.tasklet();
    for (const auto &l : tx.locks) {
        ctx.acquire(l.index);
        lockTableRead(ctx, l.index, 4);
        const u32 w = table_[l.index];
        if (rwlock::isWrite(w)) {
            panicIf(rwlock::writeOwner(w) != me,
                    "releasing a write lock we do not own");
            table_[l.index] = rwlock::Free;
        } else {
            panicIf(!rwlock::hasReader(w, me),
                    "releasing a read lock we do not hold");
            table_[l.index] = rwlock::removeReader(w, me);
        }
        lockTableWrite(ctx, l.index, 4);
        ctx.release(l.index);
    }
    tx.locks.clear();
}

u32
VrAlgorithm::doRead(DpuContext &ctx, TxDescriptor &tx, Addr a)
{
    const u32 index = lockIndexFor(a);
    readLock(ctx, tx, index, a);

    if (wb_ && !tx.write_set.empty()) {
        // Write-back: our own pending write must win. With ETL we only
        // need to scan when we hold the slot in write mode, which the
        // reader bitmap / owner check told us for free; CTL buffers
        // writes without locks, so it must always scan.
        bool might_have_written = !etl_;
        if (etl_) {
            const u32 w = table_[index];
            might_have_written = rwlock::isWrite(w) &&
                                 rwlock::writeOwner(w) == tx.tasklet();
        }
        if (might_have_written) {
            scanCost(ctx, tx.write_set.size(), writeEntryBytes());
            const int i = tx.findWrite(a);
            if (i >= 0)
                return tx.write_set[static_cast<size_t>(i)].value;
        }
    }
    // Visible read: the read lock protects the location until commit,
    // so no validation is ever needed.
    return ctx.read32(a);
}

void
VrAlgorithm::doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v)
{
    const u32 index = lockIndexFor(a);
    if (etl_)
        writeLock(ctx, tx, index, false, a);
    recordWrite(ctx, tx, a, v, index, /*in_place=*/!wb_);
}

void
VrAlgorithm::doCommit(DpuContext &ctx, TxDescriptor &tx)
{
    if (!etl_) {
        // Commit-time locking: upgrade/acquire write locks for the
        // whole write set now.
        for (const auto &e : tx.write_set)
            writeLock(ctx, tx, e.lock_index, true, e.addr);
    }
    // Every write lock is held and visible reads need no validation:
    // apply (WB) or make the in-place writes durable (WT) before any
    // rw-lock is released.
    if (wb_)
        writeBackCommit(ctx, tx);
    else
        writeThroughCommit(ctx, tx);
    releaseAll(ctx, tx);
}

void
VrAlgorithm::doAbortCleanup(DpuContext &ctx, TxDescriptor &tx)
{
    // Write-through: restore overwritten values while the write locks
    // are still held.
    if (!wb_)
        writeThroughUndo(ctx, tx);
    releaseAll(ctx, tx);
}

unsigned
VrAlgorithm::heldOwnershipCount() const
{
    unsigned held = 0;
    for (u32 w : table_)
        held += rwlock::isFree(w) ? 0 : 1;
    return held;
}

void
VrAlgorithm::dumpOwnership(std::ostream &os) const
{
    unsigned listed = 0;
    for (u32 i = 0; i < table_.size() && listed < 16; ++i) {
        const u32 w = table_[i];
        if (rwlock::isFree(w))
            continue;
        os << "    rwlock " << i << ": ";
        if (rwlock::isWrite(w))
            os << "write-owned by tasklet " << rwlock::writeOwner(w);
        else
            os << rwlock::readerCount(w) << " reader(s)";
        os << "\n";
        ++listed;
    }
}

} // namespace pimstm::core
