#include "core/norec.hh"

#include <ostream>

namespace pimstm::core
{

void
NOrecAlgorithm::doStart(DpuContext &ctx, TxDescriptor &tx)
{
    // Snapshot an even (free) sequence lock. The wait while it is odd
    // is NOrec's built-in contention manager. The trace layer reports
    // the global seqlock as lock index 0.
    for (;;) {
        metaRead(ctx, 8);
        const u64 s = seqlock_;
        if ((s & 1) == 0) {
            tx.snapshot = s;
            return;
        }
        traceLockWait(ctx, kSeqLockTraceIndex,
                      cfg_.norec_start_wait ? kNorecWaitCycles : 0);
        if (cfg_.norec_start_wait)
            ctx.delay(kNorecWaitCycles);
        else
            ctx.yield();
    }
}

void
NOrecAlgorithm::validateAndExtend(DpuContext &ctx, TxDescriptor &tx)
{
    const auto prev_phase = ctx.phase();
    ctx.setPhase(sim::Phase::TxValidate);
    for (;;) {
        metaRead(ctx, 8);
        const u64 s = seqlock_;
        if (s & 1) {
            traceLockWait(ctx, kSeqLockTraceIndex, kNorecWaitCycles);
            ctx.delay(kNorecWaitCycles);
            continue;
        }
        // Value-based validation: every previously-read location must
        // still hold the value this transaction observed.
        ++stats_.validations;
        traceValidate(ctx, tx.read_set.size());
        scanCost(ctx, tx.read_set.size(), readEntryBytes());
        for (const auto &e : tx.read_set) {
            const u32 cur = ctx.read32(e.addr);
            if (cur != e.value) {
                txAbort(ctx, tx, AbortReason::ValidationFail,
                        kSeqLockTraceIndex, e.addr);
            }
        }
        // The snapshot is only good if no commit raced the validation.
        metaRead(ctx, 8);
        if (seqlock_ == s) {
            tx.snapshot = s;
            ctx.setPhase(prev_phase);
            return;
        }
    }
}

u32
NOrecAlgorithm::doRead(DpuContext &ctx, TxDescriptor &tx, Addr a)
{
    // Write-back means reads must consult the write set first.
    if (!tx.write_set.empty()) {
        scanCost(ctx, tx.write_set.size(), writeEntryBytes());
        const int w = tx.findWrite(a);
        if (w >= 0)
            return tx.write_set[static_cast<size_t>(w)].value;
    }

    u32 v = ctx.read32(a);
    for (;;) {
        // Compare the global seqlock against the descriptor's snapshot
        // — both live in the metadata tier.
        metaRead(ctx, 16);
        if (seqlock_ == tx.snapshot)
            break;
        // A concurrent commit happened: revalidate, then re-read.
        validateAndExtend(ctx, tx);
        v = ctx.read32(a);
    }

    ReadEntry e;
    e.addr = a;
    e.value = v;
    tx.pushRead(e);
    // Entry plus the descriptor's set-size counter.
    metaWrite(ctx, readEntryBytes() + 8);
    return v;
}

void
NOrecAlgorithm::doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v)
{
    // Buffered (write-back); no lock table, so no lock index.
    recordWrite(ctx, tx, a, v, 0, /*in_place=*/false);
}

void
NOrecAlgorithm::doCommit(DpuContext &ctx, TxDescriptor &tx)
{
    if (tx.write_set.empty())
        return; // invisible reads + valid snapshot: nothing to do

    // Acquire the sequence lock with the emulated CAS: succeed only if
    // it still equals our snapshot; otherwise revalidate and retry.
    const Cycles acquire_from = cfg_.trace ? ctx.now() : 0;
    bool contended = false;
    for (;;) {
        ctx.acquire(kSeqKey);
        metaRead(ctx, 8);
        if (seqlock_ == tx.snapshot) {
            seqlock_ = tx.snapshot + 1;
            metaWrite(ctx, 8);
            ctx.release(kSeqKey);
            break;
        }
        ctx.release(kSeqKey);
        contended = true;
        validateAndExtend(ctx, tx);
    }
    if (cfg_.trace) {
        // Wait = the whole CAS-retry span (revalidation included);
        // 0 when the seqlock was won on the first attempt.
        traceLockAcquire(ctx, kSeqLockTraceIndex,
                        contended ? ctx.now() - acquire_from : 0);
    }

    // Write back under the (odd) sequence lock, so no other commit can
    // interleave with the write-back or its durable record.
    writeBackCommit(ctx, tx);

    // Publish: single writer, so a plain store suffices.
    seqlock_ = tx.snapshot + 2;
    metaWrite(ctx, 8);
}

void
NOrecAlgorithm::doAbortCleanup(DpuContext &, TxDescriptor &)
{
    // Write-back with commit-time locking: nothing to undo or release.
}

void
NOrecAlgorithm::dumpOwnership(std::ostream &os) const
{
    os << "    seqlock=" << seqlock_
       << ((seqlock_ & 1) != 0 ? " (held: commit in progress)" : " (free)")
       << "\n";
}

} // namespace pimstm::core
