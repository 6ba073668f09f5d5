/**
 * @file
 * DurableLog: the per-DPU redo/undo log behind durable transactions
 * (StmConfig::durable, docs/durability.md). It owns the MRAM log
 * region, the record format, each tasklet's slot state and the
 * recovery pass. core::Stm builds one only in durable mode and calls
 * its protocol steps from the write-set plumbing, at the points no
 * start/commit/abort hook reaches: before each in-place write, between
 * validation and apply, and before ownership is released.
 *
 * Slot layout, one slot per tasklet: two 16-byte self-checksummed
 * header copies written ping-pong (so at most one copy is ever
 * unflushed, and a torn header write always leaves the other copy
 * readable), then max_write_set 16-byte entries. Every mirror of MRAM
 * content kept here is host bookkeeping; recovery trusts only the
 * MRAM bytes.
 */

#ifndef PIMSTM_CORE_DURABLE_LOG_HH
#define PIMSTM_CORE_DURABLE_LOG_HH

#include <vector>

#include "core/stm.hh"

namespace pimstm::core
{

class DurableLog
{
  public:
    /** Reserve one slot per tasklet in MRAM (the only tier that
     * survives a crash), sized for a full write set, and arm the MRAM
     * persist boundary: from here on every MRAM write tracks its
     * unflushed lines. Throws FatalError when the region does not
     * fit. */
    DurableLog(sim::Dpu &dpu, const StmConfig &cfg, StmStats &stats);

    /** Write-ahead rule, before a write-through transaction's first
     * in-place store to @p a: append the undo entry and fence it. */
    void logUndo(DpuContext &ctx, const TxDescriptor &tx, Addr a,
                 u32 old_value);

    /** Write-back durability point, before the first in-place write:
     * append the redo image of the write set, seal it with a sequenced
     * commit record and fence. A no-op for an empty write set. */
    void sealRedo(DpuContext &ctx, const TxDescriptor &tx);

    /** Write-through durability point, before ownership is released:
     * fence the in-place writes, then truncate the undo log under a
     * fence of its own. A no-op when the transaction logged nothing. */
    void commitUndo(DpuContext &ctx, unsigned tasklet);

    /** Retire the tasklet's open record once the data it covers is in
     * place (a write-back apply, or a write-through abort's restore):
     * fence that data, then truncate without a fence. Called before
     * ownership is released, since the slot must never outlive the
     * locks protecting the addresses its image names. A no-op on an
     * empty slot. */
    void retire(DpuContext &ctx, unsigned tasklet);

    /** The log pass of Stm::recoverAfterCrash: redo committed logs in
     * commit-sequence order, roll back active undo logs, discard torn
     * records and truncate every slot. Raw, untimed MRAM access
     * followed by a host fence. */
    RecoveryReport recover();

  private:
    /** One tasklet's log slot. */
    struct Slot
    {
        /** MRAM byte offset of the slot (its first header copy). */
        u32 base = 0;
        /** State of the open record: 0 empty, 1 active (undo),
         * 2 committed (redo). */
        u32 state = 0;
        /** Sequence number of the open undo record. */
        u32 seq = 0;
        /** Which header copy the next header write lands in. */
        u8 flip = 0;
        /**
         * Redo-image encoding scratch (host). One buffer per tasklet:
         * writeBlock charges (and may switch fibers) before it copies,
         * so a shared buffer could be resized or overwritten by another
         * tasklet's commit while this one's write is in flight.
         */
        std::vector<u64> scratch;
    };

    /** Write the next header copy of @p slot. */
    void writeHeader(DpuContext &ctx, Slot &slot, u32 seq, u32 entries,
                     u32 state);
    /** Empty header under a fresh sequence number; the slot is then
     * empty. Unfenced: each caller decides whether to fence it. */
    void truncate(DpuContext &ctx, Slot &slot);
    void fence(DpuContext &ctx);
    void trace(DpuContext &ctx, TxEvent event, u32 arg, u64 arg2 = 0);

    sim::Memory &mram_;
    const StmConfig &cfg_;
    StmStats &stats_;
    std::vector<Slot> slots_;
    /** Commit sequence source; headers carry its low 32 bits. */
    u64 seq_ = 0;
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_DURABLE_LOG_HH
