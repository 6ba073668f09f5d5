/**
 * @file
 * NOrec (Dalessandro, Spear & Scott, PPoPP'10) ported to the (simulated)
 * UPMEM DPU, as in §3.2.1 of the paper.
 *
 * A single global sequence lock serializes the commit phase of update
 * transactions; reads are invisible and consistency is ensured by
 * value-based revalidation of the read set whenever a concurrent commit
 * is detected. Commit-time locking + write-back minimize the time the
 * sequence lock is held. The sequence lock doubles as a contention
 * manager: transactions optionally wait for it to be free before
 * starting (StmConfig::norec_start_wait, ablation A2).
 *
 * The CAS the CPU algorithm uses on the sequence lock does not exist on
 * UPMEM; it is emulated with an acquire/release bracket on the atomic
 * register, as §3.2.1 describes.
 */

#ifndef PIMSTM_CORE_NOREC_HH
#define PIMSTM_CORE_NOREC_HH

#include "core/algorithm.hh"

namespace pimstm::core
{

class NOrecAlgorithm : public StmAlgorithm
{
  public:
    /** Read and write entries are addr + value; no lock table. */
    explicit NOrecAlgorithm(Stm &stm)
        : StmAlgorithm(stm, StmKind::NOrec, 8, 8, 0)
    {}

    /** Current sequence-lock value (tests only). */
    u64 seqlock() const { return seqlock_; }

    /** The sequence lock is NOrec's only ownership record: held while
     * odd (a write-back in progress). */
    unsigned
    heldOwnershipCount() const override
    {
        return (seqlock_ & 1) != 0 ? 1 : 0;
    }

    void dumpOwnership(std::ostream &os) const override;

  protected:
    void doStart(DpuContext &ctx, TxDescriptor &tx) override;
    u32 doRead(DpuContext &ctx, TxDescriptor &tx, Addr a) override;
    void doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v) override;
    void doCommit(DpuContext &ctx, TxDescriptor &tx) override;
    void doAbortCleanup(DpuContext &ctx, TxDescriptor &tx) override;

    /** A crash mid-commit leaves the seqlock odd; recovery frees it by
     * advancing to the next even value (the write-back it guarded was
     * redone or discarded from the log, so readers restart cleanly). */
    void
    clearLocksForRecovery() override
    {
        seqlock_ += (seqlock_ & 1);
    }

  private:
    /**
     * Wait for an even (free) sequence lock, validate the read set
     * against current memory values, and adopt the new snapshot.
     * Aborts the transaction on validation failure.
     */
    void validateAndExtend(DpuContext &ctx, TxDescriptor &tx);

    /** Atomic-register key guarding sequence-lock CAS emulation. */
    static constexpr u32 kSeqKey = 0x5e91ccccu;

    /** The trace layer's lock index for the global seqlock (NOrec has
     * no lock table, so contention is attributed to a single cell). */
    static constexpr u32 kSeqLockTraceIndex = 0;

    u64 seqlock_ = 0; // even = free, odd = commit in progress
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_NOREC_HH
