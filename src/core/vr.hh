/**
 * @file
 * VR — the Visible-Reads STM designed by the paper (§3.2.1), inspired by
 * classic DBMS lock-based concurrency control and adapted to guarantee
 * opacity. Covers the ORec + visible-reads sub-tree of the taxonomy:
 * ETL+WB, ETL+WT and CTL+WB.
 *
 * Every lock-table entry is the 32-bit rw-lock word of Fig. 3 (reader
 * count + 24-bit reader-identity bitmap, or write owner). Reads acquire
 * the rw-lock in read mode immediately — making them visible — so no
 * readset validation is ever needed: writers simply cannot invalidate a
 * location someone is reading. The price is spurious aborts: any
 * incompatible acquisition (including read->write upgrades while other
 * readers are present) aborts immediately to stay deadlock-free.
 *
 * Lock-word RMWs are bracketed by the DPU atomic register, whose
 * hash-aliasing is faithfully modelled.
 */

#ifndef PIMSTM_CORE_VR_HH
#define PIMSTM_CORE_VR_HH

#include <vector>

#include "core/algorithm.hh"

namespace pimstm::core
{

class VrAlgorithm : public StmAlgorithm
{
  public:
    /** @p kind is one of the VR kinds. */
    VrAlgorithm(Stm &stm, StmKind kind);

    bool encounterTimeLocking() const { return etl_; }
    bool writeBack() const { return wb_; }

    /** Raw lock word (tests only). */
    u32 lockWord(u32 index) const { return table_[index]; }

    /** Non-free rw-lock words in the table (0 when quiescent). */
    unsigned heldOwnershipCount() const override;

    void dumpOwnership(std::ostream &os) const override;

  protected:
    void doStart(DpuContext &ctx, TxDescriptor &tx) override;
    u32 doRead(DpuContext &ctx, TxDescriptor &tx, Addr a) override;
    void doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v) override;
    void doCommit(DpuContext &ctx, TxDescriptor &tx) override;
    void doAbortCleanup(DpuContext &ctx, TxDescriptor &tx) override;

    /** Free every stale rw-lock word after a crash. */
    void
    clearLocksForRecovery() override
    {
        for (u32 &w : table_)
            w = 0;
    }

  private:
    /**
     * Acquire the rw-lock at @p index in read mode. No-op when this
     * tasklet already covers the slot (reader bit set, or write owner).
     * Aborts on a write lock held by another transaction.
     * @param a data address covered by the lock (trace attribution only).
     */
    void readLock(DpuContext &ctx, TxDescriptor &tx, u32 index, Addr a);

    /**
     * Acquire the rw-lock at @p index in write mode, upgrading a sole
     * read lock if needed. Aborts on any incompatible state.
     * @param at_commit selects the abort reason bucket.
     * @param a data address covered by the lock (trace attribution only).
     */
    void writeLock(DpuContext &ctx, TxDescriptor &tx, u32 index,
                   bool at_commit, Addr a);

    /** Release every lock @p tx holds. */
    void releaseAll(DpuContext &ctx, TxDescriptor &tx);

    bool etl_;
    bool wb_;
    std::vector<u32> table_;
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_VR_HH
