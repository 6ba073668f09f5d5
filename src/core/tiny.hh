/**
 * @file
 * Tiny (TinySTM / LSA — Felber, Fetzer, Marlier & Riegel) ported to the
 * simulated UPMEM DPU, covering the ORec + invisible-reads sub-tree of
 * the taxonomy: ETL+WB, ETL+WT and CTL+WB (WT+CTL would expose
 * uncommitted writes and is invalid, per Fig. 2).
 *
 * Each ORec in the hashed lock table carries a lock bit, an owner and a
 * version timestamp drawn from a global version clock. Transactions
 * keep a [snapshot, upper] validity window; reading a location with a
 * newer version triggers *snapshot extension*: the read set is
 * revalidated and, if intact, the window is extended instead of
 * aborting (Tiny's main advantage over TL2).
 *
 * ORec lock words are updated under an acquire/release bracket on the
 * atomic register (the emulated CAS of §3.2.1); the global clock is
 * bumped the same way at commit.
 */

#ifndef PIMSTM_CORE_TINY_HH
#define PIMSTM_CORE_TINY_HH

#include <vector>

#include "core/algorithm.hh"

namespace pimstm::core
{

class TinyAlgorithm : public StmAlgorithm
{
  public:
    /** @p kind is one of the Tiny kinds or TL2. */
    TinyAlgorithm(Stm &stm, StmKind kind);

    bool encounterTimeLocking() const { return etl_; }
    bool writeBack() const { return wb_; }
    /** True for the TL2 variant (no snapshot extension). */
    bool noExtension() const { return no_extend_; }

    /** Current global version clock (tests only). */
    u64 clock() const { return clock_; }

    /** ORec state (tests only). */
    bool orecLocked(u32 index) const { return table_[index].locked; }
    u64 orecVersion(u32 index) const { return table_[index].version; }

    /** Locked ORecs in the table (0 when quiescent). */
    unsigned heldOwnershipCount() const override;

    void dumpOwnership(std::ostream &os) const override;

  protected:
    void doStart(DpuContext &ctx, TxDescriptor &tx) override;
    u32 doRead(DpuContext &ctx, TxDescriptor &tx, Addr a) override;
    void doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v) override;
    void doCommit(DpuContext &ctx, TxDescriptor &tx) override;
    void doAbortCleanup(DpuContext &ctx, TxDescriptor &tx) override;

    /** Drop every stale lock bit after a crash; versions are kept (a
     * crashed owner never advanced them, exactly like an abort). */
    void
    clearLocksForRecovery() override
    {
        for (Orec &o : table_)
            o.locked = false;
    }

  private:
    /** One ownership record. The version is only advanced at commit;
     * an aborting owner just clears the lock bit, leaving the version
     * untouched, so concurrent readers stay consistent. */
    struct Orec
    {
        bool locked = false;
        u8 owner = 0;
        u64 version = 0;
    };

    /** Bump the global clock by one, atomically; returns the new value. */
    u64 incrementClock(DpuContext &ctx);

    /**
     * Snapshot extension: revalidate the read set at the current clock
     * and extend the upper bound. Aborts on validation failure.
     */
    void extend(DpuContext &ctx, TxDescriptor &tx);

    /** Validate every read-set entry's ORec (version unchanged, not
     * locked by another transaction). Aborts on failure. */
    void validate(DpuContext &ctx, TxDescriptor &tx);

    /** Acquire the ORec at @p index for @p tx; true on success, false
     * when held by another transaction. Registers the lock in tx. */
    bool acquireOrec(DpuContext &ctx, TxDescriptor &tx, u32 index);

    /** Atomic-register key for the global clock. */
    static constexpr u32 kClockKey = 0xc10cc10cu;

    bool etl_;
    bool wb_;
    /** TL2 mode: abort instead of extending the snapshot window. */
    bool no_extend_ = false;
    u64 clock_ = 0;
    std::vector<Orec> table_;
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_TINY_HH
