/**
 * @file
 * StmAlgorithm: what one STM design of the taxonomy plugs into the
 * transaction engine (core::Stm). An algorithm supplies the do* hooks
 * the engine runs inside its transaction wrappers, the entry sizes of
 * its read set, write set and lock table, the lock table itself and
 * its ownership introspection. Everything shared across designs —
 * descriptors, statistics, metadata charging, tracing, faults, the
 * serial token, boosting, the durable log and the adaptation knobs —
 * stays in the engine and is reached through the helpers below.
 */

#ifndef PIMSTM_CORE_ALGORITHM_HH
#define PIMSTM_CORE_ALGORITHM_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "core/stm.hh"
#include "util/logging.hh"

namespace pimstm::core
{

class StmAlgorithm
{
  public:
    virtual ~StmAlgorithm() = default;

    StmAlgorithm(const StmAlgorithm &) = delete;
    StmAlgorithm &operator=(const StmAlgorithm &) = delete;

    const char *name() const { return stmKindName(kind_); }

    /**
     * @{ Ownership introspection. The count is the number of ownership
     * records (seqlock / ORecs / rw-lock words) this algorithm holds
     * for any transaction; dumpOwnership appends one line per held
     * record to the watchdog's diagnostic dump.
     */
    virtual unsigned heldOwnershipCount() const { return 0; }
    virtual void dumpOwnership(std::ostream &os) const { (void)os; }
    /** @} */

    /** @{ Entry sizes. Scan and append costs use the algorithm's own;
     * the engine reserves the largest across its candidates. */
    size_t readEntryBytes() const { return read_entry_bytes_; }
    size_t writeEntryBytes() const { return write_entry_bytes_; }
    /** Lock-table entry size (0 = no table, i.e. NOrec). */
    size_t lockTableEntryBytes() const { return lock_entry_bytes_; }
    /** @} */

    /** Entries in the lock table (0 for NOrec). */
    u32 lockTableEntries() const { return lock_table_entries_; }

    /** Map a data address to a lock-table index. Like TinySTM's
     * LOCK_IDX this direct-maps consecutive words to consecutive
     * entries, so a table at least as large as the data has no
     * aliasing at all; smaller tables alias with stride = table size
     * (the paper's memory-vs-aliasing trade-off, ablation A1). */
    u32
    lockIndexFor(Addr a) const
    {
        // With no lock table (NOrec) the mask arithmetic below wraps to
        // 0xffffffff and silently returns garbage — catch the misuse.
        if (lock_table_entries_ == 0) {
            panic("lockIndexFor on an STM without a lock table (",
                  name(), ")");
        }
        return (a >> 2) & (lock_table_entries_ - 1);
    }

  protected:
    StmAlgorithm(Stm &stm, StmKind kind, size_t read_entry_bytes,
                 size_t write_entry_bytes, size_t lock_entry_bytes);

    /** @{ Engine services (see the matching Stm members). */
    void metaRead(DpuContext &ctx, size_t n) { stm_.metaRead(ctx, n); }
    void metaWrite(DpuContext &ctx, size_t n) { stm_.metaWrite(ctx, n); }
    void
    scanCost(DpuContext &ctx, size_t entries, size_t entry_bytes)
    {
        stm_.scanCost(ctx, entries, entry_bytes);
    }
    [[noreturn]] void
    txAbort(DpuContext &ctx, TxDescriptor &tx, AbortReason reason,
            u32 conflict_lock = kNoLockIndex, Addr conflict_addr = 0)
    {
        stm_.txAbort(ctx, tx, reason, conflict_lock, conflict_addr);
    }
    void
    recordWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v,
                u32 lock_index, bool in_place)
    {
        stm_.recordWrite(ctx, tx, a, v, lock_index, write_entry_bytes_,
                         in_place);
    }
    void
    writeBackCommit(DpuContext &ctx, TxDescriptor &tx)
    {
        stm_.writeBackCommit(ctx, tx, write_entry_bytes_);
    }
    void
    writeThroughCommit(DpuContext &ctx, TxDescriptor &tx)
    {
        stm_.writeThroughCommit(ctx, tx);
    }
    void
    writeThroughUndo(DpuContext &ctx, TxDescriptor &tx)
    {
        stm_.writeThroughUndo(ctx, tx);
    }
    /** @} */

    /**
     * @{ Lock-table access cost for entry @p index at the resolved
     * table tier. Index-aware so the adaptation layer can maintain
     * per-entry heat and charge hot entries at WRAM cost after
     * migration; with migration off (the default) this is the plain
     * tier charge plus two never-taken compares.
     */
    void lockTableRead(DpuContext &ctx, u32 index, size_t bytes);
    void lockTableWrite(DpuContext &ctx, u32 index, size_t bytes);
    /** @} */

    /**
     * @{ Trace emission helpers. All are a single null compare when
     * tracing is off; none charge simulated cost. NOrec reports its
     * global seqlock as index 0.
     */
    void
    traceLockAcquire(DpuContext &ctx, u32 index, Cycles wait_cycles)
    {
        if (cfg_.trace) {
            cfg_.trace->record(ctx.now(), ctx.taskletId(),
                               TxEvent::LockAcquire, index, wait_cycles);
            cfg_.trace->noteLockAcquire(index, wait_cycles);
        }
    }

    void
    traceLockWait(DpuContext &ctx, u32 index, Cycles cycles)
    {
        // Host-side contention tally for the epoch controller — the
        // wait itself is charged by the caller; counting it here never
        // changes the charge sequence.
        ++stats_.lock_waits;
        stats_.lock_wait_cycles += cycles;
        if (cfg_.trace) {
            cfg_.trace->record(ctx.now(), ctx.taskletId(),
                               TxEvent::LockWait, index, cycles);
            cfg_.trace->noteLockWait(index, cycles);
        }
    }

    void
    traceValidate(DpuContext &ctx, size_t entries)
    {
        if (cfg_.trace) {
            cfg_.trace->record(ctx.now(), ctx.taskletId(),
                               TxEvent::Validate,
                               static_cast<u32>(entries));
        }
    }
    /** @} */

    Stm &stm_;
    /** The engine's live configuration (the adaptation hooks mutate it). */
    const StmConfig &cfg_;
    StmStats &stats_;

  private:
    friend class Stm;

    /** @{ Algorithm hooks, run by the engine's transaction wrappers.
     * doCommit/doRead/doWrite may abort by calling txAbort(), which
     * cleans up via doAbortCleanup() and throws. */
    virtual void doStart(DpuContext &ctx, TxDescriptor &tx) = 0;
    virtual u32 doRead(DpuContext &ctx, TxDescriptor &tx, Addr a) = 0;
    virtual void doWrite(DpuContext &ctx, TxDescriptor &tx, Addr a,
                         u32 v) = 0;
    virtual void doCommit(DpuContext &ctx, TxDescriptor &tx) = 0;
    virtual void doAbortCleanup(DpuContext &ctx, TxDescriptor &tx) = 0;
    /** @} */

    /** Reset every ownership record to the free state after a crash.
     * The records are host-side vectors, so they survive the simulated
     * power loss — but only as stale bookkeeping of transactions that
     * no longer exist. */
    virtual void clearLocksForRecovery() {}

    /** Adopt the engine's resolved table tier and, when the WRAM
     * hot-lock cache was reserved, allocate heat and migration state. */
    void initLockAdaptState(Tier table_tier, bool migrate);

    /** Record promotion/demotion intents (see Stm::migrateLocks). */
    void migrateLocks(const std::vector<u32> &promote,
                      const std::vector<u32> &demote);

    /** @{ Hot-lock migration state (docs/adaptive.md). kHot entries
     * charge WRAM cost; pending entries pay the tier transfer on their
     * first access after the epoch decision (settleMigration). */
    static constexpr u8 kCold = 0;
    static constexpr u8 kHot = 1;
    static constexpr u8 kPromotePending = 2;
    static constexpr u8 kDemotePending = 3;

    void settleMigration(DpuContext &ctx, u32 index);
    /** @} */

    const StmKind kind_;
    const size_t read_entry_bytes_;
    const size_t write_entry_bytes_;
    const size_t lock_entry_bytes_;
    const u32 lock_table_entries_;
    Tier lock_table_tier_ = Tier::Mram;
    /** Per-entry access counts (empty = migration off). */
    std::vector<u32> lock_heat_;
    /** Per-entry migration state (empty = migration off). */
    std::vector<u8> hot_state_;
};

/** The algorithm implementing @p kind, bound to the engine @p stm. */
std::unique_ptr<StmAlgorithm> makeAlgorithm(Stm &stm, StmKind kind);

} // namespace pimstm::core

#endif // PIMSTM_CORE_ALGORITHM_HH
