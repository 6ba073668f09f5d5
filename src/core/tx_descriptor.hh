/**
 * @file
 * Per-tasklet transaction descriptor: read set, write set, held locks
 * and snapshot bounds. One struct serves all seven algorithms; each
 * algorithm uses the fields it needs (NOrec: value-based read set;
 * Tiny: version-based read set + write orecs; VR: lock list only).
 *
 * The entry *values* live in host memory (the simulation is
 * single-threaded), but every append / lookup / scan is priced at the
 * configured metadata tier by the Stm base class, and the capacity is
 * reserved in simulated memory so WRAM placement fails exactly when the
 * paper says it must.
 *
 * Lookup cost model vs host cost
 * ------------------------------
 * findWrite() is answered from an O(1) epoch-invalidated hash index
 * (util::EpochIndex) so the *host* never walks the write set, while
 * the callers keep charging the *simulated* machine the exact same
 * linear scanCost() as before — the simulated DPU has no hash index,
 * only contiguous sets it must stream. No algorithm asks whether an
 * address was read, so the read set has no index. findWriteLinear() is
 * the linear-scan reference implementation kept for differential
 * tests, and setCrossCheck(true) makes every indexed lookup verify
 * itself against the linear answer.
 */

#ifndef PIMSTM_CORE_TX_DESCRIPTOR_HH
#define PIMSTM_CORE_TX_DESCRIPTOR_HH

#include <atomic>
#include <functional>
#include <vector>

#include "sim/addr.hh"
#include "util/epoch_index.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace pimstm::sim
{
class DpuContext;
}

namespace pimstm::core
{

/**
 * Owner-side release hook for abstract (semantic) locks held by a
 * boosted transaction. Implemented by runtime::AbstractLockManager;
 * declared here so the Stm commit/abort wrappers can hand locks back
 * without the core depending on the runtime layer (docs/boosting.md).
 */
class SemanticLockOwner
{
  public:
    virtual ~SemanticLockOwner() = default;

    /** Release the @p stripe lock held by @p tasklet in the given
     * mode, charging the release at the owner's metadata tier. */
    virtual void releaseAbstract(sim::DpuContext &ctx, unsigned tasklet,
                                 u32 stripe, bool exclusive) = 0;
};

/** One abstract lock held by the transaction (2PL: released only at
 * commit/abort, in reverse acquisition order). */
struct SemanticLock
{
    SemanticLockOwner *owner = nullptr;
    u32 stripe = 0;
    bool exclusive = false;
};

/** One semantic undo-log entry: the inverse of an eagerly applied
 * boosted operation (erase-for-insert, reinsert-for-erase, ...),
 * replayed LIFO on abort after word-level rollback. The closure
 * charges its own simulated accesses; the log-scan cost is charged by
 * Stm::txAbort. */
struct SemanticUndo
{
    std::function<void(sim::DpuContext &)> apply;
    /** StructureId of the structure the operation mutated. */
    u8 structure = 0;
};

/** One read-set entry. */
struct ReadEntry
{
    sim::Addr addr = 0;
    /** Value observed (NOrec value-based validation). */
    u32 value = 0;
    /** ORec version observed (Tiny). */
    u64 version = 0;
    /** Lock-table index of addr (Tiny; avoids rehashing). */
    u32 lock_index = 0;
};

/** One write-set entry (WB: new value buffered; WT: undo value). */
struct WriteEntry
{
    sim::Addr addr = 0;
    /** New value (write-back). */
    u32 value = 0;
    /** Previous memory value (write-through undo). */
    u32 old_value = 0;
    /** ORec version before acquisition (Tiny WT abort path). */
    u64 old_version = 0;
    /** Lock-table index of addr. */
    u32 lock_index = 0;
};

/** A lock held by the transaction (lock-table index + mode). */
struct HeldLock
{
    u32 index = 0;
    bool write_mode = false;
};

/** Per-tasklet transaction context. */
class TxDescriptor
{
  public:
    TxDescriptor(unsigned tasklet, unsigned rs_cap, unsigned ws_cap)
        : tasklet_(tasklet), rs_cap_(rs_cap), ws_cap_(ws_cap)
    {
        read_set.reserve(rs_cap);
        write_set.reserve(ws_cap);
        locks.reserve(static_cast<size_t>(rs_cap) + ws_cap);
        write_index_.init(ws_cap);
    }

    unsigned tasklet() const { return tasklet_; }

    /** Reset for a fresh transaction attempt. O(1): the write-set index
     * is invalidated by bumping its epoch, not by re-zeroing. */
    void
    reset()
    {
        read_set.clear();
        write_set.clear();
        locks.clear();
        write_index_.clear();
        snapshot = 0;
        upper = 0;
        read_only = true;
        irrevocable = false;
    }

    /** Append to the read set, enforcing the reserved capacity. */
    void
    pushRead(const ReadEntry &e)
    {
        fatalIf(read_set.size() >= rs_cap_,
                "read-set overflow (capacity ", rs_cap_,
                "); raise StmConfig::max_read_set");
        read_set.push_back(e);
    }

    /** Append to the write set, enforcing the reserved capacity. */
    void
    pushWrite(const WriteEntry &e)
    {
        fatalIf(write_set.size() >= ws_cap_,
                "write-set overflow (capacity ", ws_cap_,
                "); raise StmConfig::max_write_set");
        write_index_.insert(e.addr,
                            static_cast<u32>(write_set.size()));
        write_set.push_back(e);
    }

    /** Write-set lookup; returns index or -1. O(1) hash probe on the
     * host; the *simulated cost* of the scan is charged by the caller
     * (it depends on the metadata tier). */
    int
    findWrite(sim::Addr a) const
    {
        const int w = write_index_.find(a);
        if (cross_check_.load(std::memory_order_relaxed)) {
            const int ref = findWriteLinear(a);
            panicIf(w != ref, "tx write-set index diverged from linear ",
                    "scan: addr ", a, " index says ", w, ", scan says ",
                    ref);
        }
        return w;
    }

    /** Linear-scan reference implementation (differential tests). */
    int
    findWriteLinear(sim::Addr a) const
    {
        for (size_t i = 0; i < write_set.size(); ++i)
            if (write_set[i].addr == a)
                return static_cast<int>(i);
        return -1;
    }

    /** When enabled, every indexed lookup re-runs the linear scan and
     * panics on divergence. Host-side debug knob for tests; applies to
     * all descriptors process-wide. */
    static void
    setCrossCheck(bool on)
    {
        cross_check_.store(on, std::memory_order_relaxed);
    }

    /** Host-side probe statistics of the write-set index. */
    util::EpochIndexStats indexStats() const { return write_index_.stats(); }

    unsigned readCapacity() const { return rs_cap_; }
    unsigned writeCapacity() const { return ws_cap_; }

    std::vector<ReadEntry> read_set;
    std::vector<WriteEntry> write_set;
    std::vector<HeldLock> locks;

    /**
     * @{ Transactional-boosting state (empty unless StmConfig::boosting
     * is on). Both are owned by the Stm commit/abort wrappers — commit
     * discards the undo log and releases the locks, abort replays the
     * log LIFO (locks still held) and then releases — so they are
     * always empty by the time reset() runs a fresh attempt.
     */
    std::vector<SemanticLock> semantic_locks;
    std::vector<SemanticUndo> semantic_undo;
    /** @} */

    /** StructureId of the tagged data structure the transaction is
     * currently operating inside (0 = none). Host-only: feeds trace
     * events and per-structure abort attribution; set/restored by
     * core::StructureScope. */
    u8 structure = 0;

    /** Snapshot timestamp (NOrec seqlock value / Tiny lower bound). */
    u64 snapshot = 0;
    /** Tiny snapshot upper bound (extensible). */
    u64 upper = 0;
    /** True until the first write. */
    bool read_only = true;

    /** Consecutive aborts of the current atomic block (drives the
     * randomized retry back-off; cleared on commit, not by reset()). */
    u64 retries = 0;

    /** True while running in serial-irrevocable mode: the tasklet holds
     * the global token, accesses go direct, and the transaction cannot
     * abort (StmConfig::serial_fallback_after). */
    bool irrevocable = false;

    /** Simulated cycle this attempt's txStart completed at. Host-only
     * observability (the tx-latency histogram when tracing is on);
     * never read by any algorithm. */
    u64 trace_start_cycle = 0;

  private:
    inline static std::atomic<bool> cross_check_{false};

    unsigned tasklet_;
    unsigned rs_cap_;
    unsigned ws_cap_;

    /** addr -> write-set entry index (unique per address). */
    util::EpochIndex<sim::Addr> write_index_;
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_TX_DESCRIPTOR_HH
