/**
 * @file
 * Transactional boosting (Herlihy & Koskinen, PPoPP'08) over PIM-STM:
 * a library of boosted data structures that provide transaction-safe
 * operations at the *abstract* level — striped abstract locks decide
 * conflicts by operation semantics (two inserts to different keys
 * commute and never conflict), operations apply eagerly with raw timed
 * accesses, and a semantic undo log of inverse operations restores the
 * abstract state on abort. This removes the word-level false conflicts
 * that dominate high-contention structure workloads under every one of
 * the paper's seven STMs (probe chains, counters, head/tail words).
 *
 * Protocol (docs/boosting.md has the full rules):
 *  - Abstract locks are strict two-phase: acquired before the
 *    operation applies, released only by the Stm commit/abort wrappers
 *    (core::SemanticLockOwner), in reverse acquisition order.
 *  - A held stripe is polled core::kBoostWaitPolls times,
 *    cm_wait_cycles apart; on timeout the transaction aborts with
 *    AbortReason::BoostTimeout and retries through the normal
 *    atomically() loop (back-off breaks symmetric deadlocks).
 *  - Multi-stripe acquisitions sort stripes ascending, so lock order
 *    is deterministic and deadlock-free for every composed operation.
 *  - Physical probe-chain mutation is serialized by a short structure
 *    latch (sim::AtomicRegister key) held only for the duration of the
 *    physical operation — never across an abort point.
 *  - Every probe/update of a stripe word and every undo replay is
 *    charged through the simulated cost model at the stripe table's
 *    tier, so boosted and word-based runs are comparable
 *    cycle-for-cycle.
 *
 * Irrevocable (serial-fallback) transactions skip both locks and undo
 * logging: they run solo after a quiesce, so exclusivity is implied
 * and abort is impossible.
 */

#ifndef PIMSTM_RUNTIME_BOOSTED_HH
#define PIMSTM_RUNTIME_BOOSTED_HH

#include <functional>
#include <vector>

#include "core/stm.hh"
#include "runtime/shared_array.hh"
#include "runtime/tx_hashmap.hh"

namespace pimstm::runtime
{

/** Deterministic atomic-register key for a structure's physical latch
 * (distinct per structure id; @p instance disambiguates multiple
 * structures of the same kind on one DPU). */
constexpr u32
boostLatchKey(core::StructureId sid, u32 instance = 0)
{
    return 0xb0057000u + (static_cast<u32>(sid) << 4) + instance;
}

/** RAII over the structure latch: a short critical section that
 * serializes physical (multi-word) mutation of a boosted structure.
 * Must never enclose an abort point. */
class LatchGuard
{
  public:
    LatchGuard(sim::DpuContext &ctx, u32 key) : ctx_(ctx), key_(key)
    {
        ctx_.acquire(key_);
    }

    ~LatchGuard() { ctx_.release(key_); }

    LatchGuard(const LatchGuard &) = delete;
    LatchGuard &operator=(const LatchGuard &) = delete;

  private:
    sim::DpuContext &ctx_;
    u32 key_;
};

/**
 * Striped abstract-lock table for one boosted structure. Keys hash to
 * one of a power-of-two number of stripes; each stripe is a
 * reader-writer lock (readers = commuting operations, writer =
 * non-commuting). Stripe state lives in host memory — the fiber
 * scheduler only switches at cost-charge points, so the
 * inspect-then-mutate sequences below are atomic by construction — but
 * a simulated twin of 8 bytes per stripe is reserved and every probe
 * and update is charged against it, so the abstract locks cost what
 * they would cost on the DPU.
 */
class AbstractLockManager final : public core::SemanticLockOwner
{
  public:
    /** Reserve @p stripes stripe words (power of two) in @p tier of
     * @p dpu. The default tier is MRAM: stripe tables are small but
     * must never evict descriptors from a tight WRAM budget. */
    AbstractLockManager(sim::Dpu &dpu, core::Stm &stm,
                        core::StructureId sid, u32 stripes = 64,
                        Tier tier = Tier::Mram);

    u32 numStripes() const { return stripes_; }

    /** Host-pure stripe hash (exposed for the fiber-free tests). */
    static u32
    stripeHash(u32 key)
    {
        return (key * 2654435761u) >> 16;
    }

    u32 stripeOf(u32 key) const { return stripeHash(key) & (stripes_ - 1); }

    /** Acquire the stripe covering @p key (2PL; released at
     * commit/abort). Aborts the transaction on poll timeout. */
    void
    acquireKey(core::TxHandle &tx, u32 key, bool exclusive)
    {
        acquireStripe(tx, stripeOf(key), exclusive);
    }

    /** Acquire one stripe by index; reentrant (holding exclusive
     * covers a shared request; shared-to-exclusive upgrades in
     * place). */
    void acquireStripe(core::TxHandle &tx, u32 stripe, bool exclusive);

    /** Acquire the stripes covering @p n keys in ascending stripe
     * order (deduplicated) — the deterministic multi-lock order that
     * keeps composed operations deadlock-free. */
    void acquireKeys(core::TxHandle &tx, const u32 *keys, size_t n,
                     bool exclusive);

    /**
     * Release a *shared* stripe hold before commit. Only legal for
     * validation reads whose answer stays correct once released (a
     * monotone bound — see BoostedQueue's empty check); a no-op when
     * the transaction holds the stripe exclusively.
     */
    void earlyReleaseShared(core::TxHandle &tx, u32 stripe);

    /** SemanticLockOwner: hand back a stripe at commit/abort. */
    void releaseAbstract(sim::DpuContext &ctx, unsigned tasklet,
                         u32 stripe, bool exclusive) override;

    /** True when no stripe is held (tests assert this at quiesce). */
    bool quiescent() const;

  private:
    struct Stripe
    {
        /** Tasklet holding the stripe exclusively, -1 when none. */
        int writer = -1;
        /** Bitmask of tasklets holding the stripe shared. */
        u32 readers = 0;
    };

    /** Charge one 8-byte probe (read) or update (write) of a stripe
     * word at the table's tier. */
    void chargeProbe(sim::DpuContext &ctx);
    void chargeUpdate(sim::DpuContext &ctx);

    core::Stm &stm_;
    core::StructureId sid_;
    u32 stripes_;
    Tier tier_;
    /** Simulated twin of the stripe table (2 words per stripe). */
    SharedArray32 words_;
    std::vector<Stripe> state_;
};

/**
 * Boosted view of a TxHashMap: key-granular abstract locks (lookups
 * share, mutations exclude), eager physical operations under the
 * structure latch, inverse operations logged for abort. Commuting
 * operations on different keys proceed in parallel without ever
 * conflicting at the STM word level.
 *
 * The underlying map must not be accessed through its word-based
 * transactional interface while boosted transactions are in flight —
 * the two isolation schemes do not compose within one run.
 */
class BoostedMap
{
  public:
    BoostedMap(sim::Dpu &dpu, core::Stm &stm, TxHashMap &map,
               u32 stripes = 64,
               core::StructureId sid = core::StructureId::Map,
               u32 latch_instance = 0);

    /** Insert or update; false when the table is full. @p outcome
     * (when non-null) reports which case applied. */
    bool insert(core::TxHandle &tx, u32 key, u32 value,
                InsertOutcome *outcome = nullptr);

    /** Lookup under a shared key lock; false when absent. */
    bool lookup(core::TxHandle &tx, u32 key, u32 &value_out);

    /** Erase; false when absent. */
    bool erase(core::TxHandle &tx, u32 key);

    /**
     * Element count (requires enableSizeCounters on the underlying
     * map). Inherently non-commuting with every mutation: acquires all
     * stripes shared — a whole-structure read lock — then sums the
     * counter shards directly.
     */
    u32 size(core::TxHandle &tx);

    AbstractLockManager &locks() { return locks_; }
    TxHashMap &map() { return map_; }

  private:
    void logUndo(core::TxHandle &tx,
                 std::function<void(sim::DpuContext &)> apply);

    TxHashMap &map_;
    AbstractLockManager locks_;
    core::StructureId sid_;
    u32 latch_key_;
};

/** Boosted set: a BoostedMap with unit values and set vocabulary. */
class BoostedSet
{
  public:
    BoostedSet(sim::Dpu &dpu, core::Stm &stm, TxHashMap &map,
               u32 stripes = 64, u32 latch_instance = 0)
        : inner_(dpu, stm, map, stripes, core::StructureId::Set,
                 latch_instance)
    {
        map.setStructureId(core::StructureId::Set);
    }

    /** True when @p value was newly added. */
    bool
    add(core::TxHandle &tx, u32 value)
    {
        InsertOutcome out = InsertOutcome::Full;
        inner_.insert(tx, value, 1, &out);
        return out == InsertOutcome::Inserted;
    }

    bool
    contains(core::TxHandle &tx, u32 value)
    {
        u32 ignored = 0;
        return inner_.lookup(tx, value, ignored);
    }

    /** True when @p value was present. */
    bool
    remove(core::TxHandle &tx, u32 value)
    {
        return inner_.erase(tx, value);
    }

    u32 size(core::TxHandle &tx) { return inner_.size(tx); }

    AbstractLockManager &locks() { return inner_.locks(); }

  private:
    BoostedMap inner_;
};

/**
 * Boosted FIFO ring queue with the classic two-lock protocol: enqueue
 * holds only the tail lock, dequeue holds the head lock plus a
 * momentary shared tail probe for the empty check (released early when
 * the queue is observably non-empty; held to commit when the answer
 * was "empty", the one non-commuting boundary case). Enqueues and
 * dequeues on a non-empty queue commute and run in parallel.
 *
 * Capacity contract: the ring never recycles slots under concurrent
 * retreat, so the caller must size @p capacity to bound
 * (enqueues - dequeues) at every instant; overflow is a panic, not a
 * "full" return. Undo is pointer retreat — the slot value itself is
 * still in place.
 */
class BoostedQueue
{
  public:
    BoostedQueue(sim::Dpu &dpu, core::Stm &stm, Tier tier, u32 capacity);

    /** Append @p value (panics on ring overflow; see class docs). */
    void enqueue(core::TxHandle &tx, u32 value);

    /** Pop the oldest value; false when empty. */
    bool dequeue(core::TxHandle &tx, u32 &value_out);

    u32 capacity() const { return capacity_; }

    /** Untimed host-side element count (verification). */
    u32
    sizeHost(sim::Dpu &dpu) const
    {
        return words_.peek(dpu, kTailWord) - words_.peek(dpu, kHeadWord);
    }

    AbstractLockManager &locks() { return locks_; }

  private:
    static constexpr u32 kHeadWord = 0;
    static constexpr u32 kTailWord = 1;
    static constexpr u32 kSlot0 = 2;
    static constexpr u32 kHeadStripe = 0;
    static constexpr u32 kTailStripe = 1;

    void logUndo(core::TxHandle &tx,
                 std::function<void(sim::DpuContext &)> apply);

    u32 capacity_;
    /** [0]=head, [1]=tail, [2..2+capacity) = slots. */
    SharedArray32 words_;
    AbstractLockManager locks_;
};

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_BOOSTED_HH
