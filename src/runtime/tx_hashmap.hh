/**
 * @file
 * A concurrent open-addressing hash map built on the PIM-STM API —
 * the concurrent-data-structure layer the paper's conclusion proposes
 * building on top of PIM-STM. One instance lives in a single DPU's
 * MRAM (transactions are DPU-local by design); the distributed variant
 * in hostapp/distributed_kv.hh shards instances across DPUs.
 *
 * Slots are (key, value) word pairs with linear probing; erased slots
 * become tombstones so probe chains stay intact. All three operations
 * are usable either standalone (own transaction) or compositionally
 * within an enclosing transaction — the composability argument for TM
 * over locks (§1).
 *
 * The probe loops are templated over an accessor so the identical
 * logic serves two access paths:
 *   - TxAccess      word-transactional (tx.read/tx.write), the
 *                   default path every existing caller uses;
 *   - DirectAccess  raw timed accesses (ctx.read32/write32), used by
 *                   runtime::BoostedMap which provides isolation at
 *                   the abstract level instead (docs/boosting.md).
 * The direct path additionally captures displaced values so the
 * boosted layer can log semantic inverse operations.
 */

#ifndef PIMSTM_RUNTIME_TX_HASHMAP_HH
#define PIMSTM_RUNTIME_TX_HASHMAP_HH

#include "core/stm.hh"
#include "runtime/shared_array.hh"

namespace pimstm::runtime
{

/** Accessor running map internals through the word-based STM. */
struct TxAccess
{
    core::TxHandle &tx;
    /** Tx path never captures displaced values (the write log is the
     * undo mechanism); keeps the charge sequence identical to the
     * pre-template implementation. */
    static constexpr bool kCaptureOld = false;

    u32 read(sim::Addr a) { return tx.read(a); }
    void write(sim::Addr a, u32 v) { tx.write(a, v); }
};

/** Accessor running map internals as raw timed accesses. */
struct DirectAccess
{
    sim::DpuContext &ctx;
    static constexpr bool kCaptureOld = true;

    u32 read(sim::Addr a) { return ctx.read32(a); }
    void write(sim::Addr a, u32 v) { ctx.write32(a, v); }
};

/** Outcome of an insert (the boosted layer needs the distinction to
 * pick the right inverse operation). */
enum class InsertOutcome : u8
{
    Inserted, ///< key was absent; a new slot was claimed
    Updated,  ///< key existed; its value was overwritten
    Full,     ///< table full; nothing was mutated
};

/** Transactional open-addressing hash map over one DPU's memory. */
class TxHashMap
{
  public:
    static constexpr u32 kEmpty = 0xffffffffu;
    static constexpr u32 kTombstone = 0xfffffffeu;

    TxHashMap() = default;

    /** Allocate a map of @p capacity slots (power of two) in @p tier. */
    TxHashMap(sim::Dpu &dpu, Tier tier, u32 capacity)
        : capacity_(capacity),
          keys_(dpu, tier, capacity),
          values_(dpu, tier, capacity)
    {
        fatalIf(!isPow2(capacity),
                "TxHashMap capacity must be a power of two");
        keys_.fill(dpu, kEmpty);
        values_.fill(dpu, 0);
    }

    u32 capacity() const { return capacity_; }

    /** Keys may not collide with the slot markers. */
    static bool
    validKey(u32 key)
    {
        return key != kEmpty && key != kTombstone;
    }

    /** Tag this instance for per-structure trace attribution
     * (default StructureId::Map; distributed_kv distinguishes its
     * store and pin tables). */
    void
    setStructureId(core::StructureId sid)
    {
        sid_ = static_cast<u8>(sid);
    }

    /** Insert or update inside @p tx; false when the table is full. */
    bool
    insert(core::TxHandle &tx, u32 key, u32 value)
    {
        core::StructureScope scope(tx.descriptor(),
                                   static_cast<core::StructureId>(sid_));
        TxAccess a{tx};
        u32 old = 0;
        return insertImpl(a, key, value, old) != InsertOutcome::Full;
    }

    /** Lookup inside @p tx; false when absent. */
    bool
    lookup(core::TxHandle &tx, u32 key, u32 &value_out)
    {
        core::StructureScope scope(tx.descriptor(),
                                   static_cast<core::StructureId>(sid_));
        TxAccess a{tx};
        return lookupImpl(a, key, value_out);
    }

    /** Erase inside @p tx; false when absent. */
    bool
    erase(core::TxHandle &tx, u32 key)
    {
        core::StructureScope scope(tx.descriptor(),
                                   static_cast<core::StructureId>(sid_));
        TxAccess a{tx};
        u32 old = 0;
        return eraseImpl(a, key, old);
    }

    /**
     * @{ Direct (raw timed) variants for the boosted layer, which
     * serializes physical probe-chain mutation with a structure latch
     * and provides isolation via abstract locks. The displaced value
     * comes back so the caller can log the inverse operation.
     */
    InsertOutcome
    insertDirect(sim::DpuContext &ctx, u32 key, u32 value, u32 &old_value)
    {
        DirectAccess a{ctx};
        return insertImpl(a, key, value, old_value);
    }

    bool
    lookupDirect(sim::DpuContext &ctx, u32 key, u32 &value_out)
    {
        DirectAccess a{ctx};
        return lookupImpl(a, key, value_out);
    }

    bool
    eraseDirect(sim::DpuContext &ctx, u32 key, u32 &old_value)
    {
        DirectAccess a{ctx};
        return eraseImpl(a, key, old_value);
    }
    /** @} */

    /**
     * Host-side reset to the empty state (all slots kEmpty). Only
     * legal while the DPU is idle — the UPMEM constraint the whole
     * host-coordination layer relies on. Used by coordinators to
     * recycle a quiescent table (e.g. the distributed KV's pin tables
     * between batches) so tombstones from expired entries cannot grow
     * probe chains without bound; callers charge the copy through
     * their cost model.
     */
    void
    clear(sim::Dpu &dpu)
    {
        keys_.fill(dpu, kEmpty);
        values_.fill(dpu, 0);
    }

    /** Untimed host-side population count (verification). */
    u32
    population(sim::Dpu &dpu) const
    {
        u32 n = 0;
        for (u32 i = 0; i < capacity_; ++i)
            if (validKey(keys_.peek(dpu, i)))
                ++n;
        return n;
    }

    /** Untimed host-side lookup (verification). */
    bool
    peekValue(sim::Dpu &dpu, u32 key, u32 &value_out) const
    {
        u32 slot = hash(key);
        for (u32 probe = 0; probe < capacity_; ++probe) {
            const u32 k = keys_.peek(dpu, slot);
            if (k == key) {
                value_out = values_.peek(dpu, slot);
                return true;
            }
            if (k == kEmpty)
                return false;
            slot = (slot + 1) & (capacity_ - 1);
        }
        return false;
    }

  private:
    template <typename A>
    InsertOutcome
    insertImpl(A &a, u32 key, u32 value, u32 &old_value)
    {
        panicIf(!validKey(key), "invalid TxHashMap key");
        u32 slot = hash(key);
        int first_tombstone = -1;
        for (u32 probe = 0; probe < capacity_; ++probe) {
            const u32 k = a.read(keys_.at(slot));
            if (k == key) {
                if constexpr (A::kCaptureOld)
                    old_value = a.read(values_.at(slot));
                a.write(values_.at(slot), value);
                return InsertOutcome::Updated;
            }
            if (k == kTombstone && first_tombstone < 0) {
                first_tombstone = static_cast<int>(slot);
            } else if (k == kEmpty) {
                const u32 target = first_tombstone >= 0
                    ? static_cast<u32>(first_tombstone)
                    : slot;
                a.write(keys_.at(target), key);
                a.write(values_.at(target), value);
                return InsertOutcome::Inserted;
            }
            slot = (slot + 1) & (capacity_ - 1);
        }
        if (first_tombstone >= 0) {
            a.write(keys_.at(static_cast<u32>(first_tombstone)), key);
            a.write(values_.at(static_cast<u32>(first_tombstone)),
                    value);
            return InsertOutcome::Inserted;
        }
        return InsertOutcome::Full;
    }

    template <typename A>
    bool
    lookupImpl(A &a, u32 key, u32 &value_out)
    {
        u32 slot = hash(key);
        for (u32 probe = 0; probe < capacity_; ++probe) {
            const u32 k = a.read(keys_.at(slot));
            if (k == key) {
                value_out = a.read(values_.at(slot));
                return true;
            }
            if (k == kEmpty)
                return false;
            slot = (slot + 1) & (capacity_ - 1);
        }
        return false;
    }

    template <typename A>
    bool
    eraseImpl(A &a, u32 key, u32 &old_value)
    {
        u32 slot = hash(key);
        for (u32 probe = 0; probe < capacity_; ++probe) {
            const u32 k = a.read(keys_.at(slot));
            if (k == key) {
                if constexpr (A::kCaptureOld)
                    old_value = a.read(values_.at(slot));
                a.write(keys_.at(slot), kTombstone);
                return true;
            }
            if (k == kEmpty)
                return false;
            slot = (slot + 1) & (capacity_ - 1);
        }
        return false;
    }

    u32
    hash(u32 key) const
    {
        return (key * 2654435761u) & (capacity_ - 1);
    }

    u32 capacity_ = 0;
    SharedArray32 keys_;
    SharedArray32 values_;
    u8 sid_ = static_cast<u8>(core::StructureId::Map);
};

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_TX_HASHMAP_HH
