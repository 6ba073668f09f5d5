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
 *
 * size() is backed by optional per-tasklet sharded counters: each
 * tasklet increments its own shard word, so concurrent inserts to
 * different keys no longer collide on one shared counter word (a
 * standing false-conflict hotspot when callers kept an external
 * count); size() sums the shards transactionally on read. Shards are
 * u32 words updated with wrapping arithmetic — an individual shard
 * may underflow when one tasklet erases what another inserted, but
 * the mod-2^32 sum is exact.
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
    unsigned taskletId() { return tx.ctx().taskletId(); }
};

/** Accessor running map internals as raw timed accesses. */
struct DirectAccess
{
    sim::DpuContext &ctx;
    static constexpr bool kCaptureOld = true;

    u32 read(sim::Addr a) { return ctx.read32(a); }
    void write(sim::Addr a, u32 v) { ctx.write32(a, v); }
    unsigned taskletId() { return ctx.taskletId(); }
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

    /**
     * Allocate @p shards per-tasklet size-counter words in @p tier and
     * start maintaining them. Opt-in (and only legal on an empty map)
     * so maps that never call size() pay nothing — and existing
     * memory layouts stay bitwise identical.
     */
    void
    enableSizeCounters(sim::Dpu &dpu, Tier tier, u32 shards)
    {
        panicIf(shards == 0, "TxHashMap size counters need >= 1 shard");
        panicIf(size_shard_count_ != 0,
                "TxHashMap size counters enabled twice");
        panicIf(population(dpu) != 0,
                "TxHashMap size counters must be enabled while empty");
        size_shard_count_ = shards;
        size_shards_ = SharedArray32(dpu, tier, shards);
        size_shards_.fill(dpu, 0);
    }

    bool sizeCountersEnabled() const { return size_shard_count_ != 0; }

    /** @{ Counter-shard layout, for the boosted layer's direct
     * summing (BoostedMap::size holds every stripe shared instead of
     * reading the shards transactionally). */
    u32 sizeShardCount() const { return size_shard_count_; }

    sim::Addr
    sizeShardAddr(u32 shard) const
    {
        return size_shards_.at(shard);
    }
    /** @} */

    /** Sum the sharded counters transactionally. */
    u32
    size(core::TxHandle &tx)
    {
        panicIf(size_shard_count_ == 0,
                "TxHashMap::size() without enableSizeCounters()");
        core::StructureScope scope(tx.descriptor(),
                                   static_cast<core::StructureId>(sid_));
        u32 n = 0;
        for (u32 s = 0; s < size_shard_count_; ++s)
            n += tx.read(size_shards_.at(s));
        return n;
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
        if (size_shard_count_ != 0)
            size_shards_.fill(dpu, 0);
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
                bumpSize(a, 1);
                return InsertOutcome::Inserted;
            }
            slot = (slot + 1) & (capacity_ - 1);
        }
        if (first_tombstone >= 0) {
            a.write(keys_.at(static_cast<u32>(first_tombstone)), key);
            a.write(values_.at(static_cast<u32>(first_tombstone)),
                    value);
            bumpSize(a, 1);
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
                bumpSize(a, static_cast<u32>(-1));
                return true;
            }
            if (k == kEmpty)
                return false;
            slot = (slot + 1) & (capacity_ - 1);
        }
        return false;
    }

    /** Wrapping add to the calling tasklet's counter shard; a no-op
     * (and charge-free) unless counters were enabled. */
    template <typename A>
    void
    bumpSize(A &a, u32 delta)
    {
        if (size_shard_count_ == 0)
            return;
        const sim::Addr c =
            size_shards_.at(a.taskletId() % size_shard_count_);
        a.write(c, a.read(c) + delta);
    }

    u32
    hash(u32 key) const
    {
        return (key * 2654435761u) & (capacity_ - 1);
    }

    u32 capacity_ = 0;
    SharedArray32 keys_;
    SharedArray32 values_;
    SharedArray32 size_shards_;
    u32 size_shard_count_ = 0;
    u8 sid_ = static_cast<u8>(core::StructureId::Map);
};

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_TX_HASHMAP_HH
