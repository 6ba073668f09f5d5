/**
 * @file
 * Epoch-invalidated open-addressing hash index, mapping keys to small
 * integer values (typically "index of the entry in a companion vector").
 *
 * Designed for the transactional-set hot path: lookups and inserts are
 * O(1) linear probes, and clear() is O(1) — it bumps an epoch counter
 * instead of re-zeroing the table, so a transaction retry loop that
 * resets its read/write sets thousands of times per second never pays
 * for the table size. Host-side only: the *simulated* cost of set
 * lookups is still charged by the caller (Stm::scanCost et al.); this
 * structure exists so the host does not pay O(n) per lookup for a scan
 * the simulated machine is already being billed for.
 */

#ifndef PIMSTM_UTIL_EPOCH_INDEX_HH
#define PIMSTM_UTIL_EPOCH_INDEX_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace pimstm::util
{

/** Host-side probe counters (observability for --perf-json). */
struct EpochIndexStats
{
    u64 lookups = 0;   ///< find() calls
    u64 probes = 0;    ///< slots inspected across all find() calls
    u64 inserts = 0;   ///< insert() calls
    u64 max_probe = 0; ///< longest single find() probe sequence

    EpochIndexStats &
    operator+=(const EpochIndexStats &o)
    {
        lookups += o.lookups;
        probes += o.probes;
        inserts += o.inserts;
        max_probe = max_probe > o.max_probe ? max_probe : o.max_probe;
        return *this;
    }
};

/**
 * Open-addressing index from Key to a u32 value. Keys are integral or
 * pointer types. Duplicate inserts keep the first value (matching
 * read-set semantics, where only the first entry for an address
 * matters); callers that must update in place find() first.
 */
template <typename Key>
class EpochIndex
{
  public:
    /** Size the table for @p max_entries live keys (load factor kept
     * at or below 1/2). May be called again to re-initialize. */
    void
    init(size_t max_entries)
    {
        const size_t want = nextPow2(
            max_entries < 4 ? 8 : 2 * static_cast<u64>(max_entries));
        slots_.assign(want, Slot{});
        mask_ = want - 1;
        epoch_ = 1;
        live_ = 0;
    }

    /** Forget every entry in O(1): stale slots are recognized by their
     * epoch tag, not by re-zeroing the table. */
    void
    clear()
    {
        ++epoch_;
        live_ = 0;
    }

    /** Insert @p key -> @p value; keeps the existing value if the key
     * is already present. Grows (and rehashes) when the load factor
     * would exceed 1/2.
     * @return true when @p key was not present */
    bool
    insert(Key key, u32 value)
    {
        panicIf(slots_.empty(), "EpochIndex used before init()");
        ++stats_.inserts;
        if (2 * (live_ + 1) > slots_.size())
            grow();
        size_t i = hashKey(key) & mask_;
        for (;;) {
            Slot &s = slots_[i];
            if (s.epoch != epoch_) {
                s.epoch = epoch_;
                s.key = key;
                s.value = value;
                ++live_;
                return true;
            }
            if (s.key == key)
                return false; // keep the first value
            i = (i + 1) & mask_;
        }
    }

    /** Value stored for @p key, or -1 when absent. */
    int
    find(Key key) const
    {
        panicIf(slots_.empty(), "EpochIndex used before init()");
        ++stats_.lookups;
        u64 probe = 0;
        size_t i = hashKey(key) & mask_;
        for (;;) {
            const Slot &s = slots_[i];
            ++probe;
            if (s.epoch != epoch_) {
                noteProbe(probe);
                return -1;
            }
            if (s.key == key) {
                noteProbe(probe);
                return static_cast<int>(s.value);
            }
            i = (i + 1) & mask_;
        }
    }

    size_t size() const { return live_; }
    size_t slotCount() const { return slots_.size(); }

    const EpochIndexStats &stats() const { return stats_; }

  private:
    struct Slot
    {
        u64 epoch = 0; ///< live iff equal to the index's current epoch
        Key key{};
        u32 value = 0;
    };

    static u64
    hashKey(Key key)
    {
        u64 x;
        if constexpr (std::is_pointer_v<Key>)
            x = reinterpret_cast<std::uintptr_t>(key);
        else
            x = static_cast<u64>(key);
        // splitmix64 finalizer: cheap, well-mixed, deterministic.
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return x;
    }

    void
    noteProbe(u64 probe) const
    {
        stats_.probes += probe;
        if (probe > stats_.max_probe)
            stats_.max_probe = probe;
    }

    /** Double the table, re-inserting the live entries. */
    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        mask_ = slots_.size() - 1;
        const u64 old_epoch = epoch_;
        epoch_ = 1;
        for (const Slot &s : old) {
            if (s.epoch != old_epoch)
                continue;
            size_t i = hashKey(s.key) & mask_;
            while (slots_[i].epoch == epoch_)
                i = (i + 1) & mask_;
            slots_[i].epoch = epoch_;
            slots_[i].key = s.key;
            slots_[i].value = s.value;
        }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    u64 epoch_ = 0;
    size_t live_ = 0;
    mutable EpochIndexStats stats_;
};

} // namespace pimstm::util

#endif // PIMSTM_UTIL_EPOCH_INDEX_HH
