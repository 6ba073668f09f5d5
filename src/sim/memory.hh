/**
 * @file
 * Backing store for one memory tier (WRAM or MRAM) of a simulated DPU,
 * plus a bump allocator with hard capacity enforcement.
 *
 * This class only stores bytes; all timing is charged by the Dpu
 * scheduler, which knows about the DMA engine and the pipeline.
 * Capacity enforcement matters: the paper's WRAM-metadata experiments
 * hinge on allocations that do not fit in 64 KB (Labyrinth read/write
 * sets, the ArrayBench A lock table), and alloc() failing loudly is how
 * this reproduction triggers the same fallbacks.
 *
 * Host backing is lazy: the simulated tier has a fixed capacity (64 MB
 * MRAM), but host bytes are only materialized — zero-filled, growing
 * geometrically — when an offset is actually written. Reads beyond the
 * materialized high-water mark return zeros, which is exactly what a
 * fresh (or recycled) tier holds, so simulated behaviour is identical
 * to an eagerly zero-filled buffer while a 64 MB MRAM whose workload
 * touches 2 MB costs the host 2 MB. recycle() re-zeroes only the
 * materialized extent, which is what makes pooled Dpu reuse cheap.
 */

#ifndef PIMSTM_SIM_MEMORY_HH
#define PIMSTM_SIM_MEMORY_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "sim/addr.hh"
#include "util/epoch_index.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace pimstm::sim
{

/** One memory tier: raw byte storage plus a bump allocator. */
class Memory
{
  public:
    Memory(Tier tier, size_t capacity)
        : tier_(tier), capacity_(capacity)
    {}

    Tier tier() const { return tier_; }
    size_t capacity() const { return capacity_; }
    size_t allocated() const { return brk_; }
    size_t available() const { return capacity_ - brk_; }

    /** Host bytes actually materialized (the high-water mark of
     * written offsets, rounded up by the growth policy). */
    size_t hostBackedBytes() const { return data_.size(); }

    /**
     * Allocate @p bytes (aligned to @p align) and return the byte
     * offset. Throws FatalError when the tier is full — callers use
     * this to reproduce the paper's "does not fit in WRAM" cases.
     * Allocation only moves the break; host bytes materialize on
     * first write.
     */
    u32
    alloc(size_t bytes, size_t align = 8)
    {
        panicIf(!isPow2(align), "alignment must be a power of two");
        const size_t start = alignUp(brk_, align);
        if (start + bytes > capacity_) {
            fatal(tierName(tier_), " allocation of ", bytes,
                  " bytes does not fit (", available(), " of ",
                  capacity(), " bytes free)");
        }
        brk_ = start + bytes;
        return static_cast<u32>(start);
    }

    /** True iff alloc(bytes, align) would succeed. */
    bool
    canAlloc(size_t bytes, size_t align = 8) const
    {
        panicIf(!isPow2(align), "alignment must be a power of two");
        return alignUp(brk_, align) + bytes <= capacity_;
    }

    /** Release everything allocated so far (arena-style reset).
     * Contents persist, as on hardware. */
    void resetAlloc() { brk_ = 0; }

    /**
     * Return the tier to the all-zero state of a fresh DPU and adopt
     * @p capacity (Dpu pool reuse). Only the materialized extent is
     * re-zeroed — the whole point of pooling: a recycled 64 MB MRAM
     * costs memset(high-water), not a fresh 64 MB zero-fill.
     */
    void
    recycle(size_t capacity)
    {
        capacity_ = capacity;
        if (data_.size() > capacity_)
            data_.resize(capacity_);
        if (!data_.empty())
            std::memset(data_.data(), 0, data_.size());
        brk_ = 0;
        persist_ = false;
        clearPending();
    }

    /**
     * @{ Persist-boundary model (docs/durability.md). When tracking is
     * on, every write captures the pre-image of each touched 8-byte
     * line the first time the line is dirtied after the last fence();
     * a fence() marks all pending lines durable, and crashScramble()
     * resolves each still-pending line deterministically (kept,
     * reverted to its last-flushed content, or half-torn) from a
     * seeded RNG. Off (the default) costs one predictable branch per
     * write; no state is kept and crashScramble is a no-op.
     */
    void
    setPersistTracking(bool on)
    {
        persist_ = on;
        if (on && pending_index_.slotCount() == 0)
            pending_index_.init(kInitialPendingLines);
        clearPending();
    }

    /** Lines dirtied since the last fence. */
    size_t pendingPersistLines() const { return pending_.size(); }

    /** Mark every pending line durable; returns how many there were. */
    size_t
    fence()
    {
        const size_t n = pending_.size();
        clearPending();
        return n;
    }

    /**
     * Crash resolution of the unfenced write-back queue: each pending
     * 8-byte line is independently kept, fully reverted to its
     * last-flushed pre-image, or torn (one 4-byte half reverted),
     * chosen by an RNG seeded from the fault plan. Deterministic:
     * lines are visited in ascending offset order. Returns the number
     * of lines not kept intact (reverted or torn).
     */
    size_t
    crashScramble(u64 seed)
    {
        if (pending_.empty())
            return 0;
        std::sort(pending_.begin(), pending_.end(),
                  [](const PendingLine &a, const PendingLine &b) {
                      return a.line < b.line;
                  });
        Rng rng(seed);
        size_t damaged = 0;
        for (const auto &[line, pre] : pending_) {
            switch (rng.below(4)) {
              case 0: // kept: the line made it to the array
                break;
              case 1: // dropped: revert the whole line
                writeRaw(line, pre.data(), 8);
                ++damaged;
                break;
              case 2: // torn: low half reverted, high half kept
                writeRaw(line, pre.data(), 4);
                ++damaged;
                break;
              default: // torn: high half reverted, low half kept
                writeRaw(line + 4, pre.data() + 4, 4);
                ++damaged;
                break;
            }
        }
        clearPending();
        return damaged;
    }

    /** Crash loss of a volatile tier: zero the materialized extent
     * (allocations persist, as the bump allocator is host bookkeeping
     * the restarted program re-derives). */
    void
    wipe()
    {
        if (!data_.empty())
            std::memset(data_.data(), 0, data_.size());
        clearPending();
    }
    /** @} */

    /** @{ Raw, untimed accessors. Offsets must be in range. */
    u32
    read32(u32 offset) const
    {
        if (static_cast<size_t>(offset) + 4 > data_.size()) {
            u32 v;
            readSparse(offset, &v, 4);
            return v;
        }
        u32 v;
        std::memcpy(&v, data_.data() + offset, 4);
        return v;
    }

    void
    write32(u32 offset, u32 value)
    {
        if (persist_)
            notePersistWrite(offset, 4);
        if (static_cast<size_t>(offset) + 4 > data_.size())
            materialize(offset, 4);
        std::memcpy(data_.data() + offset, &value, 4);
    }

    u64
    read64(u32 offset) const
    {
        if (static_cast<size_t>(offset) + 8 > data_.size()) {
            u64 v;
            readSparse(offset, &v, 8);
            return v;
        }
        u64 v;
        std::memcpy(&v, data_.data() + offset, 8);
        return v;
    }

    void
    write64(u32 offset, u64 value)
    {
        if (persist_)
            notePersistWrite(offset, 8);
        if (static_cast<size_t>(offset) + 8 > data_.size())
            materialize(offset, 8);
        std::memcpy(data_.data() + offset, &value, 8);
    }

    void
    readBlock(u32 offset, void *dst, size_t n) const
    {
        if (static_cast<size_t>(offset) + n > data_.size()) {
            readSparse(offset, dst, n);
            return;
        }
        std::memcpy(dst, data_.data() + offset, n);
    }

    void
    writeBlock(u32 offset, const void *src, size_t n)
    {
        if (persist_)
            notePersistWrite(offset, n);
        if (static_cast<size_t>(offset) + n > data_.size())
            materialize(offset, n);
        std::memcpy(data_.data() + offset, src, n);
    }

    void
    fill(u32 offset, u8 byte, size_t n)
    {
        if (persist_)
            notePersistWrite(offset, n);
        if (static_cast<size_t>(offset) + n > data_.size())
            materialize(offset, n);
        std::memset(data_.data() + offset, byte, n);
    }
    /** @} */

  private:
    /** Minimum materialization step, to amortize vector growth. */
    static constexpr size_t kGrowQuantum = 64 * 1024;

    /** Pending lines the index is first sized for; it grows past. */
    static constexpr size_t kInitialPendingLines = 64;

    /** An unflushed 8-byte line and its last-flushed pre-image. */
    struct PendingLine
    {
        u32 line;
        std::array<u8, 8> pre;
    };

    void
    checkRange(u32 offset, size_t n) const
    {
        panicIf(static_cast<size_t>(offset) + n > capacity_,
                tierName(tier_), " access out of range: offset ", offset,
                " size ", n, " capacity ", capacity_);
    }

    /** Read [offset, offset+n) when it extends past the materialized
     * extent: the unbacked suffix reads as zero. */
    void
    readSparse(u32 offset, void *dst, size_t n) const
    {
        checkRange(offset, n);
        const size_t avail =
            offset < data_.size() ? data_.size() - offset : 0;
        const size_t take = std::min(avail, n);
        if (take > 0)
            std::memcpy(dst, data_.data() + offset, take);
        std::memset(static_cast<char *>(dst) + take, 0, n - take);
    }

    /** Grow the backing so [offset, offset+n) is materialized. New
     * bytes are zero-filled; growth is geometric with a 64 KB floor so
     * repeated small writes do not pay repeated copies. */
    void
    materialize(u32 offset, size_t n)
    {
        checkRange(offset, n);
        const size_t end = static_cast<size_t>(offset) + n;
        const size_t target = std::max(
            end, std::min(capacity_,
                          std::max(data_.size() * 2, kGrowQuantum)));
        data_.resize(target); // value-initializes (zeros) the new tail
    }

    /** Record the pre-image of every 8-byte line [offset, offset+n)
     * touches, the first time each is dirtied since the last fence. */
    void
    notePersistWrite(u32 offset, size_t n)
    {
        const u32 first = offset & ~7u;
        const u32 last = static_cast<u32>((offset + n - 1) & ~7u);
        for (u32 line = first;; line += 8) {
            if (pending_index_.insert(line,
                                      static_cast<u32>(pending_.size()))) {
                PendingLine &p = pending_.emplace_back();
                p.line = line;
                readSparse(line, p.pre.data(), 8);
            }
            if (line == last)
                break;
        }
    }

    /** Forget every pending line (O(1) for the index). */
    void
    clearPending()
    {
        pending_.clear();
        pending_index_.clear();
    }

    /** Write bytes without persist bookkeeping (crash resolution). */
    void
    writeRaw(u32 offset, const u8 *src, size_t n)
    {
        if (static_cast<size_t>(offset) + n > data_.size())
            materialize(offset, n);
        std::memcpy(data_.data() + offset, src, n);
    }

    Tier tier_;
    size_t capacity_;
    std::vector<u8> data_;
    size_t brk_ = 0;

    /** Persist boundary (off unless durable mode enables it). */
    bool persist_ = false;
    /** Unflushed 8-byte lines in first-dirtied order; crashScramble
     * sorts them by offset, so crash resolution is deterministic. */
    std::vector<PendingLine> pending_;
    /** Which lines are in pending_ (value: their position). */
    util::EpochIndex<u32> pending_index_;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_MEMORY_HH
