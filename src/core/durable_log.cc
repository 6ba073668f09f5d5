#include "core/durable_log.hh"

#include <map>
#include <utility>

#include "util/logging.hh"

namespace pimstm::core
{

namespace
{

//
// Record format (docs/durability.md).
//
// Header copy (16 bytes, two per slot, written ping-pong):
//   word0 = seq:32 | entries:16 | state:16
//   word1 = mix64(word0 ^ kLogHeaderSalt)
// Entry i (16 bytes at +32 + 16*i):
//   word0 = addr:32 | payload:32     (payload: WB new value, WT old)
//   word1 = mix64(word0 ^ mix64(seq ^ kLogEntrySalt))
//
// The checksum is the splitmix64 finalizer — not cryptographic, but
// any reverted or half-torn 8-byte line fails it with overwhelming
// probability, and binding entries to the header's sequence number
// makes stale entries from an earlier slot incarnation unreadable.
//

constexpr u64 kLogHeaderSalt = 0x9e3779b97f4a7c15ull;
constexpr u64 kLogEntrySalt = 0xd1b54a32d192ed03ull;

/** Bytes of the duplexed header area at the front of each slot. */
constexpr u32 kLogHeaderBytes = 32;

/** Slot header states. */
constexpr u32 kSlotEmpty = 0;
constexpr u32 kSlotActive = 1;    // WT undo log; in-place writes underway
constexpr u32 kSlotCommitted = 2; // WB redo log, sealed

u64
mix64(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

u64
logHeaderWord(u32 seq, u32 entries, u32 state)
{
    return (static_cast<u64>(seq) << 32) |
           (static_cast<u64>(entries & 0xffffu) << 16) | (state & 0xffffu);
}

u64
logEntryWord(sim::Addr a, u32 payload)
{
    return (static_cast<u64>(a) << 32) | payload;
}

u64
logEntryCheck(u32 seq, u64 word)
{
    return mix64(word ^ mix64(seq ^ kLogEntrySalt));
}

} // namespace

DurableLog::DurableLog(sim::Dpu &dpu, const StmConfig &cfg, StmStats &stats)
    : mram_(dpu.mram()), cfg_(cfg), stats_(stats), slots_(cfg.num_tasklets)
{
    const size_t slot_bytes =
        kLogHeaderBytes + static_cast<size_t>(cfg.max_write_set) * 16;
    const size_t log_bytes = slot_bytes * cfg.num_tasklets;
    if (!mram_.canAlloc(log_bytes)) {
        fatal("durable log region (", log_bytes,
              " bytes) does not fit in MRAM");
    }
    const u32 base = mram_.alloc(log_bytes);
    for (size_t t = 0; t < slots_.size(); ++t)
        slots_[t].base = base + static_cast<u32>(slot_bytes * t);
    mram_.setPersistTracking(true);
}

void
DurableLog::writeHeader(DpuContext &ctx, Slot &slot, u32 seq, u32 entries,
                        u32 state)
{
    // Ping-pong between the two header copies: the previous state is
    // never overwritten, so a crash that tears this (unflushed) copy
    // always leaves the other copy — flushed by an earlier fence —
    // readable. Recovery picks the valid copy with the larger
    // (seq, entries) pair.
    const u32 off = slot.base + 16u * slot.flip;
    slot.flip ^= 1;
    u64 rec[2];
    rec[0] = logHeaderWord(seq, entries, state);
    rec[1] = mix64(rec[0] ^ kLogHeaderSalt);
    ctx.writeBlock(sim::makeAddr(Tier::Mram, off), rec, 16);
}

void
DurableLog::truncate(DpuContext &ctx, Slot &slot)
{
    writeHeader(ctx, slot, static_cast<u32>(++seq_), 0, kSlotEmpty);
    slot.state = kSlotEmpty;
}

void
DurableLog::fence(DpuContext &ctx)
{
    const size_t lines = mram_.pendingPersistLines();
    ctx.flushFence();
    ++stats_.flush_fences;
    trace(ctx, TxEvent::FlushFence, static_cast<u32>(lines));
}

void
DurableLog::trace(DpuContext &ctx, TxEvent event, u32 arg, u64 arg2)
{
    if (cfg_.trace)
        cfg_.trace->record(ctx.now(), ctx.taskletId(), event, arg, arg2);
}

void
DurableLog::logUndo(DpuContext &ctx, const TxDescriptor &tx, Addr a,
                    u32 old_value)
{
    fatalIf(sim::addrTier(a) != Tier::Mram,
            "durable transactions require MRAM-resident data: "
            "write-through store to a WRAM address");
    Slot &slot = slots_[tx.tasklet()];
    const u32 n = static_cast<u32>(tx.write_set.size());
    if (n >= cfg_.max_write_set)
        return; // let pushWrite report the overflow
    if (slot.state != kSlotActive)
        slot.seq = static_cast<u32>(++seq_);
    u64 rec[2];
    rec[0] = logEntryWord(a, old_value);
    rec[1] = logEntryCheck(slot.seq, rec[0]);
    ctx.writeBlock(
        sim::makeAddr(Tier::Mram, slot.base + kLogHeaderBytes + n * 16),
        rec, 16);
    writeHeader(ctx, slot, slot.seq, n + 1, kSlotActive);
    ++stats_.log_appends;
    stats_.log_bytes += 32; // entry + header rewrite
    trace(ctx, TxEvent::LogAppend, 32, 1);
    // Write-ahead rule: the undo entry is durable before the in-place
    // write that it covers can exist.
    fence(ctx);
    slot.state = kSlotActive;
}

void
DurableLog::sealRedo(DpuContext &ctx, const TxDescriptor &tx)
{
    if (tx.write_set.empty())
        return;
    Slot &slot = slots_[tx.tasklet()];
    const u32 seq = static_cast<u32>(++seq_);
    const u32 n = static_cast<u32>(tx.write_set.size());
    std::vector<u64> &image = slot.scratch;
    image.clear();
    for (const WriteEntry &e : tx.write_set) {
        fatalIf(sim::addrTier(e.addr) != Tier::Mram,
                "durable transactions require MRAM-resident data: WRAM "
                "address in the write set of a durable commit");
        image.push_back(logEntryWord(e.addr, e.value));
        image.push_back(logEntryCheck(seq, image.back()));
    }
    const size_t bytes = image.size() * 8;
    ctx.writeBlock(sim::makeAddr(Tier::Mram, slot.base + kLogHeaderBytes),
                   image.data(), bytes);
    writeHeader(ctx, slot, seq, n, kSlotCommitted);
    ++stats_.log_appends;
    stats_.log_bytes += bytes + 16;
    trace(ctx, TxEvent::LogAppend, static_cast<u32>(bytes + 16), n);
    // The durability point: redo image + commit record reach the
    // persist boundary before the first in-place write exists.
    fence(ctx);
    ++stats_.durable_commits;
    trace(ctx, TxEvent::DurableCommit, seq);
    slot.state = kSlotCommitted;
}

void
DurableLog::commitUndo(DpuContext &ctx, unsigned tasklet)
{
    Slot &slot = slots_[tasklet];
    if (slot.state != kSlotActive)
        return;
    // The durability point of a write-through commit: the in-place
    // writes are flushed while the undo log still stands.
    fence(ctx);
    ++stats_.durable_commits;
    trace(ctx, TxEvent::DurableCommit, slot.seq);
    // Retire the undo log and fence the truncation: unlike a stale
    // committed record (idempotent redo), a stale *active* record
    // would undo data the fence above just made durable, so it must
    // be impossible for it to resurface.
    truncate(ctx, slot);
    fence(ctx);
}

void
DurableLog::retire(DpuContext &ctx, unsigned tasklet)
{
    Slot &slot = slots_[tasklet];
    if (slot.state == kSlotEmpty)
        return;
    // Flush the applied (redo) or restored (undo) data before the
    // record can be retired: the truncation must never become durable
    // while a data line the record covers is still unflushed. The
    // truncation itself stays unfenced — if it is lost, recovery merely
    // rewrites the values just flushed; any later fence on this DPU
    // flushes it.
    fence(ctx);
    truncate(ctx, slot);
}

RecoveryReport
DurableLog::recover()
{
    RecoveryReport r;
    // Sealed redo logs by sequence number: commit order.
    std::multimap<u32, std::vector<std::pair<Addr, u32>>> committed;

    for (const Slot &slot : slots_) {
        const u32 base = slot.base;
        // Decode both header copies; adopt the valid one with the
        // larger (seq, entries) pair. At most one copy is ever
        // unflushed (every header write is covered by the next fence
        // before the other copy is touched again), so a torn copy never
        // hides the slot's last durable state.
        bool have = false, torn = false;
        u32 seq = 0, n = 0, state = kSlotEmpty;
        for (u32 c = 0; c < 2; ++c) {
            const u64 w0 = mram_.read64(base + 16 * c);
            const u64 w1 = mram_.read64(base + 16 * c + 8);
            if (w0 == 0 && w1 == 0)
                continue; // never written
            if (w1 != mix64(w0 ^ kLogHeaderSalt)) {
                torn = true; // an unflushed header write, resolved torn
                continue;
            }
            const u32 cseq = static_cast<u32>(w0 >> 32);
            const u32 cn = static_cast<u32>((w0 >> 16) & 0xffffu);
            const u32 cstate = static_cast<u32>(w0 & 0xffffu);
            if (!have || cseq > seq || (cseq == seq && cn > n)) {
                seq = cseq;
                n = cn;
                state = cstate;
            }
            have = true;
        }
        if (!have && !torn)
            continue; // both copies never written
        if (!have || state == kSlotEmpty || n > cfg_.max_write_set) {
            // Truncated slot, or nothing readable: nothing the crash
            // can have torn depends on it (every data write is ordered
            // behind its record's fence).
            if (torn || (have && n > cfg_.max_write_set)) {
                ++r.torn;
                ++r.discarded;
            }
            mram_.fill(base, 0, kLogHeaderBytes);
            continue;
        }

        // Validate the entries under the header's sequence number;
        // writes keeps the valid ones, in append order.
        std::vector<std::pair<Addr, u32>> writes;
        for (u32 i = 0; i < n; ++i) {
            const u32 off = base + kLogHeaderBytes + i * 16;
            const u64 ew = mram_.read64(off);
            if (mram_.read64(off + 8) == logEntryCheck(seq, ew)) {
                writes.emplace_back(static_cast<Addr>(ew >> 32),
                                    static_cast<u32>(ew));
            }
        }
        const bool all_valid = writes.size() == n;

        if (state == kSlotCommitted) {
            if (all_valid) {
                // Sealed redo log — including the "lucky commit" case
                // where the crash preceded the fence but every line
                // happened to survive: the record is indistinguishable
                // from a fenced one and replaying it is correct either
                // way.
                committed.emplace(seq, std::move(writes));
            } else {
                // A record that never reached its fence: no in-place
                // write existed yet, discarding loses nothing.
                ++r.torn;
                ++r.discarded;
            }
        } else { // kSlotActive: write-through undo log
            // A torn entry means its fence — and therefore the in-place
            // write it covers — never happened; skipping it is exactly
            // right. Valid entries are replayed in reverse append order.
            if (!all_valid || torn)
                ++r.torn;
            for (auto it = writes.rbegin(); it != writes.rend(); ++it)
                mram_.write32(sim::addrOffset(it->first), it->second);
            if (writes.empty())
                ++r.discarded;
            else
                ++r.undone;
        }
        mram_.fill(base, 0, kLogHeaderBytes);
    }

    // Redo in commit order. Sequence numbers are assigned with every
    // ownership record held, so this order agrees with the per-address
    // commit order of the crashed run.
    for (const auto &[seq, writes] : committed) {
        for (const auto &[addr, value] : writes)
            mram_.write32(sim::addrOffset(addr), value);
        ++r.redone;
    }

    // Recovery's own writes are host DMA followed by a flush: they are
    // durable before the program restarts.
    mram_.fence();

    for (Slot &slot : slots_) {
        slot.state = kSlotEmpty;
        slot.flip = 0;
    }
    return r;
}

} // namespace pimstm::core
