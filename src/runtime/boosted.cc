#include "runtime/boosted.hh"

#include <algorithm>

namespace pimstm::runtime
{

using core::AbortReason;
using core::SemanticLock;
using core::SemanticUndo;
using core::StructureId;
using core::StructureScope;
using core::TxEvent;
using core::TxHandle;

//
// AbstractLockManager
//

AbstractLockManager::AbstractLockManager(sim::Dpu &dpu, core::Stm &stm,
                                         StructureId sid, u32 stripes,
                                         Tier tier)
    : stm_(stm), sid_(sid), stripes_(stripes), tier_(tier),
      words_(dpu, tier, static_cast<size_t>(stripes) * 2),
      state_(stripes)
{
    fatalIf(!isPow2(stripes),
            "AbstractLockManager stripes must be a power of two");
    words_.fill(dpu, 0);
}

void
AbstractLockManager::chargeProbe(sim::DpuContext &ctx)
{
    ctx.touchRead(tier_, 8);
}

void
AbstractLockManager::chargeUpdate(sim::DpuContext &ctx)
{
    ctx.touchWrite(tier_, 8);
}

void
AbstractLockManager::acquireStripe(TxHandle &tx, u32 stripe,
                                   bool exclusive)
{
    panicIf(stripe >= stripes_, "abstract-lock stripe ", stripe,
            " out of range ", stripes_);
    auto &ctx = tx.ctx();
    core::TxDescriptor &d = tx.descriptor();

    // Irrevocable transactions run solo after a quiesce: every stripe
    // is free and will stay free, and the transaction cannot abort.
    if (d.irrevocable)
        return;

    // Reentrancy: an exclusive hold covers any re-request; a shared
    // hold covers a shared re-request and upgrades in place for an
    // exclusive one.
    SemanticLock *held = nullptr;
    for (auto &l : d.semantic_locks) {
        if (l.owner == this && l.stripe == stripe) {
            held = &l;
            break;
        }
    }
    if (held && (held->exclusive || !exclusive))
        return;

    Stripe &s = state_[stripe];
    const unsigned self = ctx.taskletId();
    const u32 self_bit = 1u << self;
    const core::StmConfig &cfg = stm_.config();

    u64 waited = 0;
    for (unsigned poll = 0;; ++poll) {
        // Probe the stripe word, then decide. Decision and mutation
        // run between charge points, i.e. atomically under the fiber
        // scheduler.
        chargeProbe(ctx);
        const bool free = exclusive
            ? (s.writer < 0 && (s.readers & ~self_bit) == 0)
            : (s.writer < 0);
        if (free) {
            if (exclusive) {
                s.writer = static_cast<int>(self);
                s.readers &= ~self_bit;
            } else {
                s.readers |= self_bit;
            }
            if (held)
                held->exclusive = true; // upgrade reuses the entry
            else
                d.semantic_locks.push_back({this, stripe, exclusive});
            ++stm_.stats().boosted_acquires;
            if (waited != 0) {
                // A word-based STM would have aborted here; the
                // abstract lock turned the conflict into a wait.
                ++stm_.stats().false_conflicts_avoided;
            }
            if (cfg.trace) {
                cfg.trace->record(ctx.now(), self, TxEvent::BoostAcquire,
                                  stripe, waited, sid_);
            }
            chargeUpdate(ctx);
            return;
        }
        if (poll >= core::kBoostWaitPolls)
            break;
        ++stm_.stats().boosted_waits;
        if (cfg.trace) {
            cfg.trace->record(ctx.now(), self, TxEvent::BoostWait, stripe,
                              cfg.cm_wait_cycles, sid_);
        }
        ctx.delay(cfg.cm_wait_cycles);
        waited += cfg.cm_wait_cycles;
    }

    // Timed out: the holder may be waiting on a stripe we hold
    // (symmetric upgrade, composed operations). Abort and retry
    // through the normal back-off path.
    stm_.txAbort(ctx, d, AbortReason::BoostTimeout, core::kNoLockIndex,
                 words_.at(static_cast<size_t>(stripe) * 2));
}

void
AbstractLockManager::acquireKeys(TxHandle &tx, const u32 *keys, size_t n,
                                 bool exclusive)
{
    u32 stripes[64];
    panicIf(n > 64, "acquireKeys: too many keys (", n, ")");
    for (size_t i = 0; i < n; ++i)
        stripes[i] = stripeOf(keys[i]);
    std::sort(stripes, stripes + n);
    const u32 *end = std::unique(stripes, stripes + n);
    for (const u32 *s = stripes; s != end; ++s)
        acquireStripe(tx, *s, exclusive);
}

void
AbstractLockManager::earlyReleaseShared(TxHandle &tx, u32 stripe)
{
    core::TxDescriptor &d = tx.descriptor();
    if (d.irrevocable)
        return;
    for (size_t i = d.semantic_locks.size(); i-- > 0;) {
        SemanticLock &l = d.semantic_locks[i];
        if (l.owner != this || l.stripe != stripe)
            continue;
        if (l.exclusive)
            return; // exclusive hold stays until commit/abort
        d.semantic_locks.erase(d.semantic_locks.begin() +
                               static_cast<long>(i));
        releaseAbstract(tx.ctx(), tx.descriptor().tasklet(), stripe,
                        false);
        return;
    }
    panic("earlyReleaseShared of a stripe the transaction does not "
          "hold (stripe ", stripe, ")");
}

void
AbstractLockManager::releaseAbstract(sim::DpuContext &ctx,
                                     unsigned tasklet, u32 stripe,
                                     bool exclusive)
{
    Stripe &s = state_[stripe];
    if (exclusive) {
        panicIf(s.writer != static_cast<int>(tasklet),
                "abstract-lock release: stripe ", stripe,
                " not write-held by tasklet ", tasklet);
        s.writer = -1;
    } else {
        const u32 bit = 1u << tasklet;
        panicIf((s.readers & bit) == 0, "abstract-lock release: stripe ",
                stripe, " not read-held by tasklet ", tasklet);
        s.readers &= ~bit;
    }
    chargeUpdate(ctx);
}

bool
AbstractLockManager::quiescent() const
{
    for (const Stripe &s : state_)
        if (s.writer >= 0 || s.readers != 0)
            return false;
    return true;
}

//
// BoostedMap
//

BoostedMap::BoostedMap(sim::Dpu &dpu, core::Stm &stm, TxHashMap &map,
                       u32 stripes, StructureId sid, u32 latch_instance)
    : map_(map), locks_(dpu, stm, sid, stripes), sid_(sid),
      latch_key_(boostLatchKey(sid, latch_instance))
{
    map_.setStructureId(sid);
}

void
BoostedMap::logUndo(TxHandle &tx,
                    std::function<void(sim::DpuContext &)> apply)
{
    if (tx.descriptor().irrevocable)
        return;
    tx.descriptor().semantic_undo.push_back(
        SemanticUndo{std::move(apply), static_cast<u8>(sid_)});
}

bool
BoostedMap::insert(TxHandle &tx, u32 key, u32 value,
                   InsertOutcome *outcome)
{
    StructureScope scope(tx.descriptor(), sid_);
    locks_.acquireKey(tx, key, true);
    auto &ctx = tx.ctx();
    u32 old = 0;
    InsertOutcome out;
    {
        LatchGuard latch(ctx, latch_key_);
        out = map_.insertDirect(ctx, key, value, old);
    }
    if (outcome)
        *outcome = out;
    if (out == InsertOutcome::Full)
        return false; // nothing mutated, nothing to undo
    TxHashMap *m = &map_;
    const u32 lk = latch_key_;
    if (out == InsertOutcome::Updated) {
        logUndo(tx, [m, lk, key, old](sim::DpuContext &c) {
            LatchGuard latch(c, lk);
            u32 ignored = 0;
            m->insertDirect(c, key, old, ignored);
        });
    } else {
        logUndo(tx, [m, lk, key](sim::DpuContext &c) {
            LatchGuard latch(c, lk);
            u32 ignored = 0;
            m->eraseDirect(c, key, ignored);
        });
    }
    return true;
}

bool
BoostedMap::lookup(TxHandle &tx, u32 key, u32 &value_out)
{
    StructureScope scope(tx.descriptor(), sid_);
    locks_.acquireKey(tx, key, false);
    auto &ctx = tx.ctx();
    LatchGuard latch(ctx, latch_key_);
    return map_.lookupDirect(ctx, key, value_out);
}

bool
BoostedMap::erase(TxHandle &tx, u32 key)
{
    StructureScope scope(tx.descriptor(), sid_);
    locks_.acquireKey(tx, key, true);
    auto &ctx = tx.ctx();
    u32 old = 0;
    bool found;
    {
        LatchGuard latch(ctx, latch_key_);
        found = map_.eraseDirect(ctx, key, old);
    }
    if (!found)
        return false;
    TxHashMap *m = &map_;
    const u32 lk = latch_key_;
    logUndo(tx, [m, lk, key, old](sim::DpuContext &c) {
        LatchGuard latch(c, lk);
        u32 ignored = 0;
        m->insertDirect(c, key, old, ignored);
    });
    return true;
}

//
// BoostedQueue
//

BoostedQueue::BoostedQueue(sim::Dpu &dpu, core::Stm &stm, Tier tier,
                           u32 capacity)
    : capacity_(capacity),
      words_(dpu, tier, static_cast<size_t>(capacity) + kSlot0),
      locks_(dpu, stm, StructureId::Queue, 2)
{
    fatalIf(!isPow2(capacity),
            "BoostedQueue capacity must be a power of two");
    words_.fill(dpu, 0);
}

void
BoostedQueue::logUndo(TxHandle &tx,
                      std::function<void(sim::DpuContext &)> apply)
{
    if (tx.descriptor().irrevocable)
        return;
    tx.descriptor().semantic_undo.push_back(SemanticUndo{
        std::move(apply), static_cast<u8>(StructureId::Queue)});
}

void
BoostedQueue::enqueue(TxHandle &tx, u32 value)
{
    StructureScope scope(tx.descriptor(), StructureId::Queue);
    locks_.acquireStripe(tx, kTailStripe, true);
    auto &ctx = tx.ctx();
    const u32 tail = ctx.read32(words_.at(kTailWord));
    // Best-effort overflow guard; the capacity contract (class docs)
    // makes a true overflow a caller bug, not a runtime condition.
    const u32 head = ctx.read32(words_.at(kHeadWord));
    panicIf(tail - head >= capacity_, "BoostedQueue overflow (capacity ",
            capacity_, "); size the ring to bound in-flight elements");
    ctx.write32(words_.at(kSlot0 + (tail & (capacity_ - 1))), value);
    ctx.write32(words_.at(kTailWord), tail + 1);
    const Addr tail_addr = words_.at(kTailWord);
    logUndo(tx, [tail_addr, tail](sim::DpuContext &c) {
        c.write32(tail_addr, tail); // retreat: slot beyond tail is dead
    });
}

bool
BoostedQueue::dequeue(TxHandle &tx, u32 &value_out)
{
    StructureScope scope(tx.descriptor(), StructureId::Queue);
    locks_.acquireStripe(tx, kHeadStripe, true);
    auto &ctx = tx.ctx();
    const u32 head = ctx.read32(words_.at(kHeadWord));
    // The empty check needs a committed tail: probe it shared. While
    // read-held, no enqueue is in flight, so the observed tail is
    // all-committed.
    locks_.acquireStripe(tx, kTailStripe, false);
    const u32 tail = ctx.read32(words_.at(kTailWord));
    if (head == tail) {
        // Empty: the answer stays correct only while no enqueue
        // commits — keep the shared tail hold until commit (the
        // non-commuting boundary case).
        return false;
    }
    // Non-empty: tail can only grow (our head-exclusive hold blocks
    // every dequeue retreat), so the answer is monotone-safe; hand the
    // tail stripe back and let enqueues commute with us.
    locks_.earlyReleaseShared(tx, kTailStripe);
    value_out = ctx.read32(words_.at(kSlot0 + (head & (capacity_ - 1))));
    ctx.write32(words_.at(kHeadWord), head + 1);
    const Addr head_addr = words_.at(kHeadWord);
    logUndo(tx, [head_addr, head](sim::DpuContext &c) {
        c.write32(head_addr, head); // retreat: slot value still in place
    });
    return true;
}

} // namespace pimstm::runtime
