#include "sim/dpu.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "util/logging.hh"

namespace pimstm::sim
{

//
// DpuContext
//

DpuContext::DpuContext(Dpu &dpu, unsigned id, u64 seed)
    : dpu_(dpu), id_(id), rng_(seed)
{}

unsigned
DpuContext::numTasklets() const
{
    return dpu_.numTasklets();
}

Cycles
DpuContext::now() const
{
    return dpu_.now();
}

void
DpuContext::charge(Phase p, Cycles c)
{
    if (in_tx_)
        tx_acc_[static_cast<size_t>(p)] += c;
    else
        dpu_.stats_.phase_cycles[static_cast<size_t>(p)] += c;
}

void
DpuContext::txAccountingBegin()
{
    panicIf(in_tx_, "nested txAccountingBegin");
    tx_acc_.fill(0);
    in_tx_ = true;
}

void
DpuContext::txAccountingCommit()
{
    panicIf(!in_tx_, "txAccountingCommit outside tx");
    for (size_t p = 0; p < kNumPhases; ++p)
        dpu_.stats_.phase_cycles[p] += tx_acc_[p];
    tx_acc_.fill(0);
    in_tx_ = false;
}

void
DpuContext::txAccountingAbort()
{
    panicIf(!in_tx_, "txAccountingAbort outside tx");
    Cycles total = 0;
    for (Cycles c : tx_acc_)
        total += c;
    dpu_.stats_.phase_cycles[static_cast<size_t>(Phase::Wasted)] += total;
    tx_acc_.fill(0);
    in_tx_ = false;
}

void
DpuContext::compute(u64 instrs)
{
    if (instrs == 0)
        return;
    const Cycles cost = dpu_.instrCost(instrs);
    dpu_.stats_.instructions += instrs;
    charge(phase_, cost);
    dpu_.consume(id_, cost);
    if (FaultInjector *fi = dpu_.fault_injector_.get()) {
        // Injected stall: the tasklet crossed a plan-listed instruction
        // count. Delivered as an ordinary timing charge so blocked
        // peers, the DMA engine and the watchdog all see it.
        const Cycles stall = fi->onInstructions(id_, instrs);
        if (stall != 0) {
            ++dpu_.stats_.injected_stalls;
            dpu_.stats_.injected_stall_cycles += stall;
            if (dpu_.trace_sink_)
                dpu_.trace_sink_->schedEvent(dpu_.now_, id_,
                                             SchedEvent::FaultStall, stall,
                                             0);
            charge(phase_, stall);
            dpu_.consume(id_, stall);
        }
    }
}

u32
DpuContext::read32(Addr a)
{
    panicIf(addrOffset(a) % 4 != 0, "misaligned read32 at ", a);
    touchRead(addrTier(a), 4);
    return dpu_.memory(addrTier(a)).read32(addrOffset(a));
}

void
DpuContext::write32(Addr a, u32 v)
{
    panicIf(addrOffset(a) % 4 != 0, "misaligned write32 at ", a);
    touchWrite(addrTier(a), 4);
    dpu_.memory(addrTier(a)).write32(addrOffset(a), v);
}

u64
DpuContext::read64(Addr a)
{
    panicIf(addrOffset(a) % 8 != 0, "misaligned read64 at ", a);
    touchRead(addrTier(a), 8);
    return dpu_.memory(addrTier(a)).read64(addrOffset(a));
}

void
DpuContext::write64(Addr a, u64 v)
{
    panicIf(addrOffset(a) % 8 != 0, "misaligned write64 at ", a);
    touchWrite(addrTier(a), 8);
    dpu_.memory(addrTier(a)).write64(addrOffset(a), v);
}

void
DpuContext::readBlock(Addr a, void *dst, size_t n)
{
    touchRead(addrTier(a), n);
    dpu_.memory(addrTier(a)).readBlock(addrOffset(a), dst, n);
}

void
DpuContext::writeBlock(Addr a, const void *src, size_t n)
{
    touchWrite(addrTier(a), n);
    dpu_.memory(addrTier(a)).writeBlock(addrOffset(a), src, n);
}

void
DpuContext::touchRead(Tier tier, size_t bytes)
{
    if (tier == Tier::Wram) {
        const u64 instrs = kWramAccessInstrs * divCeil(bytes, 8);
        ++dpu_.stats_.wram_accesses;
        compute(instrs);
    } else {
        const Cycles done = dpu_.mramAccess(id_, bytes, false);
        const Cycles cost = done - dpu_.now_;
        charge(phase_, cost);
        dpu_.consume(id_, cost);
    }
}

void
DpuContext::touchWrite(Tier tier, size_t bytes)
{
    if (tier == Tier::Wram) {
        const u64 instrs = kWramAccessInstrs * divCeil(bytes, 8);
        ++dpu_.stats_.wram_accesses;
        compute(instrs);
    } else {
        const Cycles done = dpu_.mramAccess(id_, bytes, true);
        const Cycles cost = done - dpu_.now_;
        charge(phase_, cost);
        dpu_.consume(id_, cost);
    }
}

void
DpuContext::touchRandom(Tier tier, u64 count, size_t bytes_each,
                        bool is_write)
{
    if (count == 0)
        return;
    if (tier == Tier::Wram) {
        dpu_.stats_.wram_accesses += count;
        compute(count * kWramAccessInstrs * divCeil(bytes_each, 8));
        return;
    }
    const Cycles done =
        dpu_.mramRandomAccess(id_, count, bytes_each, is_write);
    const Cycles cost = done - dpu_.now_;
    charge(phase_, cost);
    dpu_.consume(id_, cost);
}

void
DpuContext::acquire(u32 key)
{
    if (FaultInjector *fi = dpu_.fault_injector_.get()) {
        const Cycles d = fi->acquireDelay(id_);
        if (d != 0) {
            ++dpu_.stats_.injected_acq_delays;
            dpu_.stats_.injected_acq_delay_cycles += d;
            if (dpu_.trace_sink_)
                dpu_.trace_sink_->schedEvent(dpu_.now_, id_,
                                             SchedEvent::FaultAcqDelay, d,
                                             0);
            charge(phase_, d);
            dpu_.consume(id_, d);
        }
    }
    const unsigned bit = dpu_.atomic_reg_.bitFor(key);
    for (;;) {
        compute(kAtomicOpInstrs);
        if (dpu_.atomic_reg_.tryAcquire(bit, id_)) {
            ++dpu_.stats_.atomic_acquires;
            return;
        }
        ++dpu_.stats_.atomic_stalls;
        dpu_.blockOnAtomic(id_, bit);
    }
}

void
DpuContext::release(u32 key)
{
    const unsigned bit = dpu_.atomic_reg_.bitFor(key);
    compute(kAtomicOpInstrs);
    dpu_.atomic_reg_.release(bit, id_);
    dpu_.wakeAtomicWaiters(bit);
}

void
DpuContext::flushFence()
{
    // The fence drains the DMA engine (wait until it is idle), then
    // pushes every unflushed line across the persist boundary at one
    // beat per line. Charged like any other MRAM engine occupancy so
    // concurrent tasklets feel it through mram_engine_free_.
    const u64 lines = dpu_.mram_.pendingPersistLines();
    const Cycles busy = kMramFenceBaseCycles + lines * kMramCyclesPerBeat;
    const Cycles start = std::max(dpu_.now_, dpu_.mram_engine_free_);
    dpu_.mram_engine_free_ = start + busy;
    const Cycles done = start + busy;
    ++dpu_.stats_.mram_fences;
    dpu_.stats_.mram_fence_lines += lines;
    dpu_.mram_.fence();
    const Cycles cost = done - dpu_.now_;
    charge(phase_, cost);
    dpu_.consume(id_, cost);
}

void
DpuContext::barrier()
{
    compute(1);
    dpu_.arriveBarrier(id_);
}

void
DpuContext::yield()
{
    auto &t = dpu_.tasklets_[id_];
    t.ready_at = dpu_.now_ + 1;
    dpu_.yieldRunning(id_);
}

void
DpuContext::delay(Cycles cycles)
{
    charge(phase_, cycles);
    dpu_.consume(id_, cycles);
}

//
// Dpu
//

namespace
{

bool
resolveAlwaysSwitch(const DpuConfig &cfg)
{
    bool always = cfg.always_switch;
    if (const char *env = std::getenv("PIMSTM_SIM_ALWAYS_SWITCH"))
        always = always || std::strcmp(env, "0") != 0;
    return always;
}

} // namespace

Dpu::Dpu(const DpuConfig &cfg)
    : cfg_(cfg), wram_(Tier::Wram, kWramBytes),
      mram_(Tier::Mram, cfg.mram_bytes),
      atomic_reg_(cfg.atomic_bits)
{
    always_switch_ = resolveAlwaysSwitch(cfg);
    ready_heap_.reserve(kMaxTasklets);
    if (!cfg.faults.empty())
        fault_injector_ =
            std::make_unique<FaultInjector>(cfg.faults, kMaxTasklets);
    watchdog_cycles_ = cfg.watchdog_cycles;
}

void
Dpu::recycle(const DpuConfig &cfg)
{
    fatalIf(in_run_, "Dpu::recycle during run");
    cfg_ = cfg;
    wram_.recycle(kWramBytes);
    mram_.recycle(cfg.mram_bytes);
    atomic_reg_.recycle(cfg.atomic_bits);
    trace_sink_ = nullptr; // borrowed; the previous owner is gone
    epoch_period_ = 0;     // the epoch hook is borrowed state too
    epoch_hook_ = nullptr;
    always_switch_ = resolveAlwaysSwitch(cfg);
    ready_heap_.reserve(kMaxTasklets);
    fault_injector_.reset();
    if (!cfg.faults.empty())
        fault_injector_ =
            std::make_unique<FaultInjector>(cfg.faults, kMaxTasklets);
    watchdog_cycles_ = cfg.watchdog_cycles;
    resetRun();
}

Dpu::~Dpu() = default;

unsigned
Dpu::addTasklet(TaskletBody body)
{
    fatalIf(in_run_, "addTasklet during run");
    fatalIf(tasklets_.size() >= kMaxTasklets,
            "DPU supports at most ", kMaxTasklets, " tasklets");
    const unsigned tid = static_cast<unsigned>(tasklets_.size());
    if (tid == fibers_.size())
        fibers_.push_back(std::make_unique<Fiber>());
    Tasklet t;
    t.ctx = std::make_unique<DpuContext>(*this, tid,
                                         deriveSeed(cfg_.seed, tid));
    t.state = TaskletState::Ready;
    t.ready_at = 0;
    auto *ctx_ptr = t.ctx.get();
    // Tasklet trampoline: anything escaping the body is attributed to
    // its tasklet here, before the exception crosses the fiber switch —
    // injected crashes terminate the tasklet cleanly, everything else
    // is recorded as a DPU fault and rethrown on the host stack.
    fibers_[tid]->init(
        cfg_.fiber_stack_bytes,
        [body = std::move(body), ctx_ptr, this, tid]() {
            try {
                body(*ctx_ptr);
            } catch (const TaskletCrashException &) {
                // The STM released all held metadata before throwing;
                // returning normally is a clean tasklet exit.
                ++stats_.tasklet_crashes;
                tasklet_faults_.push_back({tid, "injected crash", true});
            } catch (const DpuCrashException &) {
                // Whole-DPU crash: nothing is released — that is the
                // point. The scheduler sees crash_pending_ and stops.
                ++stats_.dpu_crashes;
                tasklet_faults_.push_back({tid, "dpu crash", true});
            } catch (const WatchdogError &) {
                throw; // a scheduler verdict, not a tasklet fault
            } catch (const std::exception &e) {
                tasklet_faults_.push_back({tid, e.what(), false});
                throw; // preserve the concrete type for callers
            } catch (...) {
                tasklet_faults_.push_back({tid, "unknown exception", false});
                throw TaskletError(tid, "unknown exception");
            }
        });
    tasklets_.push_back(std::move(t));
    ++runnable_count_;
    return tid;
}

void
Dpu::addTasklets(unsigned n, const TaskletBody &body)
{
    for (unsigned i = 0; i < n; ++i)
        addTasklet(body);
}

void
Dpu::resetRun(bool reset_faults)
{
    fatalIf(in_run_, "resetRun during run");
    for (size_t i = 0; i < tasklets_.size(); ++i) {
        if (fibers_[i]->runnable())
            fibers_[i] = std::make_unique<Fiber>(); // abandoned mid-body
        else
            fibers_[i]->dropBody();
    }
    tasklets_.clear();
    stats_ = DpuStats{};
    now_ = 0;
    mram_engine_free_ = 0;
    barrier_count_ = 0;
    barrier_generation_ = 0;
    runnable_count_ = 0;
    finished_count_ = 0;
    blocked_atomic_count_ = 0;
    ready_heap_.clear();
    if (fault_injector_ && reset_faults)
        fault_injector_->reset();
    watchdog_deadline_ = ~Cycles{0};
    epoch_next_ = ~Cycles{0};
    tasklet_faults_.clear();
}

void
Dpu::setEpochHook(Cycles period, std::function<void()> hook)
{
    epoch_period_ = period;
    epoch_hook_ = std::move(hook);
    if (in_run_ && epoch_period_ != 0 && epoch_hook_)
        epoch_next_ = now_ + epoch_period_;
    else
        epoch_next_ = ~Cycles{0};
}

void
Dpu::fireEpoch()
{
    // Catch up past a long stall in one go: the controller samples
    // deltas, so collapsing missed boundaries into one firing is the
    // honest reading (no activity happened in between).
    do {
        epoch_next_ += epoch_period_;
    } while (now_ >= epoch_next_);
    epoch_hook_();
}

Cycles
Dpu::instrCost(u64 instrs) const
{
    const unsigned interval =
        std::max<unsigned>(kReissueInterval, runnable_count_);
    return instrs * interval;
}

void
Dpu::pushReady(unsigned tid)
{
    ready_heap_.push_back({tasklets_[tid].ready_at, tid});
    std::push_heap(ready_heap_.begin(), ready_heap_.end(), laterThan);
}

Dpu::ReadyEntry
Dpu::popReady()
{
    std::pop_heap(ready_heap_.begin(), ready_heap_.end(), laterThan);
    const ReadyEntry e = ready_heap_.back();
    ready_heap_.pop_back();
    return e;
}

void
Dpu::replaceReadyTop(const ReadyEntry &e)
{
    // Sift e down from the root: push_heap followed by pop_heap in one
    // pass. The layout may differ from theirs, but the pick cannot —
    // (ready_at, tid) is a strict order and the top is its minimum.
    const size_t n = ready_heap_.size();
    size_t hole = 0;
    for (size_t child = 1; child < n; child = 2 * hole + 1) {
        if (child + 1 < n &&
            laterThan(ready_heap_[child], ready_heap_[child + 1]))
            ++child;
        if (!laterThan(e, ready_heap_[child]))
            break;
        ready_heap_[hole] = ready_heap_[child];
        hole = child;
    }
    ready_heap_[hole] = e;
}

bool
Dpu::currentStaysNext(unsigned tid, Cycles at) const
{
    if (ready_heap_.empty())
        return true;
    const ReadyEntry &top = ready_heap_.front();
    return at < top.ready_at || (at == top.ready_at && tid < top.tid);
}

void
Dpu::dispatch(const ReadyEntry &e)
{
    const auto &t = tasklets_[e.tid];
    panicIf(t.state != TaskletState::Ready || t.ready_at != e.ready_at,
            "stale ready-heap entry");
    now_ = std::max(now_, e.ready_at);
    running_tid_ = e.tid;
    ++stats_.sched_switches;
    if (trace_sink_)
        trace_sink_->schedEvent(now_, e.tid, SchedEvent::Switch,
                                e.ready_at, 0);
}

void
Dpu::handOff(unsigned tid, const ReadyEntry &next)
{
    dispatch(next);
    if (next.tid != tid)
        fibers_[tid]->switchTo(*fibers_[next.tid]);
}

void
Dpu::consume(unsigned tid, Cycles cycles)
{
    // Livelock watchdog. The deadline is UINT64_MAX when disarmed, so
    // the disabled fast path costs one never-taken compare. Checked
    // here (not only in scheduleLoop) because elided charges can keep a
    // tasklet running without ever returning to the scheduler.
    if (now_ >= watchdog_deadline_)
        watchdogFire(WatchdogError::Kind::Livelock);
    // Epoch tick, same placement rationale as the watchdog. Fires
    // before this charge is applied, so the hook observes the clock at
    // the boundary-crossing instant.
    if (now_ >= epoch_next_)
        fireEpoch();
    auto &t = tasklets_[tid];
    t.ready_at = now_ + cycles;
    // Fiber-switch elision: when this tasklet would be the scheduler's
    // earliest-clock pick anyway (ties by id), resuming it is the only
    // thing scheduleLoop could do — advance the clock in place and keep
    // running instead of switching at all.
    if (!always_switch_ && currentStaysNext(tid, t.ready_at)) {
        now_ = t.ready_at;
        ++stats_.sched_elisions;
        return;
    }
    if (always_switch_ || crash_pending_) {
        pushReady(tid);
        suspend(tid); // the round trip through scheduleLoop
        return;
    }
    // Direct handoff: the heap root is the next pick. This tasklet's
    // entry takes its place, and the root's fiber runs next.
    const ReadyEntry next = ready_heap_.front();
    replaceReadyTop({t.ready_at, tid});
    handOff(tid, next);
}

void
Dpu::yieldRunning(unsigned tid)
{
    pushReady(tid);
    suspend(tid);
}

void
Dpu::blockOnAtomic(unsigned tid, unsigned bit)
{
    auto &t = tasklets_[tid];
    t.state = TaskletState::BlockedAtomic;
    t.waiting_bit = bit;
    t.blocked_since = now_;
    --runnable_count_;
    ++blocked_atomic_count_;
    if (trace_sink_)
        trace_sink_->schedEvent(now_, tid, SchedEvent::Stall, bit, 0);
    suspend(tid);
}

void
Dpu::arriveBarrier(unsigned tid)
{
    auto &t = tasklets_[tid];
    const u64 my_generation = barrier_generation_;
    ++barrier_count_;
    t.state = TaskletState::BlockedBarrier;
    --runnable_count_;
    if (trace_sink_)
        trace_sink_->schedEvent(now_, tid, SchedEvent::BarrierArrive,
                                my_generation, 0);
    maybeReleaseBarrier();
    while (barrier_generation_ == my_generation &&
           t.state == TaskletState::BlockedBarrier) {
        suspend(tid);
    }
}

Cycles
Dpu::mramAccess(unsigned tid, size_t bytes, bool is_write)
{
    (void)tid;
    const u64 beats = divCeil(std::max<size_t>(bytes, 1), kMramBeatBytes);
    const u64 transfers = divCeil(std::max<size_t>(bytes, 1),
                                  kMramMaxTransferBytes);
    const Cycles busy = transfers * kMramEngineSetupCycles +
                        beats * kMramCyclesPerBeat;
    // The issuing tasklet first runs the SDK access routine.
    const Cycles issue = instrCost(transfers * kMramAccessInstrs);
    stats_.instructions += transfers * kMramAccessInstrs;
    const Cycles start = std::max(now_ + issue, mram_engine_free_);
    mram_engine_free_ = start + busy;
    const Cycles done = start + kMramLatencyCycles + busy;

    if (is_write) {
        ++stats_.mram_writes;
        stats_.mram_bytes_written += bytes;
    } else {
        ++stats_.mram_reads;
        stats_.mram_bytes_read += bytes;
    }
    return done;
}

Cycles
Dpu::mramRandomAccess(unsigned tid, u64 count, size_t bytes_each,
                      bool is_write)
{
    (void)tid;
    const u64 beats = divCeil(std::max<size_t>(bytes_each, 1), kMramBeatBytes);
    const Cycles per_busy = kMramEngineSetupCycles + kMramRandomExtraCycles +
                            beats * kMramCyclesPerBeat;
    // Each access is dependent (pointer-chasing): the issuing tasklet
    // pays the SDK routine plus full latency per access; the engine is
    // reserved for the aggregate bandwidth.
    stats_.instructions += count * kMramAccessInstrs;
    const Cycles per_serial = kMramLatencyCycles + per_busy +
                              instrCost(kMramAccessInstrs) + kReissueInterval;
    const Cycles start = std::max(now_, mram_engine_free_);
    mram_engine_free_ = start + count * per_busy;
    const Cycles done =
        std::max(start + count * per_busy, now_ + count * per_serial);

    if (is_write) {
        stats_.mram_writes += count;
        stats_.mram_bytes_written += count * bytes_each;
    } else {
        stats_.mram_reads += count;
        stats_.mram_bytes_read += count * bytes_each;
    }
    return done;
}

void
Dpu::suspend(unsigned tid)
{
    panicIf(running_tid_ != tid, "suspend from a non-running tasklet");
    // Back to scheduleLoop only when it has something to decide: the
    // always-switch round trip, a pending whole-DPU crash, or no
    // runnable tasklet (every live one is blocked: a deadlock).
    if (always_switch_ || crash_pending_ || ready_heap_.empty()) {
        fibers_[tid]->yieldOut();
        return;
    }
    handOff(tid, popReady());
}

void
Dpu::wakeAtomicWaiters(unsigned bit)
{
    if (blocked_atomic_count_ == 0)
        return;
    for (size_t i = 0; i < tasklets_.size(); ++i) {
        auto &t = tasklets_[i];
        if (t.state == TaskletState::BlockedAtomic && t.waiting_bit == bit) {
            t.state = TaskletState::Ready;
            t.ready_at = now_ + 1;
            stats_.atomic_stall_cycles += now_ - t.blocked_since;
            if (trace_sink_)
                trace_sink_->schedEvent(now_, static_cast<unsigned>(i),
                                        SchedEvent::Wake, bit,
                                        now_ - t.blocked_since);
            ++runnable_count_;
            --blocked_atomic_count_;
            pushReady(static_cast<unsigned>(i));
        }
    }
}

void
Dpu::maybeReleaseBarrier()
{
    const unsigned alive = numTasklets() - finished_count_;
    if (alive == 0 || barrier_count_ < alive)
        return;
    panicIf(barrier_count_ > alive, "barrier overshoot");
    ++barrier_generation_;
    barrier_count_ = 0;
    if (trace_sink_)
        trace_sink_->schedEvent(now_, running_tid_,
                                SchedEvent::BarrierRelease,
                                barrier_generation_, 0);
    for (size_t i = 0; i < tasklets_.size(); ++i) {
        auto &t = tasklets_[i];
        if (t.state == TaskletState::BlockedBarrier) {
            t.state = TaskletState::Ready;
            t.ready_at = now_ + 1;
            ++runnable_count_;
            // The last arriver releases the barrier from inside its own
            // fiber and continues running; only the others go back into
            // the ready heap. (When called from scheduleLoop after a
            // tasklet finished, running_tid_ is that Finished tasklet
            // and every waiter is pushed.)
            if (static_cast<unsigned>(i) != running_tid_)
                pushReady(static_cast<unsigned>(i));
        }
    }
}

void
Dpu::run()
{
    fatalIf(tasklets_.empty(), "Dpu::run with no tasklets");
    fatalIf(in_run_, "Dpu::run re-entered");
    in_run_ = true;
    if (watchdog_cycles_ != 0)
        watchdog_deadline_ = now_ + watchdog_cycles_;
    if (epoch_period_ != 0 && epoch_hook_)
        epoch_next_ = now_ + epoch_period_;
    scheduleLoop();
    in_run_ = false;
    stats_.total_cycles = now_;
    if (crash_pending_) {
        crash_pending_ = false;
        // Crash effects, in hardware order: WRAM contents are gone,
        // unfenced MRAM lines resolve kept / dropped / torn under the
        // plan-seeded RNG (ordinal-salted so each crash of a multi-
        // crash plan tears differently), and the atomic register —
        // a hardware latch — comes back clear on reboot.
        const u64 ordinal = fault_injector_
            ? fault_injector_->dpuCrashesDelivered()
            : 1;
        wram_.wipe();
        mram_.crashScramble(
            deriveSeed(cfg_.faults.seed, 0xdc0dedu, ordinal));
        atomic_reg_.recycle(cfg_.atomic_bits);
        throw DpuCrashError(
            now_, "injected whole-DPU crash at cycle "
                      + std::to_string(now_)
                      + " (restartable; durable runs recover)");
    }
}

void
Dpu::addDiagnostic(const void *key, std::function<void(std::ostream &)> fn)
{
    diagnostics_.emplace_back(key, std::move(fn));
}

void
Dpu::removeDiagnostic(const void *key)
{
    diagnostics_.erase(
        std::remove_if(diagnostics_.begin(), diagnostics_.end(),
                       [key](const auto &d) { return d.first == key; }),
        diagnostics_.end());
}

std::string
Dpu::progressDump(const std::string &verdict) const
{
    static const char *const kStateNames[] = {"Ready", "BlockedAtomic",
                                              "BlockedBarrier", "Finished"};
    std::ostringstream os;
    os << "watchdog: " << verdict << "\n";
    os << "  cycle " << now_ << ", tasklets: " << numTasklets() << " total, "
       << runnable_count_ << " runnable, " << blocked_atomic_count_
       << " blocked on atomics, "
       << (numTasklets() - runnable_count_ - blocked_atomic_count_
           - finished_count_)
       << " at the barrier, " << finished_count_ << " finished\n";
    for (size_t i = 0; i < tasklets_.size(); ++i) {
        const Tasklet &t = tasklets_[i];
        os << "  tasklet " << i << ": "
           << kStateNames[static_cast<size_t>(t.state)];
        if (t.state == TaskletState::Ready)
            os << " ready_at=" << t.ready_at;
        else if (t.state == TaskletState::BlockedAtomic)
            os << " waiting on atomic bit " << t.waiting_bit
               << " (held by tasklet "
               << atomic_reg_.holder(t.waiting_bit) << ") since cycle "
               << t.blocked_since;
        os << "\n";
    }
    bool any_held = false;
    for (unsigned b = 0; b < atomic_reg_.numBits(); ++b) {
        if (!atomic_reg_.isHeld(b))
            continue;
        if (!any_held)
            os << "  atomic bits held:";
        any_held = true;
        os << " " << b << "->t" << atomic_reg_.holder(b);
    }
    if (any_held)
        os << "\n";
    for (const auto &d : diagnostics_)
        d.second(os);
    if (trace_sink_)
        trace_sink_->dumpTail(os, 32);
    return os.str();
}

void
Dpu::watchdogFire(WatchdogError::Kind kind)
{
    std::string verdict;
    if (kind == WatchdogError::Kind::Deadlock) {
        verdict = "deadlock — every live tasklet is blocked";
    } else {
        verdict = "livelock — no transaction committed for "
            + std::to_string(watchdog_cycles_) + " cycles";
    }
    throw WatchdogError(kind, progressDump(verdict));
}

void
Dpu::scheduleLoop()
{
    // (Re)derive the incremental scheduler state from the tasklet
    // states — O(T) once per run, never again inside the loop.
    ready_heap_.clear();
    runnable_count_ = 0;
    finished_count_ = 0;
    blocked_atomic_count_ = 0;
    for (size_t i = 0; i < tasklets_.size(); ++i) {
        const auto &t = tasklets_[i];
        panicIf(t.state != TaskletState::Ready &&
                    t.state != TaskletState::Finished,
                "tasklet blocked before the run started");
        if (t.state == TaskletState::Ready) {
            ++runnable_count_;
            pushReady(static_cast<unsigned>(i));
        } else {
            ++finished_count_;
        }
    }

    for (;;) {
        // Resume the runnable tasklet with the earliest local clock
        // (ties broken by id — fully deterministic). The heap holds
        // exactly the Ready, not-running tasklets, so its top is the
        // same tasklet the old O(T) scan would have picked.
        if (ready_heap_.empty()) {
            // No runnable tasklet: either everyone finished, or we are
            // deadlocked on atomics / the barrier.
            if (finished_count_ == numTasklets())
                return;
            // Every live tasklet is blocked (atomic register or
            // barrier): a guaranteed deadlock. Fail with the full
            // progress dump instead of the old unattributed panic.
            watchdogFire(WatchdogError::Kind::Deadlock);
        }
        const ReadyEntry e = popReady();
        dispatch(e);
        Fiber *back = nullptr;
        const bool alive = fibers_[e.tid]->enter(&back);
        // Tasklets hand the DPU to each other directly (suspend), so the
        // one that came back is the running one, not necessarily e.tid.
        panicIf(back != fibers_[running_tid_].get(),
                "the fiber that came back is not the running tasklet's");
        if (!alive) {
            auto &t = tasklets_[running_tid_];
            t.state = TaskletState::Finished;
            --runnable_count_;
            ++finished_count_;
            // A finishing tasklet may satisfy an outstanding barrier.
            maybeReleaseBarrier();
        }
        // Whole-DPU crash: stop scheduling at once. Every other
        // tasklet is abandoned wherever it was suspended — a power
        // loss does not unwind stacks. Dpu::run applies the memory
        // crash effects and reports.
        if (crash_pending_)
            return;
    }
}

} // namespace pimstm::sim
