#include "sim/fiber.hh"

#include <cstdint>
#include <cstdlib>

#include "util/logging.hh"

#ifdef PIMSTM_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace pimstm::sim
{

namespace
{

// The fiber about to be started. The switch primitives only transfer
// control, so the pointer is handed to the entry routine through this
// slot. Each DPU runs on one host thread, but different DPUs may run
// on different host threads concurrently (util::ThreadPool), so the
// slot must be thread-local: a plain static would let one thread's
// switch clobber the fiber another thread is about to start.
thread_local Fiber *starting_fiber = nullptr;

/** A stack no fiber is running on. */
struct SpareStack
{
    std::unique_ptr<char[]> mem;
    size_t bytes;
};

// Stacks of the fibers that finished on this host thread, most recent
// last. A DPU's fibers all run on the thread that called Dpu::run(),
// so every launch there, on any DPU, starts its tasklets on the stacks
// the previous launch just used: no stack is allocated, freed or
// faulted in per launch, and the few KiB a launch touches are still
// in cache.
thread_local std::vector<SpareStack> spare_stacks;

/** Spares kept per host thread: a full DPU's tasklets (at most 24),
 * with room to spare. Stacks beyond it are freed. */
constexpr size_t kMaxSpareStacks = 32;

} // namespace

void
Fiber::init(size_t stack_bytes, Body body)
{
    panicIf(inside_, "Fiber::init called from inside the fiber");
    panicIf(started_ && !finished_, "Fiber::init on a live fiber");

    wanted_stack_bytes_ = stack_bytes;
    body_ = std::move(body);
    pending_exception_ = nullptr;
    finished_ = false;
    started_ = false;
}

void
Fiber::acquireStack()
{
    if (!spare_stacks.empty() &&
        spare_stacks.back().bytes >= wanted_stack_bytes_) {
        stack_ = std::move(spare_stacks.back().mem);
        stack_bytes_ = spare_stacks.back().bytes;
        spare_stacks.pop_back();
    } else {
        stack_ = std::make_unique_for_overwrite<char[]>(wanted_stack_bytes_);
        stack_bytes_ = wanted_stack_bytes_;
    }
#ifdef PIMSTM_FIBER_ASAN
    // A finished fiber never returns from its first frames (run()
    // switches out for good), so a reused stack can carry stale ASan
    // shadow poison from them. Clear it.
    __asan_unpoison_memory_region(stack_.get(), stack_bytes_);
#endif
}

void
Fiber::releaseStack()
{
    if (spare_stacks.size() < kMaxSpareStacks)
        spare_stacks.push_back({std::move(stack_), stack_bytes_});
    stack_.reset();
    stack_bytes_ = 0;
}

void
Fiber::dropBody()
{
    panicIf(inside_ || runnable(), "Fiber::dropBody on a live fiber");
    body_ = nullptr;
    pending_exception_ = nullptr;
    finished_ = true;
}

#ifdef PIMSTM_FIBER_FAST

// ---------------------------------------------------------------------
// Fast path: System V x86-64 stack switch. Saves the callee-saved
// registers and the stack pointer, nothing else — in particular not the
// signal mask, whose save/restore makes glibc's swapcontext issue an
// rt_sigprocmask syscall per switch and dominated the simulator's
// inner loop. Caller-saved registers are clobbered by the call itself
// (the compiler treats pimstm_fiber_switch as an opaque function), and
// every context eventually returns from its own call to the switch
// with its own stack intact, so ordinary call semantics hold on both
// sides.
// ---------------------------------------------------------------------

extern "C" void pimstm_fiber_switch(void **save_sp, void **load_sp);

asm(R"(
    .text
    .globl pimstm_fiber_switch
    .align 16
pimstm_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq (%rsi), %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
)");

namespace
{

/** Save the running context in @p save and resume @p load. */
inline void
jump(void *&save, void *&load)
{
    pimstm_fiber_switch(&save, &load);
}

} // namespace

/** First frame of every fiber: recover the Fiber and run its body. */
void
fiberEntry()
{
    Fiber *self = starting_fiber;
    starting_fiber = nullptr;
    self->run();
    // run() switches back to the owner after the body finishes and a
    // finished fiber is never re-entered.
    std::abort();
}

void
Fiber::armStack()
{
    // Prepare the stack so the first switch "returns" into fiberEntry:
    // [top-16] holds its address at a 16-byte boundary (so rsp % 16 ==
    // 8 at entry, as after a call), preceded by six zeroed callee-saved
    // register slots, and topped by a null fake return address.
    auto top = reinterpret_cast<uintptr_t>(stack_.get()) + stack_bytes_;
    top &= ~static_cast<uintptr_t>(15);
    auto *slot = reinterpret_cast<u64 *>(top);
    *--slot = 0; // fake caller, terminates backtraces
    *--slot = reinterpret_cast<u64>(&fiberEntry);
    for (int i = 0; i < 6; ++i)
        *--slot = 0; // r15, r14, r13, r12, rbx, rbp
    ctx_ = slot;
}

#else // PIMSTM_FIBER_FAST

// ---------------------------------------------------------------------
// Portable path: POSIX ucontext. Used on non-x86-64 hosts and in
// sanitized builds (the sanitizers understand swapcontext but not a
// hand-rolled stack switch).
// ---------------------------------------------------------------------

namespace
{

/** Save the running context in @p save and resume @p load. */
inline void
jump(ucontext_t &save, ucontext_t &load)
{
    panicIf(swapcontext(&save, &load) != 0, "swapcontext failed");
}

} // namespace

void
Fiber::armStack()
{
    panicIf(getcontext(&ctx_) != 0, "getcontext failed");
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_bytes_;
    // Never followed: run() switches back to the owner explicitly.
    ctx_.uc_link = nullptr;
    makecontext(&ctx_, &Fiber::trampoline, 0);
}

void
Fiber::trampoline()
{
    Fiber *self = starting_fiber;
    starting_fiber = nullptr;
    self->run();
    std::abort(); // a finished fiber is never re-entered
}

#endif // PIMSTM_FIBER_FAST

// ---------------------------------------------------------------------
// The switches, shared by both primitives. Under ASan (ucontext only)
// each one is bracketed by __sanitizer_start/finish_switch_fiber:
// start names the destination's stack, and a fiber finishes the switch
// into it in landed().
// ---------------------------------------------------------------------

void
Fiber::start()
{
    acquireStack();
    armStack();
    started_ = true;
    starting_fiber = this;
#ifdef PIMSTM_FIBER_ASAN
    fake_stack_ = nullptr; // the body's first frame has none yet
#endif
}

void
Fiber::landed()
{
#ifdef PIMSTM_FIBER_ASAN
    // The first switch into a fiber under a new Owner is the one
    // enter() made, so the stack it came from is the owner's. Every
    // later switch under that Owner comes from a peer.
    const void *from_bottom = nullptr;
    size_t from_size = 0;
    __sanitizer_finish_switch_fiber(fake_stack_, &from_bottom, &from_size);
    if (owner_->stack_bottom == nullptr) {
        owner_->stack_bottom = from_bottom;
        owner_->stack_size = from_size;
    }
#endif
}

void
Fiber::run()
{
    landed();
    try {
        body_();
    } catch (...) {
        pending_exception_ = std::current_exception();
    }
    finished_ = true;
    owner_->back = this;
#ifdef PIMSTM_FIBER_ASAN
    // Never resumed: the null fake-stack slot lets ASan free this
    // fiber's fake stack.
    __sanitizer_start_switch_fiber(nullptr, owner_->stack_bottom,
                                   owner_->stack_size);
#endif
    jump(ctx_, owner_->ctx);
}

bool
Fiber::enter(Fiber **back)
{
    panicIf(finished_, "Fiber::enter on a finished fiber");
    panicIf(inside_, "Fiber::enter re-entered");

    Owner owner;
    owner_ = &owner;
    if (!started_)
        start();
    inside_ = true;
#ifdef PIMSTM_FIBER_ASAN
    void *owner_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&owner_fake_stack, stack_.get(),
                                   stack_bytes_);
#endif
    jump(owner.ctx, ctx_);
#ifdef PIMSTM_FIBER_ASAN
    __sanitizer_finish_switch_fiber(owner_fake_stack, nullptr, nullptr);
#endif

    // The body may have handed over to peers: settle the fiber that
    // came back, which need not be this one.
    Fiber &f = *owner.back;
    f.inside_ = false;
    if (back)
        *back = &f;
    if (f.finished_)
        f.releaseStack();
    if (f.pending_exception_) {
        auto ex = f.pending_exception_;
        f.pending_exception_ = nullptr;
        std::rethrow_exception(ex);
    }
    return !f.finished_;
}

void
Fiber::yieldOut()
{
    panicIf(!inside_, "Fiber::yieldOut outside the fiber");
    owner_->back = this;
#ifdef PIMSTM_FIBER_ASAN
    __sanitizer_start_switch_fiber(&fake_stack_, owner_->stack_bottom,
                                   owner_->stack_size);
#endif
    jump(ctx_, owner_->ctx);
    landed();
}

void
Fiber::switchTo(Fiber &next)
{
    panicIf(!inside_ || next.inside_ || next.finished_,
            "Fiber::switchTo outside the fiber or to one that cannot run");
    next.owner_ = owner_;
    if (!next.started_)
        next.start();
    inside_ = false;
    next.inside_ = true;
#ifdef PIMSTM_FIBER_ASAN
    __sanitizer_start_switch_fiber(&fake_stack_, next.stack_.get(),
                                   next.stack_bytes_);
#endif
    jump(ctx_, next.ctx_);
    landed();
}

} // namespace pimstm::sim
