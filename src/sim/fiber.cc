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
// enter() clobber the fiber another thread is about to start.
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
    sp_ = slot;
}

void
Fiber::run()
{
    try {
        body_();
    } catch (...) {
        pending_exception_ = std::current_exception();
    }
    finished_ = true;
    // Return to the most recent enter().
    pimstm_fiber_switch(&sp_, &owner_sp_);
}

bool
Fiber::enter()
{
    panicIf(finished_, "Fiber::enter on a finished fiber");
    panicIf(inside_, "Fiber::enter re-entered");

    if (!started_) {
        acquireStack();
        armStack();
        started_ = true;
        starting_fiber = this;
    }
    inside_ = true;
    pimstm_fiber_switch(&owner_sp_, &sp_);
    inside_ = false;
    if (finished_)
        releaseStack();

    if (pending_exception_) {
        auto ex = pending_exception_;
        pending_exception_ = nullptr;
        std::rethrow_exception(ex);
    }
    return !finished_;
}

void
Fiber::yieldOut()
{
    panicIf(!inside_, "Fiber::yieldOut outside the fiber");
    pimstm_fiber_switch(&sp_, &owner_sp_);
}

#else // PIMSTM_FIBER_FAST

// ---------------------------------------------------------------------
// Portable path: POSIX ucontext. Used on non-x86-64 hosts and in
// sanitized builds (the sanitizers understand swapcontext but not a
// hand-rolled stack switch).
// ---------------------------------------------------------------------

void
Fiber::armStack()
{
    panicIf(getcontext(&ctx_) != 0, "getcontext failed");
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = &owner_ctx_;
    makecontext(&ctx_, &Fiber::trampoline, 0);
}

void
Fiber::trampoline()
{
    Fiber *self = starting_fiber;
    starting_fiber = nullptr;
#ifdef PIMSTM_FIBER_ASAN
    __sanitizer_finish_switch_fiber(nullptr, &self->owner_stack_bottom_,
                                    &self->owner_stack_size_);
#endif
    self->run();
    // Falling off the trampoline returns to owner_ctx_ via uc_link, but
    // run() already marks the fiber finished and we prefer the explicit
    // swap so the owner context is the one captured by the last enter().
}

void
Fiber::run()
{
    try {
        body_();
    } catch (...) {
        pending_exception_ = std::current_exception();
    }
    finished_ = true;
#ifdef PIMSTM_FIBER_ASAN
    // Never resumed: the null fake-stack slot lets ASan free this
    // fiber's fake stack.
    __sanitizer_start_switch_fiber(nullptr, owner_stack_bottom_,
                                   owner_stack_size_);
#endif
    // Return to the most recent enter().
    swapcontext(&ctx_, &owner_ctx_);
}

bool
Fiber::enter()
{
    panicIf(finished_, "Fiber::enter on a finished fiber");
    panicIf(inside_, "Fiber::enter re-entered");

    if (!started_) {
        acquireStack();
        armStack();
        started_ = true;
        starting_fiber = this;
    }
    inside_ = true;
#ifdef PIMSTM_FIBER_ASAN
    void *owner_fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&owner_fake_stack, stack_.get(),
                                   stack_bytes_);
#endif
    panicIf(swapcontext(&owner_ctx_, &ctx_) != 0, "swapcontext failed");
#ifdef PIMSTM_FIBER_ASAN
    __sanitizer_finish_switch_fiber(owner_fake_stack, nullptr, nullptr);
#endif
    inside_ = false;
    if (finished_)
        releaseStack();

    if (pending_exception_) {
        auto ex = pending_exception_;
        pending_exception_ = nullptr;
        std::rethrow_exception(ex);
    }
    return !finished_;
}

void
Fiber::yieldOut()
{
    panicIf(!inside_, "Fiber::yieldOut outside the fiber");
#ifdef PIMSTM_FIBER_ASAN
    __sanitizer_start_switch_fiber(&fake_stack_, owner_stack_bottom_,
                                   owner_stack_size_);
#endif
    panicIf(swapcontext(&ctx_, &owner_ctx_) != 0, "swapcontext failed");
#ifdef PIMSTM_FIBER_ASAN
    // The owner may have been re-entered from another host stack.
    __sanitizer_finish_switch_fiber(fake_stack_, &owner_stack_bottom_,
                                    &owner_stack_size_);
#endif
}

#endif // PIMSTM_FIBER_FAST

} // namespace pimstm::sim
