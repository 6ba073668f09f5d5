/**
 * @file
 * Cooperative user-level fibers.
 *
 * Each simulated tasklet runs on its own fiber. The DPU scheduler loop
 * enters a fiber to advance that tasklet; when the tasklet must give up
 * the DPU (a timing charge that cannot be elided, see Dpu::consume), it
 * switches straight to the next tasklet's fiber (switchTo) and hands
 * that fiber the way back to the loop, which it reaches again only when
 * a tasklet finishes or nothing else can run. One DPU's fibers all stay
 * on the host thread that called Dpu::run(), so simulated
 * "concurrency" is fully deterministic — while independent DPUs may
 * run concurrently on different host threads (a fiber must not migrate
 * between host threads mid-run).
 *
 * Two switch primitives are provided, and both offer the owner switch
 * (enter/yieldOut) and the peer switch (switchTo):
 *
 *  - **fast** (default on x86-64): a hand-rolled System V context
 *    switch that saves/restores only the callee-saved registers and the
 *    stack pointer. glibc's swapcontext additionally saves the signal
 *    mask with a real rt_sigprocmask syscall on *every* switch, which
 *    dominated the inner simulation loop; the simulator never touches
 *    signal masks, so the fast path simply skips it (~20 ns vs ~1 us).
 *  - **ucontext** (other architectures, sanitized builds, or
 *    -DPIMSTM_FIBER_UCONTEXT): the portable POSIX implementation. Under
 *    AddressSanitizer every switch, peer switches included, is
 *    announced with the destination's stack.
 *
 * Both are semantically identical to the scheduler; tests and CI run
 * the same suite whichever primitive is compiled in.
 */

#ifndef PIMSTM_SIM_FIBER_HH
#define PIMSTM_SIM_FIBER_HH

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PIMSTM_FIBER_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PIMSTM_FIBER_SANITIZED 1
#endif
#endif

// AddressSanitizer must be told about every stack switch
// (__sanitizer_start/finish_switch_fiber), or an exception thrown on a
// fiber makes __asan_handle_no_return unpoison the wrong stack.
#if defined(__SANITIZE_ADDRESS__)
#define PIMSTM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PIMSTM_FIBER_ASAN 1
#endif
#endif

#if !defined(PIMSTM_FIBER_UCONTEXT) && !defined(PIMSTM_FIBER_SANITIZED) && \
    defined(__x86_64__) && (defined(__linux__) || defined(__APPLE__))
#define PIMSTM_FIBER_FAST 1
#else
#include <ucontext.h>
#endif

#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "util/types.hh"

namespace pimstm::sim
{

/**
 * A single fiber. The owner (scheduler) calls enter() to run it; the
 * fiber body calls yieldOut() to suspend back to the owner, or
 * switchTo() to suspend in favour of a peer fiber, which then returns
 * to the same owner. When the body returns (or throws), the fiber
 * becomes finished and control returns to the owner; a stored
 * exception is rethrown by enter().
 */
class Fiber
{
  public:
    using Body = std::function<void()>;

    Fiber() = default;
    ~Fiber() = default;

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Prepare the fiber with a body that will run on a stack of at
     * least @p stack_bytes. May be called again once the previous body
     * finished (or never started). The stack is taken when the fiber
     * first runs, from the stacks that fibers finished on the same
     * host thread handed back, and handed back when the body finishes;
     * only when none is big enough is one allocated, without
     * zero-filling. Nothing reads a stack word before writing it, so a
     * reused stack's stale contents are as good as fresh memory.
     */
    void init(size_t stack_bytes, Body body);

    /**
     * Destroy the body (and everything it captured) of a fiber that is
     * not suspended mid-body; init() may then arm it again.
     */
    void dropBody();

    /**
     * Switch from the owner into the fiber; returns when a fiber yields
     * or finishes: this one, or the last of the peers it (and they)
     * handed over to with switchTo(). The stack release and exception
     * of a finished fiber are those of the fiber that came back: its
     * stack goes back to the host thread's spares, and any exception
     * its body raised is rethrown here.
     *
     * @param back if not null, receives the fiber that came back
     * @retval true that fiber is still runnable (it yielded)
     * @retval false its body finished
     */
    bool enter(Fiber **back = nullptr);

    /** Suspend back to the owner. Must be called from inside the body. */
    void yieldOut();

    /**
     * Suspend this fiber and run @p next (suspended, or armed and not
     * yet started) in its place; @p next returns to this fiber's owner
     * when it yields or finishes. Must be called from inside the body;
     * returns once something switches back to this fiber.
     */
    void switchTo(Fiber &next);

    /** True once the body has returned or thrown. */
    bool finished() const { return finished_; }

    /** True if init() has been called and the body has not finished. */
    bool runnable() const { return started_ && !finished_; }

  private:
#ifdef PIMSTM_FIBER_FAST
    friend void fiberEntry();
    /** A suspended context: its saved stack pointer. */
    using Context = void *;
#else
    static void trampoline();
    using Context = ucontext_t;
#endif

    /**
     * The context that called enter(), in that call's frame. Every
     * fiber it reaches by handoffs points to it, so whichever one
     * yields or finishes switches back to it and names itself.
     */
    struct Owner
    {
        Context ctx{};
        /** The fiber that switched back. */
        Fiber *back = nullptr;
#ifdef PIMSTM_FIBER_ASAN
        /** The owner's stack, learned by the fiber enter() switched
         * into; every switch back announces it to ASan. */
        const void *stack_bottom = nullptr;
        size_t stack_size = 0;
#endif
    };

    /** Lay out the first switch into the entry routine (per primitive). */
    void armStack();
    /** Take a stack and arm it; the next switch into the fiber runs
     * the body from its start. */
    void start();
    /** Take a spare stack of this host thread, or allocate one. */
    void acquireStack();
    /** Hand the finished body's stack back to this host thread. */
    void releaseStack();
    /** On this fiber's stack, right after a switch into it. */
    void landed();
    void run();

    /** Held only while the body runs (or is abandoned mid-body). */
    std::unique_ptr<char[]> stack_;
    size_t stack_bytes_ = 0;
    /** Stack size the current body needs (init()'s argument). */
    size_t wanted_stack_bytes_ = 0;
    Body body_;
    /** Where the fiber resumes when switched to. */
    Context ctx_{};
    /** The owner to switch back to, set by whatever switches into the
     * fiber (enter() or a peer's switchTo()). */
    Owner *owner_ = nullptr;
#ifdef PIMSTM_FIBER_ASAN
    /** ASan fake stack of the suspended fiber (use-after-return). */
    void *fake_stack_ = nullptr;
#endif
    bool started_ = false;
    bool finished_ = true;
    bool inside_ = false;
    std::exception_ptr pending_exception_;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_FIBER_HH
