/**
 * @file
 * Cooperative user-level fibers.
 *
 * Each simulated tasklet runs on its own fiber; the DPU scheduler switches
 * into a fiber to advance that tasklet and the fiber switches back on
 * every simulated-cost operation that cannot be elided (see
 * Dpu::consume). One DPU's fibers all stay on the host thread that called
 * Dpu::run(), so simulated "concurrency" is fully deterministic —
 * while independent DPUs may run concurrently on different host
 * threads (a fiber must not migrate between host threads mid-run).
 *
 * Two switch primitives are provided:
 *
 *  - **fast** (default on x86-64): a hand-rolled System V context
 *    switch that saves/restores only the callee-saved registers and the
 *    stack pointer. glibc's swapcontext additionally saves the signal
 *    mask with a real rt_sigprocmask syscall on *every* switch, which
 *    dominated the inner simulation loop; the simulator never touches
 *    signal masks, so the fast path simply skips it (~20 ns vs ~1 us).
 *  - **ucontext** (other architectures, sanitized builds, or
 *    -DPIMSTM_FIBER_UCONTEXT): the portable POSIX implementation.
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
 * fiber body calls yieldOut() to suspend back to the owner. When the
 * body returns (or throws), the fiber becomes finished and control
 * returns to the owner; a stored exception is rethrown by enter().
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
     * Switch from the owner into the fiber; returns when the fiber
     * yields or finishes. Rethrows any exception the body raised.
     *
     * @retval true the fiber is still runnable (it yielded)
     * @retval false the body finished
     */
    bool enter();

    /** Suspend back to the owner. Must be called from inside the body. */
    void yieldOut();

    /** True once the body has returned or thrown. */
    bool finished() const { return finished_; }

    /** True if init() has been called and the body has not finished. */
    bool runnable() const { return started_ && !finished_; }

    /** True when the fast (syscall-free) switch primitive is in use. */
    static constexpr bool
    fastSwitch()
    {
#ifdef PIMSTM_FIBER_FAST
        return true;
#else
        return false;
#endif
    }

  private:
#ifdef PIMSTM_FIBER_FAST
    friend void fiberEntry();
#else
    static void trampoline();
#endif
    /** Lay out the first switch into the entry routine (per primitive). */
    void armStack();
    /** Take a spare stack of this host thread, or allocate one. */
    void acquireStack();
    /** Hand the finished body's stack back to this host thread. */
    void releaseStack();
    void run();

    /** Held only while the body runs (or is abandoned mid-body). */
    std::unique_ptr<char[]> stack_;
    size_t stack_bytes_ = 0;
    /** Stack size the current body needs (init()'s argument). */
    size_t wanted_stack_bytes_ = 0;
    Body body_;
#ifdef PIMSTM_FIBER_FAST
    /** Saved stack pointer of the suspended fiber / owner. */
    void *sp_ = nullptr;
    void *owner_sp_ = nullptr;
#else
    ucontext_t ctx_{};
    ucontext_t owner_ctx_{};
#endif
#ifdef PIMSTM_FIBER_ASAN
    /** The owner's stack, as reported on the last switch into the
     * fiber; the switch back out announces it to ASan. */
    const void *owner_stack_bottom_ = nullptr;
    size_t owner_stack_size_ = 0;
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
