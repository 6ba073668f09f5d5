/**
 * @file
 * Deterministic host-side parallel executor.
 *
 * The simulator's outer loops — the shard DPUs of one round, seed replicas
 * within a sweep point, sweep points within a figure harness — are
 * embarrassingly parallel: each unit of work is a self-contained
 * simulation (own Memory, fibers, AtomicRegister, RNG) whose result
 * depends only on its inputs, never on which host thread runs it or in
 * which order units complete. ThreadPool::parallelFor exploits that:
 * work is distributed dynamically for load balance, but every result is
 * written to a caller-provided slot indexed by work-item position, so
 * output is bitwise identical for any job count (--jobs=1 vs --jobs=8).
 *
 * Work-stealing is deliberately absent: a shared atomic index is all
 * the scheduling this workload shape needs, and it keeps the executor
 * small enough to audit for the determinism guarantee.
 *
 * Nested use: a parallelFor issued from inside a pool task runs inline
 * on the calling thread (serially). This makes composition safe — e.g.
 * a sweep harness parallelizes over points while runPoint parallelizes
 * over seeds — without deadlock or thread explosion.
 */

#ifndef PIMSTM_UTIL_THREAD_POOL_HH
#define PIMSTM_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/types.hh"

namespace pimstm::util
{

/**
 * Fixed-size thread pool with a single primitive: parallelFor.
 *
 * The calling thread participates in the work, so a pool of J jobs
 * spawns J-1 workers; a pool with jobs == 1 spawns none and runs
 * everything inline (making --jobs=1 exactly the old serial path).
 */
class ThreadPool
{
  public:
    using IndexFn = std::function<void(size_t)>;

    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of host threads this pool uses (including the caller). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run fn(0) .. fn(n-1), distributing indices over the pool. Blocks
     * until every index has run. Indices are claimed dynamically, so
     * completion order is unspecified — callers must write results into
     * per-index slots, never append to shared containers.
     *
     * Exceptions: a throwing index does not cancel the others; after
     * the barrier the exception from the smallest throwing index is
     * rethrown (deterministic regardless of scheduling).
     *
     * Nested use (from inside a pool task, any pool) runs inline and
     * serially on the calling thread. Concurrent use of one pool from
     * two unrelated host threads is a caller bug and panics.
     */
    void parallelFor(size_t n, const IndexFn &fn);

    /** True while the calling thread is executing a pool task. */
    static bool insideTask();

    /**
     * Job count used when none is given explicitly: the PIMSTM_JOBS
     * environment variable if set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (at least 1).
     */
    static unsigned defaultJobs();

    /**
     * The process-wide pool shared by the multi-DPU hosts, the
     * workload driver and the bench harnesses. Created on first use
     * with defaultJobs().
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of @p jobs threads (0 =
     * defaultJobs()). Must not be called while parallel work is in
     * flight; intended for CLI --jobs=N handling and tests.
     */
    static void setGlobalJobs(unsigned jobs);

  private:
    void workerLoop();
    void runIndices();

    unsigned jobs_ = 1;
    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    bool stop_ = false;
    bool busy_ = false;
    u64 generation_ = 0;

    // Current job (valid while busy_).
    size_t job_n_ = 0;
    const IndexFn *job_fn_ = nullptr;
    std::atomic<size_t> next_index_{0};
    unsigned active_workers_ = 0;
    std::exception_ptr first_ex_;
    size_t first_ex_index_ = 0;
};

/** parallelFor on the process-wide pool. */
inline void
parallelFor(size_t n, const ThreadPool::IndexFn &fn)
{
    ThreadPool::global().parallelFor(n, fn);
}

} // namespace pimstm::util

#endif // PIMSTM_UTIL_THREAD_POOL_HH
