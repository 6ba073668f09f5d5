/**
 * @file
 * Process-wide pool of simulated DPUs, so the sweep harnesses recycle
 * fully-constructed instances (materialized memory tiers, allocated
 * buffers) instead of constructing and zero-filling a fresh 64 MB MRAM
 * per sweep point. Recycling goes through sim::Dpu::recycle(), which
 * restores the exact observable state of a fresh Dpu — pooled and
 * fresh runs are bitwise identical (tested), so the pool is a pure
 * host-side optimization, like fiber-switch elision.
 *
 * The pool is shared by all host threads of runtime::runWorkloadMany;
 * acquire/release are mutex-protected (the expensive recycle memset
 * runs outside the lock); hit/miss counters feed the --perf-json
 * artifact.
 */

#ifndef PIMSTM_RUNTIME_DPU_POOL_HH
#define PIMSTM_RUNTIME_DPU_POOL_HH

#include <memory>
#include <mutex>
#include <vector>

#include "sim/dpu.hh"

namespace pimstm::runtime
{

/** Bounded free-list of recyclable sim::Dpu instances. */
class DpuPool
{
  public:
    /** The process-wide pool. */
    static DpuPool &global();

    /** A Dpu in the fresh-constructed state for @p cfg: a recycled
     * pooled instance when available, else a new one. */
    std::unique_ptr<sim::Dpu> acquire(const sim::DpuConfig &cfg);

    /**
     * Return a Dpu for reuse. Callers must only release instances
     * whose run completed normally (an exception unwinding through
     * Dpu::run leaves the fiber state unusable) — on error paths,
     * simply destroy the unique_ptr instead.
     */
    void release(std::unique_ptr<sim::Dpu> dpu);

    /** Host-side reuse counters for the perf artifact. */
    struct Stats
    {
        u64 hits = 0;     ///< acquires served by recycling
        u64 misses = 0;   ///< acquires that constructed a fresh Dpu
        u64 discards = 0; ///< releases dropped because the pool was full
        size_t pooled = 0; ///< instances currently in the free list
    };

    Stats stats() const;

    /** Drop every pooled instance (tests; bounds host memory). */
    void clear();

  private:
    DpuPool();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<sim::Dpu>> free_;
    size_t max_pooled_;
    u64 hits_ = 0;
    u64 misses_ = 0;
    u64 discards_ = 0;
};

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_DPU_POOL_HH
