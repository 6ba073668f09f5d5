/**
 * @file
 * One-shot host allocator tuning for the simulation hot path.
 *
 * Every sweep point constructs and destroys a few hundred KB of STM
 * metadata (descriptor arrays, transactional-set index tables). With
 * glibc's default dynamic thresholds those allocations are served by
 * mmap and returned to the kernel on free, so a sweep pays a fresh set
 * of page faults per point — hundreds of thousands of minor faults
 * over a fig6 run, all kernel time. Raising M_MMAP_THRESHOLD and
 * M_TRIM_THRESHOLD keeps that churn on the heap, where freed blocks
 * (and their faulted pages) are reused by the next sweep point.
 *
 * Purely a host-side optimization: allocator placement can never
 * change simulated timing. No-op on non-glibc libcs.
 */

#ifndef PIMSTM_UTIL_HOST_ALLOC_HH
#define PIMSTM_UTIL_HOST_ALLOC_HH

namespace pimstm::util
{

/** Apply the allocator tuning once per process (idempotent,
 * thread-safe). */
void tuneHostAllocator();

} // namespace pimstm::util

#endif // PIMSTM_UTIL_HOST_ALLOC_HH
