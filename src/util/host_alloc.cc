#include "util/host_alloc.hh"

#include <mutex>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace pimstm::util
{

void
tuneHostAllocator()
{
    static std::once_flag once;
    std::call_once(once, [] {
#ifdef __GLIBC__
        // 32 MB covers the largest per-sweep-point allocation (STM
        // metadata, index tables) and the common materialized extent
        // of a pooled MRAM tier. Setting the thresholds explicitly
        // also disables glibc's dynamic adjustment, so behaviour does
        // not depend on allocation order.
        constexpr int kThreshold = 32 * 1024 * 1024;
        mallopt(M_MMAP_THRESHOLD, kThreshold);
        mallopt(M_TRIM_THRESHOLD, kThreshold);
#endif
    });
}

} // namespace pimstm::util
