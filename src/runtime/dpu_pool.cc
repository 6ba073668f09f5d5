#include "runtime/dpu_pool.hh"

#include <algorithm>
#include <thread>

namespace pimstm::runtime
{

DpuPool::DpuPool()
{
    // Enough pooled instances to keep every sweep worker in hits, with
    // a floor for small machines; beyond that, releases are discarded
    // to bound host memory.
    const unsigned hw = std::thread::hardware_concurrency();
    max_pooled_ = std::max<size_t>(8, 2 * std::max(1u, hw));
}

DpuPool &
DpuPool::global()
{
    static DpuPool pool;
    return pool;
}

std::unique_ptr<sim::Dpu>
DpuPool::acquire(const sim::DpuConfig &cfg)
{
    std::unique_ptr<sim::Dpu> dpu;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!free_.empty()) {
            dpu = std::move(free_.back());
            free_.pop_back();
            ++hits_;
        } else {
            ++misses_;
        }
    }
    if (dpu) {
        dpu->recycle(cfg); // memset outside the lock
        return dpu;
    }
    return std::make_unique<sim::Dpu>(cfg);
}

void
DpuPool::release(std::unique_ptr<sim::Dpu> dpu)
{
    if (!dpu)
        return;
    std::lock_guard<std::mutex> lk(mutex_);
    if (free_.size() >= max_pooled_) {
        ++discards_;
        return; // dpu destructs on return (after the lock is dropped)
    }
    free_.push_back(std::move(dpu));
}

DpuPool::Stats
DpuPool::stats() const
{
    std::lock_guard<std::mutex> lk(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.discards = discards_;
    s.pooled = free_.size();
    return s;
}

void
DpuPool::clear()
{
    std::vector<std::unique_ptr<sim::Dpu>> doomed;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        doomed.swap(free_);
    }
    // Destruction (freeing materialized tiers) happens outside the lock.
}

} // namespace pimstm::runtime
