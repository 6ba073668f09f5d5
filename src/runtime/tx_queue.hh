/**
 * @file
 * A transactional work queue: a bounded ticket dispenser whose head
 * index lives in simulated memory and is popped inside a (tiny)
 * transaction. Labyrinth uses it to hand path-routing jobs to tasklets,
 * exactly like the "very short transaction used to extract jobs from a
 * shared queue" the paper describes (§4.2.1) — short, but contended, so
 * it is where VR's spurious upgrade aborts show up.
 */

#ifndef PIMSTM_RUNTIME_TX_QUEUE_HH
#define PIMSTM_RUNTIME_TX_QUEUE_HH

#include "core/stm.hh"
#include "runtime/shared_array.hh"

namespace pimstm::runtime
{

/** Transactional ticket dispenser over [0, size). */
class TxQueue
{
  public:
    TxQueue() = default;

    TxQueue(sim::Dpu &dpu, Tier tier, u32 size)
        : head_(dpu, tier, 1), size_(size)
    {
        head_.poke(dpu, 0, 0);
    }

    /**
     * Pop the next ticket inside its own transaction.
     * @return ticket index, or -1 when the queue is drained.
     */
    s64
    pop(core::Stm &stm, sim::DpuContext &ctx)
    {
        s64 ticket = -1;
        core::atomically(stm, ctx, [&](core::TxHandle &tx) {
            const u32 h = tx.read(head_.at(0));
            if (h >= size_) {
                ticket = -1;
                return;
            }
            tx.write(head_.at(0), h + 1);
            ticket = h;
        });
        return ticket;
    }

    u32 size() const { return size_; }

  private:
    SharedArray32 head_;
    u32 size_ = 0;
};

} // namespace pimstm::runtime

#endif // PIMSTM_RUNTIME_TX_QUEUE_HH
