/**
 * @file
 * Model of the UPMEM 256-bit atomic register.
 *
 * The DPU's only synchronization primitives are acquire/release on a
 * 256-entry bit array: the hardware hashes the supplied address to one
 * of the 256 bits, so two unrelated addresses can alias to the same bit
 * and serialize (§2.1 / §3.2.1 of the paper). This class models the
 * register state and the hash; blocking semantics (a tasklet spinning on
 * a held bit) are implemented by the Dpu scheduler, which knows how to
 * suspend and wake tasklets.
 */

#ifndef PIMSTM_SIM_ATOMIC_REGISTER_HH
#define PIMSTM_SIM_ATOMIC_REGISTER_HH

#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace pimstm::sim
{

/** The 256-bit atomic register of one DPU. */
class AtomicRegister
{
  public:
    static constexpr unsigned kHardwareBits = 256;

    /**
     * @param usable_bits effective number of distinct bits; lowering it
     *        below 256 amplifies aliasing (used by the aliasing
     *        ablation). Must be a power of two in [1, 256].
     */
    explicit AtomicRegister(unsigned usable_bits = kHardwareBits)
    {
        recycle(usable_bits);
    }

    /** Return to the all-free state of a fresh register with
     * @p usable_bits entries (Dpu pool reuse). */
    void
    recycle(unsigned usable_bits)
    {
        fatalIf(!isPow2(usable_bits) || usable_bits > kHardwareBits,
                "atomic register bits must be a power of two <= 256, got ",
                usable_bits);
        bits_ = usable_bits;
        holder_.assign(usable_bits, kFree);
    }

    /** Hardware hash from an address-like key to a bit index. */
    unsigned
    bitFor(u32 key) const
    {
        // Fibonacci hashing: good mixing, cheap, and deterministic —
        // the real hardware hash is undocumented but behaves like a
        // uniform hash over the 256 entries.
        u32 h = key * 2654435761u;
        return (h >> 16) & (bits_ - 1);
    }

    /** Try to acquire @p bit for @p tasklet. */
    bool
    tryAcquire(unsigned bit, unsigned tasklet)
    {
        checkBit(bit);
        if (holder_[bit] != kFree)
            return false;
        holder_[bit] = static_cast<s16>(tasklet);
        return true;
    }

    /** Release @p bit; must be held by @p tasklet. */
    void
    release(unsigned bit, unsigned tasklet)
    {
        checkBit(bit);
        panicIf(holder_[bit] != static_cast<s16>(tasklet),
                "atomic release of bit ", bit, " by tasklet ", tasklet,
                " which does not hold it");
        holder_[bit] = kFree;
    }

    /** True iff @p bit is currently held. */
    bool
    isHeld(unsigned bit) const
    {
        checkBit(bit);
        return holder_[bit] != kFree;
    }

    /** Holder tasklet of @p bit, or -1 if free. */
    int
    holder(unsigned bit) const
    {
        checkBit(bit);
        return holder_[bit];
    }

    unsigned numBits() const { return bits_; }

  private:
    static constexpr s16 kFree = -1;

    void
    checkBit(unsigned bit) const
    {
        panicIf(bit >= bits_, "atomic register bit ", bit, " out of range");
    }

    unsigned bits_ = 0;
    std::vector<s16> holder_;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_ATOMIC_REGISTER_HH
