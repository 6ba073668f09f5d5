/**
 * @file
 * Scheduler-event trace hook. The simulator sits below core/ in the
 * layering (sim must not depend on core), so the Dpu emits its
 * scheduling events — fiber switches, atomic-register stalls and
 * wake-ups, barrier traffic, injected faults — through this abstract
 * sink; core::TraceBuffer implements it and merges the scheduler
 * timeline with the STM transaction events on one clock.
 *
 * Everything here is host-side observability: emission sites are
 * guarded by a single null-pointer compare, and no simulated state or
 * cost ever depends on whether a sink is attached, so a traced run is
 * bitwise identical to an untraced one (CI-gated, like --faults=none).
 */

#ifndef PIMSTM_SIM_SCHED_TRACE_HH
#define PIMSTM_SIM_SCHED_TRACE_HH

#include <iosfwd>

#include "util/types.hh"

namespace pimstm::sim
{

/** Scheduler-level events a Dpu reports to an attached sink. */
enum class SchedEvent : u8
{
    /** The scheduler entered a tasklet fiber (arg = ready_at). */
    Switch = 0,
    /** A tasklet found its atomic bit held and blocked (arg = bit). */
    Stall,
    /** A blocked tasklet was woken by a release (arg = bit,
     * arg2 = cycles it spent blocked). */
    Wake,
    /** A tasklet arrived at the all-tasklet barrier. */
    BarrierArrive,
    /** The barrier released (arg = generation just completed);
     * reported once per release, attributed to the releasing tasklet. */
    BarrierRelease,
    /** The fault injector delivered a tasklet stall (arg = cycles). */
    FaultStall,
    /** The fault injector delayed an acquire (arg = cycles). */
    FaultAcqDelay,
    NumEvents,
};

constexpr size_t kNumSchedEvents =
    static_cast<size_t>(SchedEvent::NumEvents);

/** Receiver of scheduler events; attached with Dpu::setTraceSink. */
class SchedTraceSink
{
  public:
    virtual ~SchedTraceSink() = default;

    /** One scheduler event at simulated time @p time on @p tasklet.
     * The meaning of @p arg / @p arg2 is per-event (see SchedEvent). */
    virtual void schedEvent(Cycles time, unsigned tasklet, SchedEvent e,
                            u64 arg, u64 arg2) = 0;

    /** Append the last @p n trace records to @p os, one per line —
     * called by Dpu::progressDump so a watchdog verdict carries the
     * events leading up to the wedge. */
    virtual void dumpTail(std::ostream &os, size_t n) const = 0;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_SCHED_TRACE_HH
