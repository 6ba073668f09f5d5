/**
 * @file
 * The closed-loop paper sweep: Fig. 6's grid (ArrayBench A/B,
 * Linked-List LC/HC, KMeans LC/HC x the seven PIM-STMs x 1-16 tasklets
 * x MRAM and WRAM metadata) as fig6_summary runs it by default: quick
 * sizes, three seed replicas per point, one runtime::runWorkload call
 * per replica, on one host thread.
 */

#ifndef PERFBENCH_PAPER_SWEEP_HH
#define PERFBENCH_PAPER_SWEEP_HH

#include "report.hh"

namespace perfbench
{

/** Mean-latency limit of the closed loop's capacity (Little's law). */
inline constexpr double kSweepLatencyLimitS = 2e-3;

/**
 * One pass over the sweep: its set-up (run list and DPU-pool warm-up,
 * repeated; setup_s is the median) and its timed phase, every run once.
 */
PassResult runPaperSweepPass(u64 seed, Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_PAPER_SWEEP_HH
