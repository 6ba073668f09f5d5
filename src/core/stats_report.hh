/**
 * @file
 * Human-readable reporting of STM + DPU statistics: one-line summaries
 * and full breakdown blocks, shared by the examples and ad-hoc tools so
 * they all present numbers the same way.
 */

#ifndef PIMSTM_CORE_STATS_REPORT_HH
#define PIMSTM_CORE_STATS_REPORT_HH

#include <ostream>
#include <string>

#include "core/stats.hh"
#include "sim/dpu.hh"

namespace pimstm::core
{

/** Render "12.3 Mtx/s" style human-friendly rates. */
std::string formatRate(double per_second);

/** Render "1.23 ms" style durations. */
std::string formatSeconds(double seconds);

/** One line: commits, aborts, abort rate, throughput. */
void printSummaryLine(std::ostream &os, const StmStats &stm,
                      const sim::DpuStats &dpu);

/**
 * Full block: the summary line plus abort-reason histogram, operation
 * counters and the per-phase time breakdown (the paper's breakdown
 * bars, as text).
 */
void printReport(std::ostream &os, const StmStats &stm,
                 const sim::DpuStats &dpu);

} // namespace pimstm::core

#endif // PIMSTM_CORE_STATS_REPORT_HH
