/**
 * @file
 * Highest offered rate meeting a serving SLO, judged on exact numbers.
 *
 * runtime::findCapacity judges log2 histogram bounds (its 2 ms SLO is
 * in effect 1.048576 ms) and stops on a fixed number of bisections, so
 * its answer sits on bucket and grid boundaries. This search doubles
 * from a floor until a probe fails, then bisects until the bracket is
 * within kCapacityResolution, and refuses to answer unless the
 * floor passes and some probe below the ceiling fails — a search whose
 * knee lies outside [floor, ceiling) has measured nothing.
 */

#ifndef PERFBENCH_CAPACITY_HH
#define PERFBENCH_CAPACITY_HH

#include <functional>
#include <string>
#include <vector>

namespace perfbench
{

/** Bisection stops once the failing rate is within 1% of the passing one. */
inline constexpr double kCapacityResolution = 0.01;

struct CapacityProbe
{
    double rate_per_s = 0.0;
    bool ok = false;
};

struct CapacityResult
{
    /** Highest passing rate; 0 when the search failed. */
    double capacity_per_s = 0.0;
    /** Lowest failing rate above it (bracket upper end). */
    double failing_per_s = 0.0;
    std::vector<CapacityProbe> probes;
    /** Empty on success; why the knee was not bracketed otherwise. */
    std::string error;
};

/**
 * @p meets maps an offered rate to pass/fail. Doubling from @p floor
 * stops at the first failure; rates at or above @p ceiling are never
 * probed. Bisection then narrows [pass, fail) until
 * fail <= pass * (1 + kCapacityResolution).
 */
CapacityResult searchCapacity(const std::function<bool(double)> &meets,
                              double floor, double ceiling);

} // namespace perfbench

#endif // PERFBENCH_CAPACITY_HH
