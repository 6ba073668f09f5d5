/**
 * @file
 * CPU baseline for the multi-DPU Labyrinth study (§4.3): one circuit-
 * routing instance solved on real host threads with the host NOrec
 * STM — the same copy / Lee-route / transactionally-claim structure as
 * the DPU port, timed in wall-clock.
 */

#ifndef PIMSTM_CPU_LABYRINTH_CPU_HH
#define PIMSTM_CPU_LABYRINTH_CPU_HH

#include <vector>

#include "util/types.hh"

namespace pimstm::cpu
{

struct LabyrinthCpuParams
{
    u32 x = 16, y = 16, z = 3;
    u32 num_paths = 100;
    unsigned threads = 8; // the paper's optimum for Labyrinth
    u64 seed = 1;

    u32 cells() const { return x * y * z; }
};

struct LabyrinthCpuResult
{
    double seconds = 0;
    u64 routed = 0;
    u64 failed = 0;
    u64 commits = 0;
    u64 aborts = 0;
};

/** Solve one instance on the CPU and return timing + stats. */
LabyrinthCpuResult runLabyrinthCpu(const LabyrinthCpuParams &params);

/**
 * Deterministic model of runLabyrinthCpu's wall-clock: replay the
 * routing serially (same endpoint list), counting the memory words
 * each attempt touches (grid snapshot, Lee expansion, backtrack) and
 * the transactional claim operations, then charge them against the
 * calibrated host rates. Bitwise stable across runs and machines;
 * --measured-cpu in the figure harnesses restores the timed baseline.
 */
double modelLabyrinthCpuSeconds(const LabyrinthCpuParams &params);

} // namespace pimstm::cpu

#endif // PIMSTM_CPU_LABYRINTH_CPU_HH
