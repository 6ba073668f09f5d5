/**
 * @file
 * All timing and capacity constants of the simulated UPMEM system —
 * the DPU, the CPU-mediated host link, the host-CPU baselines and the
 * energy model — live here, in one place, as named constants, so
 * experiments can state exactly which hardware model they ran against.
 * DpuConfig holds the per-DPU settings that experiments do vary.
 *
 * The constants reproduce the published characteristics of the UPMEM
 * DPU (Gomez-Luna et al., IGSC'21; UPMEM SDK docs) and the latencies the
 * PIM-STM paper itself measured (331 us inter-DPU word read vs 231 ns
 * local MRAM read).
 */

#ifndef PIMSTM_SIM_CONFIG_HH
#define PIMSTM_SIM_CONFIG_HH

#include <cstddef>

#include "sim/fault.hh"
#include "util/types.hh"

namespace pimstm::sim
{

//
// Intra-DPU timing model.
//
// The DPU is a fine-grained multithreaded in-order core: one instruction
// is dispatched per cycle, round-robin over ready tasklets, and a given
// tasklet may dispatch its next instruction no earlier than
// kReissueInterval cycles after its previous one (the "revolver"
// pipeline, effective depth 11). Hence a lone tasklet executes one
// instruction every 11 cycles, and aggregate IPC grows linearly up to 11
// tasklets and is flat beyond — the saturation the paper leans on.
//
// MRAM is reached through a single per-DPU DMA engine: accesses pay a
// fixed latency plus a bandwidth term, and transfers from different
// tasklets serialize on the engine, which is why strongly memory-bound
// workloads (Labyrinth) saturate below 11 tasklets.
//

/** DPU clock frequency (Hz). */
constexpr double kClockHz = 350.0e6;

/** Minimum cycles between two instructions of the same tasklet. */
constexpr unsigned kReissueInterval = 11;

/** Fixed MRAM DMA latency in cycles before the engine stage; a
 * single word access totals SDK issue (4 instrs x 11 cy) + latency
 * + setup + 1 beat = 80 cy = 229 ns at 350 MHz — the paper's
 * measured local MRAM read, SDK overhead included. */
constexpr unsigned kMramLatencyCycles = 28;

/** DMA engine setup occupancy per transfer. Together with the
 * per-beat term this caps word-granular MRAM throughput at
 * ~44 M accesses/s, so workloads of word-sized DPU accesses keep
 * scaling to ~10 tasklets while block-transfer-heavy workloads
 * (Labyrinth's grid copies) saturate the engine much earlier. */
constexpr unsigned kMramEngineSetupCycles = 4;

/** DMA engine occupancy per 8-byte beat (8 B / 4 cy at 350 MHz is
 * ~700 MB/s streaming, matching measured MRAM bandwidth). */
constexpr unsigned kMramCyclesPerBeat = 4;

/** DMA transfer granularity in bytes (accesses are rounded up). */
constexpr unsigned kMramBeatBytes = 8;

/** Fixed cost of an MRAM flush fence (docs/durability.md): the
 * issuing tasklet waits for the DMA engine to drain, then pays
 * this base plus one beat per unflushed line pushed to the
 * persist boundary. Only charged in durable mode. */
constexpr unsigned kMramFenceBaseCycles = 8;

/** Extra engine occupancy for *random* (dependent, pointer-chasing)
 * word accesses, which defeat DMA pipelining: the effective random
 * word bandwidth is ~17 M accesses/s, so random-access kernels
 * (Lee expansion) stop scaling around 5 tasklets — the paper's
 * Labyrinth saturation point. */
constexpr unsigned kMramRandomExtraCycles = 12;

/** Maximum bytes one DMA transfer can move (2 KB on UPMEM);
 * larger block accesses issue multiple back-to-back transfers. */
constexpr unsigned kMramMaxTransferBytes = 2048;

/** Instructions charged for a WRAM word access. */
constexpr unsigned kWramAccessInstrs = 1;

/** Instruction overhead of issuing one MRAM DMA (the SDK's
 * mram_read/mram_write: WRAM staging-buffer management, alignment
 * handling, DMA programming). Paid once per transfer — word
 * accesses feel it fully; 2 KB streams amortize it. */
constexpr unsigned kMramAccessInstrs = 4;

/** Instructions per single-precision floating-point operation.
 * The DPU has no FPU; floats are software-emulated at tens of
 * cycles per op — a first-order reason a lone DPU is 100-300x
 * slower than a Xeon on KMeans (§4.3.2). */
constexpr unsigned kFloatOpInstrs = 32;

/** Instructions charged for an acquire/release on the atomic
 * register (operates on a hardware register, not memory). */
constexpr unsigned kAtomicOpInstrs = 1;

/** Convert cycles to seconds at the DPU clock. */
inline double
cyclesToSeconds(Cycles c)
{
    return static_cast<double>(c) / kClockHz;
}

//
// Capacity model of one DPU.
//

/** WRAM scratchpad capacity (64 KB on UPMEM). */
constexpr size_t kWramBytes = 64 * 1024;

/** Hardware thread (tasklet) count. */
constexpr unsigned kMaxTasklets = 24;

/** Per-DPU settings that vary between experiments. */
struct DpuConfig
{
    /** MRAM bank capacity (64 MB on UPMEM). Simulations that need many
     * DPUs may shrink this to bound host memory; allocation beyond the
     * configured size fails just like on hardware. */
    size_t mram_bytes = 64 * 1024 * 1024;

    /**
     * Host stack size for each tasklet fiber. A fiber runs on a stack
     * that an earlier fiber on the same host thread finished with, or
     * on a new one, allocated without zero-filling, when no spare is
     * this big (sim::Fiber::init).
     */
    size_t fiber_stack_bytes = 256 * 1024;

    /** Number of usable entries in the 256-bit atomic register. Lowering
     * this (the aliasing ablation) amplifies lock aliasing. */
    unsigned atomic_bits = 256;

    /** Base RNG seed for this DPU's tasklet streams. */
    u64 seed = 1;

    /** Deterministic fault-injection plan (docs/robustness.md). The
     * default empty plan builds no injector at all: behaviour and all
     * stats stay bitwise identical to a fault-free build. */
    FaultPlan faults;

    /** Progress-watchdog budget: fail the run with WatchdogError
     * (livelock) when no transaction commits on this DPU for this many
     * simulated cycles. 0 disables the livelock watchdog; deadlock
     * detection (all live tasklets blocked on the atomic register) is
     * always on — it replaces what used to be an unattributed panic. */
    Cycles watchdog_cycles = 0;

    /** Force a fiber switch on every timing charge instead of eliding
     * switches when the running tasklet stays the scheduler's next
     * pick. Simulated results are bitwise identical either way (the
     * test suite and CI cross-check this); the switching mode is only
     * slower. The PIMSTM_SIM_ALWAYS_SWITCH environment variable
     * forces this on for any Dpu regardless of the field. */
    bool always_switch = false;
};

//
// Host-link cost model for the multi-DPU experiments (§4.3).
//
// All inter-DPU communication is CPU-mediated on UPMEM, and the CPU can
// only touch MRAM while the DPU is idle. The constants reproduce the
// paper's measured 331 us CPU-mediated inter-DPU 64-bit read, and a
// batched host<->MRAM copy bandwidth of a few GB/s aggregated across
// ranks.
//

/** CPU-mediated read of one 64-bit word from another DPU (us). */
constexpr double kInterDpuWordReadUs = 331.0;

/** Local MRAM read of a 64-bit word (ns), for the E1 microbench. */
constexpr double kLocalMramWordReadNs = 231.0;

/** Fixed cost of launching a batch of DPUs / syncing (us). */
constexpr double kLaunchOverheadUs = 50.0;

/** kLaunchOverheadUs in seconds: one DPU-batch launch/sync. */
constexpr double kLaunchOverheadSeconds = kLaunchOverheadUs * 1e-6;

/** Aggregate host<->MRAM copy bandwidth across all ranks (GB/s). */
constexpr double kHostCopyBandwidthGbps = 8.0;

/** Fixed per-transfer-batch setup cost (us). */
constexpr double kCopyBaseUs = 10.0;

/**
 * Time for the host to move @p total_bytes over the host<->MRAM link
 * in one batched copy: the fixed setup term plus the bytes at the
 * aggregate bandwidth (copies are batched across ranks). Coordinators
 * with ragged per-shard payloads (e.g. 2PC fragment/vote/decision
 * rounds) charge their exact byte totals here.
 */
inline double
transferSeconds(double total_bytes)
{
    const double bw = kHostCopyBandwidthGbps * 1e9;
    return kCopyBaseUs * 1e-6 + total_bytes / bw;
}

//
// First-order cost model of the host CPU baselines (§4.3).
//
// The multi-DPU figures compare against CPU implementations whose
// runtime is, by construction, linear in simple operation counts
// (points x rounds for KMeans, memory words walked for Labyrinth).
// Charging those counts against calibrated rates — instead of timing
// real threads with the wall clock — makes every column of the figures
// bitwise reproducible across runs, machines and --jobs settings. The
// rates below were fitted once against measured runs of the real
// baselines on the reference machine (runKMeansCpu: 0.429 us per
// point-round at k=15/d=14 with 4 threads, 0.212 us at k=2;
// runLabyrinthCpu: 0.7/1.2/20 ms for the S/M/L quick instances), and
// the measured paths remain available behind --measured-cpu.
//

/** Sustained scalar float throughput per host thread (FLOP/s). */
constexpr double kHostFlopsPerS = 0.9e9;

/** Effective touched-words rate per host thread for the pointer-
 * heavy Labyrinth routing (snapshot, Lee expansion, backtrack). */
constexpr double kHostMemWordsPerS = 70.0e6;

/** Host NOrec cost per transactional read-or-write (ns). */
constexpr double kHostStmOpNs = 15.0;

/** Host NOrec per-transaction begin+commit overhead (ns). */
constexpr double kHostStmTxNs = 50.0;

/** Host-side centroid merge throughput (adds/s, single thread —
 * the merge runs on thread 0 between rounds). */
constexpr double kHostMergeAddsPerS = 2.0e9;

/** Multi-thread scaling efficiency of the CPU baselines (the
 * fraction of linear speedup real threads achieve). */
constexpr double kHostParallelEfficiency = 0.7;

//
// Energy model used by the Fig. 8 reproduction.
//

/** Full UPMEM system thermal design power (W), as used by the
 * paper's own estimate (Falevoz & Legriel, PECS'23). */
constexpr double kUpmemSystemTdpW = 370.0;

/** Total DPUs in the full system the TDP refers to. */
constexpr unsigned kUpmemSystemDpus = 2560;

/** CPU package power for the baseline machine (W). The paper
 * measured via RAPL on a Xeon Gold 5218 (TDP 125 W); RAPL is not
 * readable here, so package TDP plus a DRAM term is used instead. */
constexpr double kCpuPackageW = 125.0;

/** DRAM subsystem power for the CPU baseline (W). */
constexpr double kCpuDramW = 30.0;

} // namespace pimstm::sim

#endif // PIMSTM_SIM_CONFIG_HH
