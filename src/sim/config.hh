/**
 * @file
 * All timing and capacity constants of the simulated UPMEM system live
 * here, in one place, so experiments can state exactly which hardware
 * model they ran against.
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

/**
 * Intra-DPU timing model.
 *
 * The DPU is a fine-grained multithreaded in-order core: one instruction
 * is dispatched per cycle, round-robin over ready tasklets, and a given
 * tasklet may dispatch its next instruction no earlier than
 * reissue_interval cycles after its previous one (the "revolver"
 * pipeline, effective depth 11). Hence a lone tasklet executes one
 * instruction every 11 cycles, and aggregate IPC grows linearly up to 11
 * tasklets and is flat beyond — the saturation the paper leans on.
 *
 * MRAM is reached through a single per-DPU DMA engine: accesses pay a
 * fixed latency plus a bandwidth term, and transfers from different
 * tasklets serialize on the engine, which is why strongly memory-bound
 * workloads (Labyrinth) saturate below 11 tasklets.
 */
struct TimingConfig
{
    /** DPU clock frequency (Hz). */
    double clock_hz = 350.0e6;

    /** Minimum cycles between two instructions of the same tasklet. */
    unsigned reissue_interval = 11;

    /** Fixed MRAM DMA latency in cycles before the engine stage; a
     * single word access totals SDK issue (4 instrs x 11 cy) + latency
     * + setup + 1 beat = 80 cy = 229 ns at 350 MHz — the paper's
     * measured local MRAM read, SDK overhead included. */
    unsigned mram_latency_cycles = 28;

    /** DMA engine setup occupancy per transfer. Together with the
     * per-beat term this caps word-granular MRAM throughput at
     * ~44 M accesses/s, so workloads of word-sized DPU accesses keep
     * scaling to ~10 tasklets while block-transfer-heavy workloads
     * (Labyrinth's grid copies) saturate the engine much earlier. */
    unsigned mram_engine_setup_cycles = 4;

    /** DMA engine occupancy per 8-byte beat (8 B / 4 cy at 350 MHz is
     * ~700 MB/s streaming, matching measured MRAM bandwidth). */
    unsigned mram_cycles_per_beat = 4;

    /** DMA transfer granularity in bytes (accesses are rounded up). */
    unsigned mram_beat_bytes = 8;

    /** Fixed cost of an MRAM flush fence (docs/durability.md): the
     * issuing tasklet waits for the DMA engine to drain, then pays
     * this base plus one beat per unflushed line pushed to the
     * persist boundary. Only charged in durable mode. */
    unsigned mram_fence_base_cycles = 8;

    /** Extra engine occupancy for *random* (dependent, pointer-chasing)
     * word accesses, which defeat DMA pipelining: the effective random
     * word bandwidth is ~17 M accesses/s, so random-access kernels
     * (Lee expansion) stop scaling around 5 tasklets — the paper's
     * Labyrinth saturation point. */
    unsigned mram_random_extra_cycles = 12;

    /** Maximum bytes one DMA transfer can move (2 KB on UPMEM);
     * larger block accesses issue multiple back-to-back transfers. */
    unsigned mram_max_transfer_bytes = 2048;

    /** Instructions charged for a WRAM word access. */
    unsigned wram_access_instrs = 1;

    /** Instruction overhead of issuing one MRAM DMA (the SDK's
     * mram_read/mram_write: WRAM staging-buffer management, alignment
     * handling, DMA programming). Paid once per transfer — word
     * accesses feel it fully; 2 KB streams amortize it. */
    unsigned mram_access_instrs = 4;

    /** Instructions per single-precision floating-point operation.
     * The DPU has no FPU; floats are software-emulated at tens of
     * cycles per op — a first-order reason a lone DPU is 100-300x
     * slower than a Xeon on KMeans (§4.3.2). */
    unsigned float_op_instrs = 32;

    /** Instructions charged for an acquire/release on the atomic
     * register (operates on a hardware register, not memory). */
    unsigned atomic_op_instrs = 1;

    /** Convert cycles to seconds under this clock. */
    double
    cyclesToSeconds(Cycles c) const
    {
        return static_cast<double>(c) / clock_hz;
    }
};

/** Capacity model of one DPU. */
struct DpuConfig
{
    /** WRAM scratchpad capacity (64 KB on UPMEM). */
    size_t wram_bytes = 64 * 1024;

    /** MRAM bank capacity (64 MB on UPMEM). Simulations that need many
     * DPUs may shrink this to bound host memory; allocation beyond the
     * configured size fails just like on hardware. */
    size_t mram_bytes = 64 * 1024 * 1024;

    /** Hardware thread (tasklet) count. */
    unsigned max_tasklets = 24;

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

/**
 * Host-link cost model for the multi-DPU experiments (§4.3).
 *
 * All inter-DPU communication is CPU-mediated on UPMEM, and the CPU can
 * only touch MRAM while the DPU is idle. The constants reproduce the
 * paper's measured 331 us CPU-mediated inter-DPU 64-bit read, and a
 * batched host<->MRAM copy bandwidth of a few GB/s aggregated across
 * ranks.
 */
struct HostLinkConfig
{
    /** CPU-mediated read of one 64-bit word from another DPU (us). */
    double interdpu_word_read_us = 331.0;

    /** Local MRAM read of a 64-bit word (ns), for the E1 microbench. */
    double local_mram_word_read_ns = 231.0;

    /** Fixed cost of launching a batch of DPUs / syncing (us). */
    double launch_overhead_us = 50.0;

    /** Aggregate host<->MRAM copy bandwidth across all ranks (GB/s). */
    double host_copy_bandwidth_gbps = 8.0;

    /** Fixed per-transfer-batch setup cost (us). */
    double copy_base_us = 10.0;
};

/**
 * First-order cost model of the host CPU baselines (§4.3).
 *
 * The multi-DPU figures compare against CPU implementations whose
 * runtime is, by construction, linear in simple operation counts
 * (points x rounds for KMeans, memory words walked for Labyrinth).
 * Charging those counts against calibrated rates — instead of timing
 * real threads with the wall clock — makes every column of the figures
 * bitwise reproducible across runs, machines and --jobs settings. The
 * rates below were fitted once against measured runs of the real
 * baselines on the reference machine (runKMeansCpu: 0.429 us per
 * point-round at k=15/d=14 with 4 threads, 0.212 us at k=2;
 * runLabyrinthCpu: 0.7/1.2/20 ms for the S/M/L quick instances), and
 * the measured paths remain available behind --measured-cpu.
 */
struct HostCpuConfig
{
    /** Sustained scalar float throughput per host thread (FLOP/s). */
    double flops_per_s = 0.9e9;

    /** Effective touched-words rate per host thread for the pointer-
     * heavy Labyrinth routing (snapshot, Lee expansion, backtrack). */
    double mem_words_per_s = 70.0e6;

    /** Host NOrec cost per transactional read-or-write (ns). */
    double stm_op_ns = 15.0;

    /** Host NOrec per-transaction begin+commit overhead (ns). */
    double stm_tx_ns = 50.0;

    /** Host-side centroid merge throughput (adds/s, single thread —
     * the merge runs on thread 0 between rounds). */
    double merge_adds_per_s = 2.0e9;

    /** Multi-thread scaling efficiency of the CPU baselines (the
     * fraction of linear speedup real threads achieve). */
    double parallel_efficiency = 0.7;
};

/** Energy model used by the Fig. 8 reproduction. */
struct EnergyConfig
{
    /** Full UPMEM system thermal design power (W), as used by the
     * paper's own estimate (Falevoz & Legriel, PECS'23). */
    double pim_system_tdp_w = 370.0;

    /** Total DPUs in the full system the TDP refers to. */
    unsigned pim_system_dpus = 2560;

    /** CPU package power for the baseline machine (W). The paper
     * measured via RAPL on a Xeon Gold 5218 (TDP 125 W); RAPL is not
     * readable here, so package TDP plus a DRAM term is used instead. */
    double cpu_package_w = 125.0;

    /** DRAM subsystem power for the CPU baseline (W). */
    double cpu_dram_w = 30.0;
};

} // namespace pimstm::sim

#endif // PIMSTM_SIM_CONFIG_HH
