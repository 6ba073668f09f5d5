/**
 * @file
 * Public API of the PIM-STM library.
 *
 * PIM-STM provides the abstraction of atomic transactions to code
 * running on a (simulated) UPMEM DPU. Seven STM implementations cover
 * the viable corners of the design taxonomy in Fig. 2 of the paper:
 *
 *   NOrec                 global seqlock, invisible reads, CTL, WB
 *   Tiny  ETLWB/ETLWT/CTLWB   ORecs, invisible reads
 *   VR    ETLWB/ETLWT/CTLWB   ORecs as rw-locks, visible reads
 *
 * Transactions are strictly local to one DPU (the paper's key design
 * choice: inter-DPU reads are ~1000x slower and cannot overlap with
 * computation). STM metadata may live in WRAM (fast, 64 KB) or MRAM
 * (slow, 64 MB); the placement is a per-instance configuration knob —
 * the runtime analogue of the paper's compile-time macros.
 *
 * Typical use from a tasklet body:
 * @code
 *   atomically(stm, ctx, [&](TxHandle &tx) {
 *       u32 v = tx.read(addr);
 *       tx.write(addr, v + 1);
 *   });
 * @endcode
 */

#ifndef PIMSTM_CORE_STM_HH
#define PIMSTM_CORE_STM_HH

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "core/trace.hh"
#include "core/tx_descriptor.hh"
#include "sim/dpu.hh"
#include "util/types.hh"

namespace pimstm::core
{

using sim::Addr;
using sim::DpuContext;
using sim::Tier;

/** The seven STM implementations of the PIM-STM library. */
enum class StmKind : u8
{
    NOrec = 0,
    TinyEtlWb,
    TinyEtlWt,
    TinyCtlWb,
    VrEtlWb,
    VrEtlWt,
    VrCtlWb,
    /** Extension: classic TL2 (Dice, Shalev & Shavit) — Tiny's CTL+WB
     * design WITHOUT snapshot extension; included to quantify the
     * benefit the paper credits Tiny's extension mechanism with. */
    Tl2,
    NumKinds,
};

constexpr size_t kNumStmKinds = static_cast<size_t>(StmKind::NumKinds);

/** Short display name ("NOrec", "Tiny ETLWB", ...). */
const char *stmKindName(StmKind kind);

/** The paper's seven kinds, in taxonomy order, for sweep harnesses. */
const std::vector<StmKind> &allStmKinds();

/** The paper's seven kinds plus the TL2 extension. */
const std::vector<StmKind> &allStmKindsExtended();

/** Where STM metadata lives (the paper's WRAM-vs-MRAM study axis). */
enum class MetadataTier : u8
{
    Wram,
    Mram,
};

constexpr Tier
toSimTier(MetadataTier t)
{
    return t == MetadataTier::Wram ? Tier::Wram : Tier::Mram;
}

constexpr const char *
metadataTierName(MetadataTier t)
{
    return t == MetadataTier::Wram ? "WRAM" : "MRAM";
}

/** @{ Fixed STM sizing and polling constants. */
/** Bounds of the ORec lock-table size, in entries. */
constexpr u32 kMinLockTableEntries = 64;
constexpr u32 kMaxLockTableEntries = 64 * 1024;
/** Cycles NOrec stalls per poll while the seqlock is held. */
constexpr Cycles kNorecWaitCycles = 32;
/** Poll interval while waiting for the serial token to free / for
 * in-flight transactions to quiesce. */
constexpr Cycles kSerialWaitCycles = 128;
/** Cycles per poll while parked by the dynamic tasklet throttle
 * (Stm::setTaskletLimit). */
constexpr Cycles kParkPollCycles = 512;
/** Polls of a held abstract lock (StmConfig::cm_wait_cycles apart)
 * before the boosted operation gives up and aborts the transaction —
 * the boosting analogue of cm_wait_polls, always on because waiting
 * is the point of abstract locks. */
constexpr unsigned kBoostWaitPolls = 64;
/** @} */

/** Per-instance STM configuration. */
struct StmConfig
{
    StmKind kind = StmKind::NOrec;
    MetadataTier metadata_tier = MetadataTier::Mram;

    /** Tasklets that will use this instance (sizes the descriptors). */
    unsigned num_tasklets = 1;

    /** Per-tasklet read-set / write-set capacity, in entries. */
    unsigned max_read_set = 256;
    unsigned max_write_set = 64;

    /**
     * Shared-data footprint hint in 32-bit words; the ORec lock table is
     * sized to nextPow2(hint), clamped to [kMinLockTableEntries,
     * kMaxLockTableEntries]. Ignored by NOrec, which has no lock table.
     */
    u32 data_words_hint = 1024;
    /** Non-zero overrides the hint-derived lock-table size (A1). */
    u32 lock_table_entries_override = 0;

    /**
     * When WRAM metadata is requested but the lock table does not fit,
     * spill only the lock table to MRAM (the paper does exactly this
     * for ArrayBench A, appendix A). If false, construction fails.
     */
    bool allow_lock_table_spill = true;

    /** NOrec's wait-until-seqlock-free at start (contention manager).
     * Switchable for the A2 ablation. */
    bool norec_start_wait = true;

    /**
     * Randomized exponential back-off after an abort. On real hardware
     * retry timing is jittered by the pipeline and DMA engine; in the
     * deterministic simulator an explicit jitter is required to break
     * symmetric abort-retry lockstep (most visible with VR upgrades).
     */
    bool abort_backoff = true;
    Cycles abort_backoff_base = 16;
    unsigned abort_backoff_max_shift = 12;

    /**
     * Graceful degradation: after this many consecutive aborts of one
     * atomic block, the transaction escalates to serial-irrevocable
     * mode — it acquires a global token, waits for in-flight
     * transactions to drain, then runs with direct (uninstrumented)
     * accesses and cannot abort, guaranteeing termination under abort
     * storms for every STM kind. 0 (the default) disables escalation
     * and preserves the paper's behaviour exactly. Incompatible with
     * TxHandle::retry() inside the escalated block (direct writes
     * cannot be undone); see docs/robustness.md.
     */
    unsigned serial_fallback_after = 0;

    /** Optional transaction event trace (not owned; may be null). */
    TraceBuffer *trace = nullptr;

    /**
     * Wait-on-contention manager (the taxonomy footnote in §3.2: a
     * plausible but less common design where a transaction waits when
     * it encounters a held lock rather than aborting immediately).
     * When non-zero, ORec-based designs poll a contended lock up to
     * cm_wait_polls times, cm_wait_cycles apart, before giving up and
     * aborting. 0 = the paper's abort-immediately behaviour.
     */
    unsigned cm_wait_polls = 0;
    Cycles cm_wait_cycles = 64;

    /**
     * Transactional boosting (docs/boosting.md): boosted data
     * structures apply operations eagerly under striped abstract locks
     * and log semantic inverse operations instead of routing every
     * word through doRead/doWrite. Off by default; when off, no
     * boosted code path runs and every charge sequence is bitwise
     * identical to a build without the subsystem (CI-gated).
     */
    bool boosting = false;

    /**
     * Durable transactions (docs/durability.md): commits become
     * crash-atomic against injected whole-DPU power loss (fault plan
     * `dpu-crash=OPS`). Write-back kinds seal a redo log with a
     * sequenced commit record and a flush fence before applying in
     * place; write-through kinds undo-log each first write under the
     * write-ahead rule. After a sim::DpuCrashError the host calls
     * Stm::recoverAfterCrash(), which rebuilds a consistent committed
     * state from flushed MRAM alone. Off by default; when off no
     * durable code path runs and every charge sequence is bitwise
     * identical to a build without the subsystem (CI-gated).
     * Incompatible with serial_fallback_after (direct writes bypass
     * the log), boosting (semantic operations have no redo image) and
     * live kind switching (the log format is fixed per kind).
     */
    bool durable = false;

    /**
     * @{ Online-adaptation knobs (docs/adaptive.md). All default-off:
     * with every knob at its default the charge sequence is bitwise
     * identical to a build without the adaptation subsystem (CI-gated).
     */
    /**
     * Capacity, in entries, of the WRAM hot-lock cache used by the
     * hot-metadata migration knob. 0 disables migration and keeps
     * lock-table charging bitwise unchanged. When non-zero and the
     * lock table resolves to MRAM, a WRAM region of capacity × entry
     * bytes is reserved at construction and per-entry access counts
     * feed Stm::lockHeat; the knob is inert when the table already
     * lives in WRAM or the region does not fit.
     */
    u32 hot_lock_capacity = 0;
    /** @} */
};

/** Thrown (internally) to unwind an aborted transaction to its retry
 * loop. User code should not catch it. */
struct TxAbortException
{
    AbortReason reason;
};

/**
 * Process-wide totals of the transactional-set hash-index probe
 * counters (host-side observability, surfaced via --perf-json). Each
 * Stm instance folds its descriptors' counters in at destruction.
 */
struct TxIndexTotals
{
    u64 lookups = 0;
    u64 probes = 0;
    u64 inserts = 0;
    u64 max_probe = 0;
};

/** Snapshot of the accumulated totals (thread-safe). */
TxIndexTotals txIndexTotals();

/** What one Stm::recoverAfterCrash() pass found in the log region. */
struct RecoveryReport
{
    /** Committed (redo) logs re-applied, in commit-sequence order. */
    unsigned redone = 0;
    /** Active (undo) logs rolled back. */
    unsigned undone = 0;
    /** Non-empty slots discarded without replay (a record that never
     * reached its durability fence, so no data write depends on it). */
    unsigned discarded = 0;
    /** Slots holding at least one checksum-failed (torn) record. */
    unsigned torn = 0;
};

class Stm;

/**
 * Handle passed to the body of atomically(): the only sanctioned way to
 * touch shared data inside a transaction.
 */
class TxHandle
{
  public:
    TxHandle(Stm &stm, DpuContext &ctx, TxDescriptor &tx)
        : stm_(stm), ctx_(ctx), tx_(tx)
    {}

    /** Transactional 32-bit read. */
    u32 read(Addr a);

    /** Transactional 32-bit write. */
    void write(Addr a, u32 v);

    /** @{ Float convenience (bit-cast over 32-bit words). */
    float readFloat(Addr a);
    void writeFloat(Addr a, float v);
    /** @} */

    /** Explicitly abort and retry the transaction. */
    [[noreturn]] void retry();

    DpuContext &ctx() { return ctx_; }

    /** @{ Plumbing for the boosted data-structure layer
     * (runtime::AbstractLockManager and friends): boosted operations
     * need the STM (stats, abort entry point, config) and the
     * descriptor (semantic locks + undo log) behind the handle. */
    Stm &stm() { return stm_; }
    TxDescriptor &descriptor() { return tx_; }
    /** @} */

  private:
    Stm &stm_;
    DpuContext &ctx_;
    TxDescriptor &tx_;
};

/**
 * RAII tag: marks the enclosing transaction as operating inside one
 * data structure for the dynamic extent of the scope. Host-only (one
 * byte store each way, no simulated cost); feeds trace events and the
 * per-structure abort heatmap of scripts/trace_report.py.
 */
class StructureScope
{
  public:
    StructureScope(TxDescriptor &tx, StructureId id)
        : tx_(tx), saved_(tx.structure)
    {
        tx_.structure = static_cast<u8>(id);
    }

    ~StructureScope() { tx_.structure = saved_; }

    StructureScope(const StructureScope &) = delete;
    StructureScope &operator=(const StructureScope &) = delete;

  private:
    TxDescriptor &tx_;
    u8 saved_;
};

class StmAlgorithm;
class DurableLog;

/**
 * The transaction engine. One instance per DPU; tasklets of that DPU
 * share it. The engine owns the descriptors, the statistics, the
 * metadata layout and its simulated-memory reservation, tracing, fault
 * delivery, the serial-irrevocable token, the boosting unwind and the
 * adaptation knobs; the algorithm (NOrec, Tiny or VR — algorithm.hh)
 * supplies the do* hooks run inside each wrapper. In durable mode it
 * also holds the durable log (durable_log.hh) and calls its protocol
 * steps from the write-set plumbing.
 *
 * The engine holds one algorithm per candidate kind — exactly one
 * unless live kind switching is requested. With several, metadata is
 * reserved once at the largest footprint across the candidates, and
 * requestKindSwitch moves the whole DPU to another kind at a quiesce
 * point (docs/adaptive.md).
 */
class Stm final
{
  public:
    /**
     * @p cfg.kind selects the initially running kind; @p candidates
     * lists the kinds a live switch may move to (cfg.kind is added in
     * front when absent). Throws FatalError when the metadata placement
     * cannot be satisfied, or when two or more candidates meet the
     * serial-irrevocable fallback or durable mode.
     */
    Stm(sim::Dpu &dpu, const StmConfig &cfg,
        const std::vector<StmKind> &candidates = {});
    ~Stm();

    Stm(const Stm &) = delete;
    Stm &operator=(const Stm &) = delete;

    /** Display name of the running algorithm. */
    const char *name() const { return stmKindName(cfg_.kind); }

    /** The running kind (moves with a live switch). */
    StmKind kind() const { return cfg_.kind; }
    const StmConfig &config() const { return cfg_; }
    MetadataTier metadataTier() const { return cfg_.metadata_tier; }

    /** Candidate kinds in construction order, the initial kind first. */
    const std::vector<StmKind> &candidates() const { return kinds_; }

    /** The running algorithm (tests and diagnostics). */
    StmAlgorithm &algorithm() { return *algo_; }

    /** Descriptor of @p tasklet (also reachable via ctx.taskletId()). */
    TxDescriptor &descriptor(unsigned tasklet);

    /** @{ Transaction demarcation; normally used via atomically(). */
    void txStart(DpuContext &ctx, TxDescriptor &tx);
    u32 txRead(DpuContext &ctx, TxDescriptor &tx, Addr a);
    void txWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v);
    void txCommit(DpuContext &ctx, TxDescriptor &tx);
    /**
     * Abort the transaction. @p conflict_lock names the lock-table
     * index the conflict was detected on (kNoLockIndex when there is
     * no single-lock attribution — NOrec value validation, injected
     * aborts, user retry()); @p conflict_addr the conflicting data
     * address when known. Both feed the trace layer's abort
     * attribution and cost nothing when tracing is off.
     */
    [[noreturn]] void txAbort(DpuContext &ctx, TxDescriptor &tx,
                              AbortReason reason,
                              u32 conflict_lock = kNoLockIndex,
                              Addr conflict_addr = 0);
    /** @} */

    /** Aggregate statistics across all tasklets of this DPU. */
    const StmStats &stats() const { return stats_; }
    StmStats &stats() { return stats_; }

    /**
     * Request a live switch to candidate @p k. Returns false (no-op)
     * when @p k is not a candidate or already running. The next
     * txStart parks until the in-flight transactions drain; the first
     * tasklet to observe the drain performs the switch — a host-side
     * flip plus a streamed translation charge of both lock tables.
     */
    bool requestKindSwitch(StmKind k);

    /**
     * @{ Online reconfiguration hooks (docs/adaptive.md). Host-side
     * mutations of config knobs the hot paths already consult, applied
     * by the epoch controller between scheduling points.
     */
    /** Replace the post-abort backoff parameters. base = 0 disables
     * backoff entirely (no RNG draw per abort). */
    void setBackoffParams(Cycles base, unsigned max_shift);
    /** Replace the wait-on-contention poll budget (0 = abort at once). */
    void setCmWaitPolls(unsigned polls) { cfg_.cm_wait_polls = polls; }
    /**
     * Dynamic tasklet throttle: tasklets with id >= @p limit park at
     * their next txStart (polling every kParkPollCycles) until the
     * limit is raised. 0 = off. Parking happens at a scheduler-safe
     * point — never inside a transaction, and before a pending kind
     * switch's quiesce — so no ownership records are held while parked.
     */
    void setTaskletLimit(unsigned limit) { tasklet_limit_ = limit; }
    /** @} */

    /**
     * @{ Hot-lock migration between MRAM and WRAM (docs/adaptive.md).
     * Each candidate's lock table keeps its own heat vector (per-entry
     * access counts, host-side, allocated only when the WRAM hot cache
     * is reserved — empty means off) and promotion state. lockHeat sums
     * the heat over the candidates; migrateLocks records the
     * promotion/demotion intents in every candidate at an epoch
     * boundary, and each entry transfer is charged lazily through the
     * simulated cost model on the first subsequent access by the kind
     * that owns it, keeping the decision itself free and deterministic.
     * Capacity enforcement is the caller's job.
     */
    const std::vector<u32> &lockHeat() const;
    u32 hotLockCapacity() const { return hot_capacity_; }
    void migrateLocks(const std::vector<u32> &promote,
                      const std::vector<u32> &demote);
    /** @} */

    /** Effective tier of the ORec lock table (may have spilled). */
    Tier lockTableTier() const { return lock_table_tier_; }

    /** Entries in the ORec lock table (0 when no candidate has one). */
    u32 lockTableEntries() const { return lock_table_entries_; }

    /**
     * Ownership records (seqlock / ORecs / rw-lock words) currently
     * held by any transaction — 0 when quiescent, which the
     * crash-injection tests assert after a mid-transaction crash.
     */
    unsigned heldOwnershipCount() const;

    /**
     * @{ Durable-transaction surface (docs/durability.md). After an
     * injected whole-DPU crash (sim::DpuCrashError) the host calls
     * recoverAfterCrash before re-running the program: committed redo
     * logs are re-applied in commit order, active undo logs are rolled
     * back, torn records are discarded, every slot is truncated and
     * all volatile STM bookkeeping (ownership records, descriptors,
     * serial token) is reset. Access is raw and untimed — recovery
     * models the host reloading the DPU, not DPU cycles. Idempotent:
     * a second pass finds only empty slots.
     */
    bool durable() const { return cfg_.durable; }
    RecoveryReport recoverAfterCrash();
    /** @} */

  private:
    friend class StmAlgorithm;

    /** @{ Metadata cost charging at the configured placement. */
    void metaRead(DpuContext &ctx, size_t bytes);
    void metaWrite(DpuContext &ctx, size_t bytes);
    /** @} */

    /** Charge the cost of scanning @p entries set entries of
     * @p entry_bytes each (streamed, not per-entry). */
    void scanCost(DpuContext &ctx, size_t entries, size_t entry_bytes);

    /**
     * @{ Write-set plumbing shared by the algorithms, and the only code
     * that meets the durable log: each calls its DurableLog step
     * (durable_log.hh) when log_ exists. @p entry_bytes is the calling
     * algorithm's write-entry size (set scans, entry writes).
     *
     * recordWrite buffers a write in the write set, or for write-through
     * (@p in_place) also applies it after saving the old value.
     * writeBackCommit applies a write-back commit once validation has
     * succeeded and every ownership record is held. writeThroughCommit
     * runs before ownership is released. writeThroughUndo restores the
     * old values newest first, also with the ownership records held.
     */
    void recordWrite(DpuContext &ctx, TxDescriptor &tx, Addr a, u32 v,
                     u32 lock_index, size_t entry_bytes, bool in_place);
    void writeBackCommit(DpuContext &ctx, TxDescriptor &tx,
                         size_t entry_bytes);
    void writeThroughCommit(DpuContext &ctx, TxDescriptor &tx);
    void writeThroughUndo(DpuContext &ctx, TxDescriptor &tx);
    /** @} */

    /** Reserve simulated memory for descriptors, the durable log, the
     * lock table and the hot-lock cache at the largest footprint across
     * the candidates; resolves lock-table spill. */
    void reserveMetadata();

    /** Lock-table size implied by the config (hint, override, clamps). */
    u32 computedLockTableEntries() const;

    /** Perform the pending kind switch on a drained DPU. */
    void switchKind(DpuContext &ctx);

    /** Atomic-register key of the serial-irrevocable global token. */
    static constexpr u32 kSerialTokenKey = 0x5e71a1bcu;

    /** Fault hook shared by the tx wrappers: counts one STM operation
     * and delivers an injected crash or spurious abort (both throw). */
    void maybeInjectFault(DpuContext &ctx, TxDescriptor &tx,
                          bool can_abort, bool in_tx);

    /**
     * @{ Transactional-boosting unwind hooks (no-ops when the
     * transaction holds no semantic state). On abort the undo log is
     * replayed LIFO *after* word-level rollback (doAbortCleanup) and
     * *before* the abstract locks are handed back, so every inverse
     * operation still runs under the exclusivity it was logged under.
     */
    void replaySemanticUndo(DpuContext &ctx, TxDescriptor &tx);
    void releaseSemanticLocks(DpuContext &ctx, TxDescriptor &tx);
    /** @} */

    /** Terminate the calling tasklet with an injected crash, releasing
     * all transaction-held metadata first. */
    [[noreturn]] void crashOut(DpuContext &ctx, TxDescriptor &tx,
                               bool in_tx);

    /** @{ Serial-irrevocable escalation protocol (docs/robustness.md). */
    void acquireSerialToken(DpuContext &ctx, TxDescriptor &tx);
    void releaseSerialToken(DpuContext &ctx, TxDescriptor &tx);
    /** @} */

    /** Watchdog diagnostic callback body (registered with the DPU). */
    void dumpDiagnostics(std::ostream &os) const;

    sim::Dpu &dpu_;
    StmConfig cfg_;
    StmStats stats_;
    std::vector<TxDescriptor> descriptors_;

    /** @{ One algorithm per candidate kind (kinds_[i] runs algos_[i]);
     * algo_ is the running one. */
    std::vector<StmKind> kinds_;
    std::vector<std::unique_ptr<StmAlgorithm>> algos_;
    StmAlgorithm *algo_ = nullptr;
    /** Candidate index of a requested switch, -1 when none. */
    int pending_ = -1;
    /** Scratch for lockHeat's sum over candidates (logically const). */
    mutable std::vector<u32> heat_sum_;
    /** @} */

    Tier lock_table_tier_ = Tier::Mram;
    u32 lock_table_entries_ = 0;

    /** Dynamic tasklet throttle (0 = off; see setTaskletLimit). */
    unsigned tasklet_limit_ = 0;

    /** Resolved WRAM hot-cache capacity in entries (0 = off). */
    u32 hot_capacity_ = 0;

    /** Tasklet id currently holding the serial token, -1 when free. */
    int serial_owner_ = -1;

    /** Transactions between txStart and commit/abort — the quiesce
     * count the serial token and a kind switch drain to zero. */
    unsigned active_txs_ = 0;

    /** The durable redo/undo log; null unless StmConfig::durable. */
    std::unique_ptr<DurableLog> log_;
};

/**
 * Run @p body as a transaction, retrying on abort until it commits.
 * This is the intended user entry point.
 */
template <typename Body>
void
atomically(Stm &stm, DpuContext &ctx, Body &&body)
{
    TxDescriptor &tx = stm.descriptor(ctx.taskletId());
    for (;;) {
        stm.txStart(ctx, tx);
        try {
            TxHandle h(stm, ctx, tx);
            body(h);
            stm.txCommit(ctx, tx);
            return;
        } catch (const TxAbortException &) {
            // Cleanup already done by txAbort(); just retry.
        }
    }
}

} // namespace pimstm::core

#endif // PIMSTM_CORE_STM_HH
