/**
 * @file
 * STM-level statistics: commits, aborts by reason, operation counts.
 * Together with the simulator's per-phase cycle accounting these
 * regenerate the paper's throughput / abort-rate / time-breakdown plots.
 */

#ifndef PIMSTM_CORE_STATS_HH
#define PIMSTM_CORE_STATS_HH

#include <array>
#include <string_view>

#include "util/types.hh"

namespace pimstm::core
{

/** Why a transaction aborted. */
enum class AbortReason : u8
{
    ReadConflict = 0,  ///< read found a location locked by another tx
    WriteConflict,     ///< write-lock acquisition failed
    UpgradeConflict,   ///< rw-lock read->write upgrade failed (VR)
    ValidationFail,    ///< readset validation / extension failed
    CommitConflict,    ///< commit-time lock acquisition failed (CTL)
    UserAbort,         ///< explicit TxHandle::retry()
    BoostTimeout,      ///< abstract-lock wait exhausted (boosting)
    NumReasons,
};

constexpr size_t kNumAbortReasons =
    static_cast<size_t>(AbortReason::NumReasons);

constexpr std::string_view
abortReasonName(AbortReason r)
{
    switch (r) {
      case AbortReason::ReadConflict: return "read-conflict";
      case AbortReason::WriteConflict: return "write-conflict";
      case AbortReason::UpgradeConflict: return "upgrade-conflict";
      case AbortReason::ValidationFail: return "validation-fail";
      case AbortReason::CommitConflict: return "commit-conflict";
      case AbortReason::UserAbort: return "user-abort";
      case AbortReason::BoostTimeout: return "boost-timeout";
      default: return "?";
    }
}

/** Aggregate STM statistics for one DPU. */
struct StmStats
{
    u64 starts = 0;
    u64 commits = 0;
    u64 aborts = 0;
    std::array<u64, kNumAbortReasons> abort_reasons{};

    u64 reads = 0;
    u64 writes = 0;
    /** Full readset validations performed. */
    u64 validations = 0;
    /** Snapshot extensions (Tiny). */
    u64 extensions = 0;
    /** Read-only commits (no commit-time synchronization needed). */
    u64 read_only_commits = 0;

    /**
     * @{ Robustness counters (zero unless fault injection or the
     * serial-irrevocable fallback is enabled).
     */
    /** Transactions escalated to serial-irrevocable mode. */
    u64 escalations = 0;
    /** Commits completed in serial-irrevocable mode. */
    u64 serial_commits = 0;
    /** Spurious validation-failure aborts injected by a FaultPlan
     * (also counted under aborts / abort_reasons[ValidationFail]). */
    u64 injected_aborts = 0;
    /** Injected tasklet crashes delivered at an STM operation. */
    u64 crashes = 0;
    /** @} */

    /**
     * @{ Transactional-boosting counters (zero unless
     * StmConfig::boosting is on; docs/boosting.md).
     */
    /** Abstract locks acquired (shared + exclusive + upgrades). */
    u64 boosted_acquires = 0;
    /** Poll rounds spent waiting on a held abstract lock. */
    u64 boosted_waits = 0;
    /** Semantic inverse operations replayed on abort. */
    u64 semantic_undos = 0;
    /** Abstract-lock waits that ended in acquisition — each one is a
     * physical conflict a word-based STM would have aborted on but the
     * abstract level could wait out. */
    u64 false_conflicts_avoided = 0;
    /** @} */

    /**
     * @{ Durable-transaction counters (zero unless StmConfig::durable;
     * docs/durability.md). Host-side tallies of log traffic the
     * simulator charges through the ordinary cost model.
     */
    /** Bytes appended to the MRAM redo/undo log. */
    u64 log_bytes = 0;
    /** Log append operations (one per commit for WB kinds, one per
     * first-write-of-an-address for WT kinds). */
    u64 log_appends = 0;
    /** MRAM flush fences issued by the commit protocol. */
    u64 flush_fences = 0;
    /** Transactions whose commit record reached the persist boundary. */
    u64 durable_commits = 0;
    /** Post-crash recovery passes run on this instance. */
    u64 recoveries = 0;
    /** Committed logs re-applied during recovery. */
    u64 log_redone = 0;
    /** Active (undo) logs rolled back during recovery. */
    u64 log_undone = 0;
    /** Logs discarded during recovery (empty or failed checksums). */
    u64 log_discarded = 0;
    /** Logs whose records were observed torn at recovery (checksum
     * mismatch on a non-empty slot). */
    u64 torn_logs = 0;
    /** @} */

    /**
     * @{ Contention-signal counters consumed by the epoch adaptation
     * controller (docs/adaptive.md). Host-side tallies of costs the
     * simulator already charges elsewhere — maintaining them never
     * changes the charge sequence, so they are free to sample.
     */
    /** Poll rounds spent waiting on a held ORec / seqlock (the
     * wait-on-contention manager and NOrec's start wait). */
    u64 lock_waits = 0;
    /** Simulated cycles spent in those waits. */
    u64 lock_wait_cycles = 0;
    /** Simulated cycles spent in post-abort randomized backoff. */
    u64 backoff_cycles = 0;
    /** txStart polls spent parked by the dynamic tasklet throttle. */
    u64 park_polls = 0;
    /** Live STM-kind switches performed (Stm::requestKindSwitch). */
    u64 kind_switches = 0;
    /** Lock-table entries migrated between tiers (settled
     * promotions + demotions, each charged through the transfer
     * cost model on first access). */
    u64 lock_migrations = 0;
    /** @} */

    /**
     * Abort rate as the paper plots it: aborted executions over all
     * transaction executions (commits + aborts).
     */
    double
    abortRate() const
    {
        const u64 total = commits + aborts;
        return total == 0 ? 0.0
                          : static_cast<double>(aborts) /
                                static_cast<double>(total);
    }
};

} // namespace pimstm::core

#endif // PIMSTM_CORE_STATS_HH
