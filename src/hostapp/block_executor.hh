/**
 * @file
 * BlockExecutor — the paper's other future-work direction (§5):
 * STM-parallelized blockchain block execution ("a relevant domain,
 * where STM is already being employed, is parallelization of
 * block-chains", citing Block-STM). A block is a list of transactions
 * with a MANDATED serialization order: the committed state must equal
 * executing tx 0..N-1 sequentially.
 *
 * Mapping Block-STM's optimistic ordered execution onto PIM-STM:
 * tasklets pick transactions round-robin and execute each body
 * speculatively inside a PIM-STM transaction; the body's last step
 * reads a shared `turn` word and retries unless it equals the
 * transaction's index, then advances it. Thus commits happen in index
 * order, speculative work overlaps across tasklets, and a speculation
 * invalidated by an earlier commit is re-executed from fresh state by
 * the STM's ordinary validation/abort machinery — no new concurrency
 * control is needed, which is exactly the pitch of building on a TM.
 */

#ifndef PIMSTM_HOSTAPP_BLOCK_EXECUTOR_HH
#define PIMSTM_HOSTAPP_BLOCK_EXECUTOR_HH

#include <functional>
#include <memory>

#include "core/stm.hh"
#include "runtime/shared_array.hh"

namespace pimstm::hostapp
{

/** A transaction body: index-aware, operating through the STM. */
using BlockBody = std::function<void(core::TxHandle &, u32 tx_index)>;

struct BlockExecutorConfig
{
    core::StmKind kind = core::StmKind::NOrec;
    core::MetadataTier tier = core::MetadataTier::Mram;
    unsigned tasklets = 8;
    /** Words of shared block state to allocate. */
    u32 state_words = 256;
    unsigned max_read_set = 128;
    unsigned max_write_set = 64;
    size_t mram_bytes = 4 * 1024 * 1024;
    u64 seed = 1;
};

struct BlockResult
{
    double seconds = 0;
    u64 commits = 0;
    u64 aborts = 0;
    double abort_rate = 0;
};

/** Executes blocks of ordered transactions on one simulated DPU. */
class BlockExecutor
{
  public:
    explicit BlockExecutor(const BlockExecutorConfig &cfg);
    ~BlockExecutor();

    BlockExecutor(const BlockExecutor &) = delete;
    BlockExecutor &operator=(const BlockExecutor &) = delete;

    /** The shared state array transactions operate on. */
    runtime::SharedArray32 &state() { return state_; }
    sim::Dpu &dpu() { return *dpu_; }

    /**
     * Execute @p num_txs transactions of @p body with serialization
     * order 0..num_txs-1. May be called repeatedly; state persists
     * between blocks.
     *
     * @param ordered when false, the turn gate is skipped and
     *        transactions commit in any serializable order — the
     *        baseline for measuring the cost of ordering.
     */
    BlockResult run(u32 num_txs, const BlockBody &body,
                    bool ordered = true);

  private:
    BlockExecutorConfig cfg_;
    std::unique_ptr<sim::Dpu> dpu_;
    std::unique_ptr<core::Stm> stm_;
    runtime::SharedArray32 state_;
    runtime::SharedArray32 turn_;
};

} // namespace pimstm::hostapp

#endif // PIMSTM_HOSTAPP_BLOCK_EXECUTOR_HH
