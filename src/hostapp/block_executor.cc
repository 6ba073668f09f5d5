#include "hostapp/block_executor.hh"

#include "runtime/driver.hh"
#include "util/logging.hh"

namespace pimstm::hostapp
{

BlockExecutor::BlockExecutor(const BlockExecutorConfig &cfg)
    : cfg_(cfg)
{
    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = cfg.mram_bytes;
    dpu_cfg.seed = cfg.seed;
    dpu_ = std::make_unique<sim::Dpu>(dpu_cfg);

    core::StmConfig stm_cfg;
    stm_cfg.kind = cfg.kind;
    stm_cfg.metadata_tier = cfg.tier;
    stm_cfg.num_tasklets = cfg.tasklets;
    stm_cfg.max_read_set = cfg.max_read_set;
    stm_cfg.max_write_set = cfg.max_write_set;
    stm_cfg.data_words_hint = cfg.state_words + 1;
    stm_ = std::make_unique<core::Stm>(*dpu_, stm_cfg);

    state_ = runtime::SharedArray32(*dpu_, sim::Tier::Mram,
                                    cfg.state_words);
    state_.fill(*dpu_, 0);
    turn_ = runtime::SharedArray32(*dpu_, sim::Tier::Mram, 1);
    turn_.poke(*dpu_, 0, 0);
}

BlockExecutor::~BlockExecutor() = default;

BlockResult
BlockExecutor::run(u32 num_txs, const BlockBody &body, bool ordered)
{
    turn_.poke(*dpu_, 0, 0);
    const u64 commits_before = stm_->stats().commits;
    const u64 aborts_before = stm_->stats().aborts;

    Cycles cycles = 0;
    runtime::launch(
        *dpu_, *stm_, cfg_.tasklets, num_txs,
        [&](sim::DpuContext &ctx, size_t item) {
            const u32 i = static_cast<u32>(item);
            core::atomically(*stm_, ctx, [&](core::TxHandle &tx) {
                // Speculative execution of the body...
                body(tx, i);
                if (!ordered)
                    return;
                // ...then the turn gate: commit only when every
                // lower-index transaction has committed. A retry here
                // re-runs the body against fresh state.
                if (tx.read(turn_.at(0)) != i)
                    tx.retry();
                tx.write(turn_.at(0), i + 1);
            });
        },
        [&](const sim::Dpu &dpu) { cycles += dpu.stats().total_cycles; });

    if (ordered) {
        panicIf(turn_.peek(*dpu_, 0) != num_txs,
                "block executor turn gate ended out of step");
    }

    BlockResult r;
    r.seconds = sim::cyclesToSeconds(cycles);
    r.commits = stm_->stats().commits - commits_before;
    r.aborts = stm_->stats().aborts - aborts_before;
    const u64 total = r.commits + r.aborts;
    r.abort_rate =
        total ? static_cast<double>(r.aborts) / static_cast<double>(total)
              : 0.0;
    return r;
}

} // namespace pimstm::hostapp
