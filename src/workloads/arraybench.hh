/**
 * @file
 * ArrayBench — the paper's synthetic array benchmark (§4.1).
 *
 * Transactions manipulate an array of N 32-bit words split into two
 * regions. Workload A (N = 12500): phase 1 reads 100 random entries
 * from region Y (2500 words), phase 2 read-modify-writes 20 random
 * entries in region K (10000 words) — many reads, low contention.
 * Workload B (K = 10, phase 2 only, 4 entries) — tiny, highly
 * contended transactions.
 *
 * Invariant checked after the run: every committed transaction adds
 * exactly `rmw_ops` to the array sum, so
 *     sum(array) == commits * rmw_ops.
 */

#ifndef PIMSTM_WORKLOADS_ARRAYBENCH_HH
#define PIMSTM_WORKLOADS_ARRAYBENCH_HH

#include "runtime/driver.hh"
#include "runtime/shared_array.hh"

namespace pimstm::workloads
{

/** Parameters shaping an ArrayBench workload. */
struct ArrayBenchParams
{
    /** Words in the read-only-phase region (0 disables phase 1). */
    u32 region_y = 2500;
    /** Words in the read-modify-write region. */
    u32 region_k = 10000;
    /** Random reads in phase 1. */
    u32 read_ops = 100;
    /** Random read-modify-writes in phase 2. */
    u32 rmw_ops = 20;
    /** Transactions per tasklet. */
    u32 tx_per_tasklet = 50;

    /** Workload A of the paper. */
    static ArrayBenchParams
    workloadA(u32 tx_per_tasklet = 50)
    {
        return {2500, 10000, 100, 20, tx_per_tasklet};
    }

    /** Workload B of the paper. */
    static ArrayBenchParams
    workloadB(u32 tx_per_tasklet = 200)
    {
        return {0, 10, 0, 4, tx_per_tasklet};
    }

    u32 totalWords() const { return region_y + region_k; }
};

class ArrayBench : public runtime::Workload
{
  public:
    explicit ArrayBench(const ArrayBenchParams &params)
        : params_(params)
    {}

    const char *
    name() const override
    {
        return params_.region_y > 0 ? "ArrayBench A" : "ArrayBench B";
    }

    void
    configure(core::StmConfig &cfg) const override
    {
        cfg.max_read_set = params_.read_ops + params_.rmw_ops + 8;
        cfg.max_write_set = params_.rmw_ops + 8;
        cfg.data_words_hint = params_.totalWords();
    }

    void
    setup(sim::Dpu &dpu, core::Stm &) override
    {
        array_ = runtime::SharedArray32(dpu, sim::Tier::Mram,
                                        params_.totalWords());
        array_.fill(dpu, 0);
    }

    void
    tasklet(sim::DpuContext &ctx, core::Stm &stm) override
    {
        for (u32 t = 0; t < params_.tx_per_tasklet; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                // Phase 1: plain reads in the uncontended region Y.
                for (u32 i = 0; i < params_.read_ops; ++i) {
                    const u32 idx =
                        static_cast<u32>(ctx.rng().below(params_.region_y));
                    tx.read(array_.at(idx));
                }
                // Phase 2: read-modify-writes in region K.
                for (u32 i = 0; i < params_.rmw_ops; ++i) {
                    const u32 idx =
                        params_.region_y +
                        static_cast<u32>(ctx.rng().below(params_.region_k));
                    const u32 v = tx.read(array_.at(idx));
                    tx.write(array_.at(idx), v + 1);
                }
            });
        }
    }

    void
    verify(sim::Dpu &dpu, core::Stm &stm) override
    {
        u64 sum = 0;
        for (u32 i = 0; i < params_.totalWords(); ++i)
            sum += array_.peek(dpu, i);
        const u64 expected = stm.stats().commits *
            static_cast<u64>(params_.rmw_ops);
        fatalIf(sum != expected, "ArrayBench invariant broken: sum ", sum,
                " != commits*rmw ", expected);
    }

    u64
    appOps() const override
    {
        return 0; // one app op == one transaction; throughput covers it
    }

  private:
    ArrayBenchParams params_;
    runtime::SharedArray32 array_;
};

} // namespace pimstm::workloads

#endif // PIMSTM_WORKLOADS_ARRAYBENCH_HH
