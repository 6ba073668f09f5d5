/**
 * @file
 * Durable-transaction microbenchmark (docs/durability.md).
 *
 *  - durability cost: every STM kind runs a bank-transfer workload
 *    with --durable off and on; reports the throughput ratio and the
 *    per-commit persist cost (flush fences, log bytes).
 *  - crash matrix: every STM kind under seeded whole-DPU crash plans
 *    (`dpu-crash=`) with durable mode on — each run must recover,
 *    restart, complete, and keep the transfer sum invariant; the table
 *    shows what recovery found (redone / undone / discarded / torn).
 *  - --check: the config exclusions (serial fallback, boosting) must
 *    be refused loudly.
 *
 * With --perf-json=F the cost and crash-matrix points land in the
 * artifact together with the aggregate `durable` block; CI diffs it
 * against bench/baselines/BENCH_sim.durable.json via
 * scripts/check_perf_json.py.
 */

#include "bench/common.hh"
#include "core/stm.hh"
#include "runtime/shared_array.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

/** Parameters for TransferWorkload. */
struct TransferParams
{
    u32 accounts = 256;
    u32 initial = 100; ///< starting balance per account
    u32 txs = 30;      ///< transactions per tasklet
    u32 hops = 2;      ///< transfers per transaction

    static TransferParams
    sized(bool full)
    {
        TransferParams p;
        p.txs = full ? 150 : 30;
        return p;
    }
};

/**
 * Bank transfers: each transaction moves one unit between @p hops
 * random account pairs. The invariant — the total balance never
 * changes — holds across aborts, whole-DPU crashes, recoveries and
 * restarts, which makes it the right oracle for crash-stitched
 * histories: re-executed transfers after a restart are new committed
 * transactions, not double-applied old ones.
 */
class TransferWorkload : public runtime::Workload
{
  public:
    explicit TransferWorkload(const TransferParams &params)
        : params_(params)
    {}

    const char *name() const override { return "Transfer"; }

    void
    configure(core::StmConfig &cfg) const override
    {
        cfg.max_read_set = 2 * params_.hops + 8;
        cfg.max_write_set = 2 * params_.hops + 8;
        cfg.data_words_hint = params_.accounts;
    }

    void
    setup(sim::Dpu &dpu, core::Stm &) override
    {
        accounts_ = runtime::SharedArray32(dpu, sim::Tier::Mram,
                                           params_.accounts);
        accounts_.fill(dpu, params_.initial);
    }

    void
    tasklet(sim::DpuContext &ctx, core::Stm &stm) override
    {
        for (u32 t = 0; t < params_.txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                for (u32 h = 0; h < params_.hops; ++h) {
                    const u32 src = static_cast<u32>(
                        ctx.rng().below(params_.accounts));
                    const u32 dst = static_cast<u32>(
                        ctx.rng().below(params_.accounts));
                    const u32 s = tx.read(accounts_.at(src));
                    const u32 d = tx.read(accounts_.at(dst));
                    if (src == dst || s == 0)
                        continue;
                    tx.write(accounts_.at(src), s - 1);
                    tx.write(accounts_.at(dst), d + 1);
                }
            });
        }
    }

    void
    verify(sim::Dpu &dpu, core::Stm &) override
    {
        u64 sum = 0;
        for (u32 i = 0; i < params_.accounts; ++i)
            sum += accounts_.peek(dpu, i);
        const u64 expected = static_cast<u64>(params_.accounts) *
                             static_cast<u64>(params_.initial);
        fatalIf(sum != expected,
                "transfer sum invariant broken: total balance ", sum,
                " != ", expected);
    }

  private:
    TransferParams params_;
    runtime::SharedArray32 accounts_;
};

/** Fault-free transfer run per kind, durable off vs on: what the
 * persist protocol costs when nothing ever crashes. */
void
durabilityCost(const BenchOptions &opt)
{
    const TransferParams params = TransferParams::sized(opt.full);
    const unsigned tasklets = 11;

    Table table({"stm", "commits", "tput_ratio", "fences_per_commit",
                 "log_bytes_per_commit", "extra_cycles_pct"});
    for (core::StmKind kind : core::allStmKinds()) {
        runtime::RunSpec spec = opt.run;
        spec.kind = kind;
        spec.tasklets = tasklets;
        spec.mram_bytes = 8 * 1024 * 1024;
        spec.stm.durable = false;

        TransferWorkload off_wl(params);
        runtime::RunResult off;
        const double off_wall = timedRun(off_wl, spec, off);
        recordRun(std::string(core::stmKindName(kind)) + "/cost/off",
                  off_wall, off);

        spec.stm.durable = true;
        TransferWorkload on_wl(params);
        runtime::RunResult on;
        const double on_wall = timedRun(on_wl, spec, on);
        recordRun(std::string(core::stmKindName(kind)) + "/cost/on",
                  on_wall, on);

        fatalIf(on.stm.commits == 0 || on.stm.flush_fences == 0,
                "durable run under ", core::stmKindName(kind),
                " issued no persist fences");
        const double commits = static_cast<double>(on.stm.commits);
        table.newRow()
            .cell(core::stmKindName(kind))
            .cell(on.stm.commits)
            .cell(off.throughput > 0 ? on.throughput / off.throughput : 0,
                  3)
            .cell(static_cast<double>(on.stm.flush_fences) / commits, 2)
            .cell(static_cast<double>(on.stm.log_bytes) / commits, 1)
            .cell(off.dpu.total_cycles > 0
                      ? 100.0 *
                            (static_cast<double>(on.dpu.total_cycles) -
                             static_cast<double>(off.dpu.total_cycles)) /
                            static_cast<double>(off.dpu.total_cycles)
                      : 0,
                  1);
    }
    std::cout << "== micro_durable  durability cost (transfer workload, "
              << tasklets << " tasklets, no faults) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

/** Whole-DPU crash plans x every STM kind: recover, restart, finish,
 * and keep the transfer sum invariant (verified inside runWorkload). */
void
crashMatrix(const BenchOptions &opt)
{
    const TransferParams params = TransferParams::sized(opt.full);
    const struct
    {
        const char *label;
        const char *plan;
    } plans[] = {
        {"early", "dpu-crash=150"},
        {"late", "dpu-crash=900"},
        {"double", "dpu-crash=300;dpu-crash=1100;seed=7"},
    };

    Table table({"stm", "plan", "crashes", "restart_commits", "redone",
                 "undone", "discarded", "torn"});
    for (core::StmKind kind : core::allStmKinds()) {
        for (const auto &p : plans) {
            runtime::RunSpec spec = opt.run;
            spec.kind = kind;
            spec.tasklets = 8;
            spec.mram_bytes = 8 * 1024 * 1024;
            spec.stm.durable = true;
            spec.faults = sim::FaultPlan::parse(p.plan);
            spec.watchdog_cycles = 500'000'000; // safety net only
            // A crash-restart run floods the default ring with
            // scheduler switches; size it to hold the whole run so
            // the "recovery" instants survive for the timeline.
            if (spec.trace) {
                spec.trace_buffer_capacity = std::max<size_t>(
                    spec.trace_buffer_capacity, size_t{1} << 17);
            }

            TransferWorkload wl(params);
            runtime::RunResult r;
            const double wall = timedRun(wl, spec, r);
            recordRun(std::string(core::stmKindName(kind)) + "/crash/" +
                          p.label,
                      wall, r);
            if (r.trace && TraceFileWriter::instance().enabled()) {
                // Feeds the recovery timeline of trace_report.py:
                // each crash shows up as a "recovery" instant with
                // the durable commits banked before it.
                TraceFileWriter::instance().add(
                    *r.trace, std::string(core::stmKindName(kind)) +
                                  "/crash/" + p.label);
            }

            fatalIf(r.dpu.dpu_crashes == 0,
                    "crash plan '", p.plan, "' under ",
                    core::stmKindName(kind), " never fired");
            fatalIf(r.stm.recoveries != r.dpu.dpu_crashes,
                    "every crash must be followed by exactly one "
                    "recovery (", r.stm.recoveries, " recoveries for ",
                    r.dpu.dpu_crashes, " crashes)");
            table.newRow()
                .cell(core::stmKindName(kind))
                .cell(p.label)
                .cell(r.dpu.dpu_crashes)
                .cell(r.stm.commits)
                .cell(r.stm.log_redone)
                .cell(r.stm.log_undone)
                .cell(r.stm.log_discarded)
                .cell(r.stm.torn_logs);
        }
    }
    std::cout << "== micro_durable  whole-DPU crash matrix (durable on; "
                 "sum invariant verified after recovery + restart) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

/** The --check gate: a durable configuration that cannot keep its
 * crash guarantees (serial fallback, boosting) must be refused at
 * construction, not degraded. */
int
checkRefusals()
{
    for (const char *what : {"serial-fallback", "boosting"}) {
        runtime::RunSpec bad;
        bad.kind = core::StmKind::NOrec;
        bad.tasklets = 11;
        bad.mram_bytes = 8 * 1024 * 1024;
        bad.stm.durable = true;
        if (std::string(what) == "serial-fallback")
            bad.stm.serial_fallback_after = 4;
        else
            bad.stm.boosting = true;
        bool refused = false;
        try {
            ArrayBench wl(ArrayBenchParams::workloadA(2));
            (void)runtime::runWorkload(wl, bad);
        } catch (const FatalError &) {
            refused = true;
        }
        fatalIf(!refused, "durable + ", what,
                " was accepted; the exclusion matrix requires a "
                "loud refusal (docs/durability.md)");
    }
    std::cout << "== micro_durable --check  durable + serial fallback "
                 "and durable + boosting refused ==\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false;
    const auto opt =
        BenchOptions::parse(argc, argv, [&](const std::string &a) {
            if (a == "--check")
                return check = true;
            return false;
        });

    return guardedMain([&] {
        if (check)
            return checkRefusals();
        durabilityCost(opt);
        crashMatrix(opt);
        return 0;
    });
}
