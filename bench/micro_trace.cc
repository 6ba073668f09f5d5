/**
 * @file
 * Observability microbenchmark: the cost and the fidelity of the trace
 * layer (docs/observability.md).
 *
 *  - off-mode overhead: runs the Fig. 4 ArrayBench point with tracing
 *    compiled in but disabled, twice, and reports the wall-clock
 *    spread. The disabled path is one null compare per instrumented
 *    site, so the gate (CI compares this binary against the
 *    pre-observability one) expects well under 1% — the table here
 *    reports the run-to-run noise floor that gate must beat.
 *  - on-mode cost: the same point traced vs untraced. The simulated
 *    statistics must be bitwise identical (tracing is host-only); the
 *    table reports the host wall-clock price of recording, plus what
 *    was recorded (events, ring drops).
 *  - per-kind fidelity: for every STM kind, a contended run with
 *    tracing on; the trace aggregates must agree with StmStats (aborts
 *    by reason, commit counts), demonstrating the heatmap and the
 *    histograms measure the same run the stats do.
 *
 * With --perf-json=F every run is a point, and the artifact's `trace`
 * block sums the traced ones.
 */

#include "bench/common.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

/** Simulated fields that must not change when tracing is on. */
void
expectSameSimulation(const runtime::RunResult &a,
                     const runtime::RunResult &b)
{
    fatalIf(a.dpu.total_cycles != b.dpu.total_cycles ||
                a.dpu.instructions != b.dpu.instructions ||
                a.dpu.mram_reads != b.dpu.mram_reads ||
                a.dpu.mram_writes != b.dpu.mram_writes ||
                a.dpu.atomic_acquires != b.dpu.atomic_acquires ||
                a.dpu.atomic_stall_cycles != b.dpu.atomic_stall_cycles ||
                a.dpu.phase_cycles != b.dpu.phase_cycles ||
                a.stm.starts != b.stm.starts ||
                a.stm.commits != b.stm.commits ||
                a.stm.aborts != b.stm.aborts ||
                a.stm.abort_reasons != b.stm.abort_reasons ||
                a.stm.reads != b.stm.reads ||
                a.stm.writes != b.stm.writes,
            "tracing changed the simulation");
}

/** Trace aggregates must describe the same run StmStats does. */
void
expectTraceMatchesStats(const runtime::RunResult &r)
{
    fatalIf(!r.trace, "traced run returned no TraceBuffer");
    const core::TraceBuffer &t = *r.trace;
    fatalIf(t.count(core::TxEvent::Start) != r.stm.starts ||
                t.count(core::TxEvent::Commit) != r.stm.commits ||
                t.count(core::TxEvent::Abort) != r.stm.aborts,
            "trace event counts diverge from StmStats");
    fatalIf(t.abortsByReason() != r.stm.abort_reasons,
            "trace abort attribution diverges from StmStats");
    fatalIf(t.txLatency().count != r.stm.commits,
            "tx-latency histogram count diverges from commits");
}

/** Off-mode noise floor and on-mode recording cost on the Fig. 4
 * fast path. */
void
traceOverhead(const BenchOptions &opt)
{
    const u32 tx = opt.full ? 30 : 8;
    runtime::RunSpec off;
    off.kind = core::StmKind::NOrec;
    off.tasklets = 11;
    off.mram_bytes = 8 * 1024 * 1024;

    runtime::RunSpec on = off;
    on.trace = true;
    on.trace_buffer_capacity = 4096;

    const int reps = opt.full ? 5 : 3;
    double best_off = 1e300, best_off2 = 1e300, best_on = 1e300;
    runtime::RunResult r_off, r_off2, r_on;
    // One timed, recorded run; returns its wall time.
    const auto run = [&](const char *label, const runtime::RunSpec &spec,
                         runtime::RunResult &out) {
        ArrayBench wl(ArrayBenchParams::workloadA(tx));
        const double wall = timedRun(wl, spec, out);
        recordRun(label, wall, out);
        return wall;
    };
    for (int i = 0; i < reps; ++i) {
        best_off = std::min(best_off, run("trace-off", off, r_off));
        best_off2 =
            std::min(best_off2, run("trace-off-again", off, r_off2));
        best_on = std::min(best_on, run("trace-on", on, r_on));
    }
    expectSameSimulation(r_off, r_off2);
    expectSameSimulation(r_off, r_on);
    expectTraceMatchesStats(r_on);

    u64 events = 0;
    for (size_t e = 0; e < core::kNumTxEvents; ++e)
        events += r_on.trace->count(static_cast<core::TxEvent>(e));

    Table table({"config", "wall_s", "overhead_pct", "events", "dropped"});
    table.newRow().cell("trace-off").cell(best_off, 4).cell(0.0, 2)
        .cell(u64{0}).cell(u64{0});
    table.newRow()
        .cell("trace-off-again")
        .cell(best_off2, 4)
        .cell(100.0 * (best_off2 - best_off) / best_off, 2)
        .cell(u64{0})
        .cell(u64{0});
    table.newRow()
        .cell("trace-on")
        .cell(best_on, 4)
        .cell(100.0 * (best_on - best_off) / best_off, 2)
        .cell(events)
        .cell(r_on.trace->dropped());
    std::cout << "== micro_trace  overhead (ArrayBench A, NOrec, 11 "
                 "tasklets; simulated stats bitwise equal) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

/** Traced contended run per STM kind: aggregates vs StmStats. */
void
perKindFidelity(const BenchOptions &opt)
{
    const u32 tx = opt.full ? 60 : 20;

    Table table({"stm", "commits", "aborts", "lock_acquires",
                 "lock_waits", "validates", "tx_lat_mean", "dropped"});
    for (core::StmKind kind : core::allStmKinds()) {
        runtime::RunSpec spec;
        spec.kind = kind;
        spec.tasklets = 8;
        spec.mram_bytes = 8 * 1024 * 1024;
        spec.trace = true;

        ArrayBench wl(ArrayBenchParams::workloadB(tx));
        runtime::RunResult r;
        const double wall = timedRun(wl, spec, r);
        recordRun(std::string(core::stmKindName(kind)) + "/fidelity", wall,
                  r);
        expectTraceMatchesStats(r);
        const core::TraceBuffer &t = *r.trace;
        table.newRow()
            .cell(core::stmKindName(kind))
            .cell(r.stm.commits)
            .cell(r.stm.aborts)
            .cell(t.count(core::TxEvent::LockAcquire))
            .cell(t.count(core::TxEvent::LockWait))
            .cell(t.count(core::TxEvent::Validate))
            .cell(t.txLatency().mean(), 1)
            .cell(t.dropped());
    }
    std::cout << "== micro_trace  per-kind fidelity (ArrayBench B, 8 "
                 "tasklets; trace aggregates agree with StmStats) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = BenchOptions::parse(argc, argv);
    return guardedMain([&] {
        traceOverhead(opt);
        perKindFidelity(opt);
        return 0;
    });
}
