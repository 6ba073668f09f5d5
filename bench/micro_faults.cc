/**
 * @file
 * Robustness microbenchmark: the cost and the behaviour of the fault
 * layer.
 *
 *  - fast-path overhead: runs the Fig. 4 ArrayBench point with the
 *    robustness features off and with the watchdog armed (but never
 *    firing), checks the simulated statistics are bitwise identical,
 *    and reports the host wall-clock overhead (expected well under 1%:
 *    the armed fast path is one compare per scheduler event).
 *  - abort storm: `abort=1000` (every injectable STM operation aborts)
 *    plus the serial-irrevocable fallback, across all seven STM kinds —
 *    every run must terminate with full commit counts, demonstrating
 *    the fallback's termination guarantee.
 *  - --demo-deadlock / --demo-livelock: construct a real deadlock
 *    (opposite-order atomic acquisition) or livelock (abort storm with
 *    no fallback, watchdog armed) and exit through the watchdog
 *    protocol: diagnostic dump on stderr, exit code 3.
 *  - --demo-dpu-crash: a whole-DPU crash (`dpu-crash=` plan) with
 *    durable mode OFF — unrecoverable by design, so the run dies
 *    through the same diagnostic exit-3 protocol as the watchdog.
 *    bench/micro_durable demonstrates the recoverable counterpart.
 *  - --demo-vr-livelock: the paper's §3.2.1 upgrade rule turned
 *    livelock — two lockstep read->write upgrades under VR ETLWB with
 *    abort backoff off. Combine with --trace-out=FILE for the worked
 *    Perfetto example in docs/observability.md.
 *
 * With --perf-json=F every fast-path and abort-storm run is a point,
 * and the artifact's `host.faults` block sums their counters.
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

/** Fields that must not change when the watchdog is armed but silent. */
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
            "armed-but-silent watchdog changed the simulation");
    fatalIf(a.dpu.injected_stalls != 0 || a.dpu.injected_acq_delays != 0 ||
                a.dpu.tasklet_crashes != 0 || a.stm.injected_aborts != 0 ||
                a.stm.escalations != 0 || a.stm.serial_commits != 0,
            "robustness counters nonzero without a fault plan");
}

/** Overhead of the armed-but-silent watchdog on the Fig. 4 fast path. */
void
fastPathOverhead(const BenchOptions &opt)
{
    const u32 tx = opt.full ? 30 : 8;
    runtime::RunSpec plain;
    plain.kind = core::StmKind::NOrec;
    plain.tasklets = 11;
    plain.mram_bytes = 8 * 1024 * 1024;

    runtime::RunSpec armed = plain;
    armed.watchdog_cycles = ~Cycles{0} / 2; // armed, never fires

    const int reps = opt.full ? 5 : 3;
    double best_plain = 1e300, best_armed = 1e300;
    runtime::RunResult r_plain, r_armed;
    for (int i = 0; i < reps; ++i) {
        ArrayBench a(ArrayBenchParams::workloadA(tx));
        const double wall_plain = timedRun(a, plain, r_plain);
        recordRun("features-off", wall_plain, r_plain);
        best_plain = std::min(best_plain, wall_plain);
        ArrayBench b(ArrayBenchParams::workloadA(tx));
        const double wall_armed = timedRun(b, armed, r_armed);
        recordRun("watchdog-armed", wall_armed, r_armed);
        best_armed = std::min(best_armed, wall_armed);
    }
    expectSameSimulation(r_plain, r_armed);

    Table table({"config", "wall_s", "overhead_pct"});
    table.newRow().cell("features-off").cell(best_plain, 4).cell(0.0, 2);
    table.newRow()
        .cell("watchdog-armed")
        .cell(best_armed, 4)
        .cell(100.0 * (best_armed - best_plain) / best_plain, 2);
    std::cout << "== micro_faults  fast-path overhead (ArrayBench A, "
                 "NOrec, 11 tasklets; simulated stats bitwise equal) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

/** 100%-abort storm + serial-irrevocable fallback: must terminate with
 * full commit counts for every STM kind. */
void
abortStorm(const BenchOptions &opt)
{
    const u32 tx = opt.full ? 60 : 20;
    const unsigned tasklets = 8;

    Table table({"stm", "commits", "aborts", "escalations",
                 "serial_commits", "injected_aborts"});
    for (core::StmKind kind : core::allStmKinds()) {
        runtime::RunSpec spec;
        spec.kind = kind;
        spec.tasklets = tasklets;
        spec.mram_bytes = 8 * 1024 * 1024;
        spec.faults = sim::FaultPlan::parse("abort=1000");
        spec.serial_fallback_override = 4;
        spec.watchdog_cycles = 500'000'000; // safety net only

        ArrayBench wl(ArrayBenchParams::workloadB(tx));
        runtime::RunResult r;
        const double wall = timedRun(wl, spec, r);
        recordRun(std::string(core::stmKindName(kind)) + "/abort-storm",
                  wall, r);
        fatalIf(r.stm.commits !=
                    static_cast<u64>(tasklets) * static_cast<u64>(tx),
                "abort storm under ", core::stmKindName(kind),
                " lost transactions");
        fatalIf(r.stm.escalations == 0 || r.stm.serial_commits == 0,
                "abort storm under ", core::stmKindName(kind),
                " never escalated");
        table.newRow()
            .cell(core::stmKindName(kind))
            .cell(r.stm.commits)
            .cell(r.stm.aborts)
            .cell(r.stm.escalations)
            .cell(r.stm.serial_commits)
            .cell(r.stm.injected_aborts);
    }
    std::cout << "== micro_faults  100%-abort storm + --serial-fallback=4 "
                 "(terminates for every STM kind) ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
}

/** Construct a real ABBA deadlock on the atomic register; the watchdog
 * must exit the process with the dump and code 3. */
int
demoDeadlock()
{
    sim::DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    sim::Dpu dpu(cfg);
    dpu.addTasklet([](sim::DpuContext &ctx) {
        ctx.acquire(0);
        ctx.compute(100);
        ctx.acquire(1); // t1 holds it and waits for key 0: deadlock
        ctx.release(1);
        ctx.release(0);
    });
    dpu.addTasklet([](sim::DpuContext &ctx) {
        ctx.acquire(1);
        ctx.compute(100);
        ctx.acquire(0);
        ctx.release(0);
        ctx.release(1);
    });
    dpu.run(); // throws WatchdogError; guardedMain turns it into exit 3
    return 1;  // unreachable when the demo works
}

/** Abort storm with no fallback: no transaction ever commits, so the
 * livelock watchdog must fire. */
int
demoLivelock()
{
    runtime::RunSpec spec;
    spec.kind = core::StmKind::NOrec;
    spec.tasklets = 4;
    spec.mram_bytes = 8 * 1024 * 1024;
    spec.faults = sim::FaultPlan::parse("abort=1000");
    spec.watchdog_cycles = 2'000'000;

    ArrayBench wl(ArrayBenchParams::workloadB(10));
    (void)runtime::runWorkload(wl, spec); // throws WatchdogError
    return 1; // unreachable when the demo works
}

/** A whole-DPU crash with durable mode off: the data died with the
 * DPU, so runWorkload propagates sim::DpuCrashError and guardedMain
 * exits through the diagnostic exit-3 protocol. */
int
demoDpuCrash()
{
    runtime::RunSpec spec;
    spec.kind = core::StmKind::NOrec;
    spec.tasklets = 4;
    spec.mram_bytes = 8 * 1024 * 1024;
    spec.faults = sim::FaultPlan::parse("dpu-crash=200");

    ArrayBench wl(ArrayBenchParams::workloadB(10));
    (void)runtime::runWorkload(wl, spec); // throws DpuCrashError
    return 1; // unreachable when the demo works
}

/**
 * The VR read->write upgrade livelock (docs/observability.md's worked
 * Perfetto example): with abort backoff disabled, two tasklets running
 * the identical upgrade on one cell stay in deterministic lockstep —
 * both read-lock, both fail the sole-reader upgrade, both abort and
 * retry, forever. Only the cycle-budget watchdog can diagnose it.
 */
int
demoVrLivelock(const BenchOptions &opt)
{
    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 << 20;
    dpu_cfg.watchdog_cycles = 300'000;
    sim::Dpu dpu(dpu_cfg);

    core::TraceBuffer trace(opt.trace_buf);

    core::StmConfig cfg;
    cfg.kind = core::StmKind::VrEtlWb;
    cfg.num_tasklets = 2;
    cfg.abort_backoff = false; // keep the tasklets in lockstep
    cfg.data_words_hint = 16;
    if (opt.trace) {
        cfg.trace = &trace;
        dpu.setTraceSink(&trace);
    }
    auto stm = std::make_unique<core::Stm>(dpu, cfg);

    runtime::SharedArray32 cells(dpu, sim::Tier::Mram, 16);
    cells.fill(dpu, 0);
    dpu.addTasklets(2, [&](sim::DpuContext &ctx) {
        core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
            const u32 v = tx.read(cells.at(0));
            tx.write(cells.at(0), v + 1);
        });
    });
    try {
        dpu.run(); // throws WatchdogError (livelock)
    } catch (...) {
        if (opt.trace && TraceFileWriter::instance().enabled())
            TraceFileWriter::instance().add(trace, "vr-livelock");
        throw;
    }
    return 1; // unreachable when the demo works
}

} // namespace

int
main(int argc, char **argv)
{
    bool deadlock = false, livelock = false, vr_livelock = false;
    bool dpu_crash = false;
    const auto opt = BenchOptions::parse(
        argc, argv, [&](const std::string &a) {
            if (a == "--demo-deadlock")
                return deadlock = true;
            if (a == "--demo-livelock")
                return livelock = true;
            if (a == "--demo-vr-livelock")
                return vr_livelock = true;
            if (a == "--demo-dpu-crash")
                return dpu_crash = true;
            return false;
        });

    return guardedMain([&] {
        if (deadlock)
            return demoDeadlock();
        if (livelock)
            return demoLivelock();
        if (vr_livelock)
            return demoVrLivelock(opt);
        if (dpu_crash)
            return demoDpuCrash();
        fastPathOverhead(opt);
        abortStorm(opt);
        return 0;
    });
}
