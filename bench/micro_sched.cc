/**
 * @file
 * Scheduler microbenchmark: measures the host-side speed of the DPU
 * inner simulation loop (simulated cycles per host second) across the
 * scheduling patterns that dominate the figure harnesses — pure
 * round-robin compute, mixed WRAM work, MRAM streaming, atomic
 * ping-pong and barrier storms — and cross-checks that fiber-switch
 * elision leaves every simulated statistic bitwise identical to the
 * always-switch schedule. A relaunch scenario shaped like KV serving
 * (one DPU, thousands of short 4-tasklet launches) prices the host
 * cost of a launch itself — addTasklets, run, resetRun — and checks
 * that every relaunch simulates exactly like a fresh DPU.
 *
 * With --perf-json=FILE the per-scenario numbers are written as the
 * BENCH_sim.json artifact CI tracks per commit. The simulated-cycle
 * columns are deterministic; the host wall-clock columns are not.
 */

#include <chrono>
#include <cstdlib>

#include "bench/common.hh"
#include "sim/dpu.hh"

using namespace pimstm;
using namespace pimstm::sim;

namespace
{

struct ScenarioRun
{
    DpuStats stats;
    double wall_s = 0;
};

ScenarioRun
runScenario(unsigned tasklets, u64 iters, bool always_switch,
            const TaskletBody &body)
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    cfg.always_switch = always_switch;
    Dpu dpu(cfg);
    (void)iters;
    dpu.addTasklets(tasklets, body);
    const auto t0 = std::chrono::steady_clock::now();
    dpu.run();
    ScenarioRun r;
    r.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    r.stats = dpu.stats();
    return r;
}

void
expectSameSimulation(const char *name, const DpuStats &a,
                     const DpuStats &b)
{
    fatalIf(a.total_cycles != b.total_cycles ||
                a.instructions != b.instructions ||
                a.wram_accesses != b.wram_accesses ||
                a.mram_reads != b.mram_reads ||
                a.mram_writes != b.mram_writes ||
                a.atomic_acquires != b.atomic_acquires ||
                a.atomic_stalls != b.atomic_stalls ||
                a.atomic_stall_cycles != b.atomic_stall_cycles ||
                a.phase_cycles != b.phase_cycles,
            "scenario '", name,
            "': simulated statistics diverged");
}

struct RelaunchRun
{
    DpuStats fresh;
    double us_per_launch = 0;
};

/**
 * Relaunch one DPU @p launches times with @p tasklets copies of
 * @p body, timing whole launches (registration, run and reset, which
 * runScenario's clock leaves out). Every launch must reproduce a fresh
 * DPU's statistics, host scheduler counters included.
 */
RelaunchRun
runRelaunch(unsigned tasklets, u64 launches, const TaskletBody &body)
{
    DpuConfig cfg;
    cfg.mram_bytes = 1 << 20;
    RelaunchRun r;
    {
        Dpu fresh(cfg);
        fresh.addTasklets(tasklets, body);
        fresh.run();
        r.fresh = fresh.stats();
    }
    Dpu dpu(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    for (u64 i = 0; i < launches; ++i) {
        dpu.addTasklets(tasklets, body);
        dpu.run();
        const DpuStats &s = dpu.stats();
        expectSameSimulation("relaunch", s, r.fresh);
        fatalIf(s.sched_switches != r.fresh.sched_switches ||
                    s.sched_elisions != r.fresh.sched_elisions,
                "scenario 'relaunch': launch ", i,
                " diverged from a fresh DPU");
        dpu.resetRun();
    }
    r.us_per_launch = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      static_cast<double>(launches);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = bench::BenchOptions::parse(argc, argv);
    const u64 scale = opt.full ? 4 : 1;

    struct Scenario
    {
        const char *name;
        unsigned tasklets;
        u64 iters;
        std::function<TaskletBody(u64)> make;
    };

    // Bodies are built per scenario so the iteration count can scale.
    const auto compute1 = [](u64 iters) -> TaskletBody {
        return [iters](DpuContext &ctx) {
            for (u64 i = 0; i < iters; ++i)
                ctx.compute(1);
        };
    };
    const auto wramMixed = [](u64 iters) -> TaskletBody {
        return [iters](DpuContext &ctx) {
            for (u64 i = 0; i < iters; ++i) {
                ctx.compute(1 + ctx.rng().below(8));
                const Addr a = makeAddr(
                    Tier::Wram,
                    static_cast<u32>(4 * ctx.rng().below(256)));
                ctx.write32(a, ctx.read32(a) + 1);
            }
        };
    };
    const auto mramStream = [](u64 iters) -> TaskletBody {
        return [iters](DpuContext &ctx) {
            char buf[64] = {};
            for (u64 i = 0; i < iters; ++i) {
                const Addr a = makeAddr(
                    Tier::Mram,
                    static_cast<u32>(64 * ctx.rng().below(1024)));
                ctx.readBlock(a, buf, sizeof buf);
                ctx.writeBlock(a, buf, sizeof buf);
            }
        };
    };
    const auto atomicPingPong = [](u64 iters) -> TaskletBody {
        return [iters](DpuContext &ctx) {
            for (u64 i = 0; i < iters; ++i) {
                ctx.acquire(3);
                ctx.compute(4);
                ctx.release(3);
                ctx.compute(2);
            }
        };
    };
    const auto barrierStorm = [](u64 iters) -> TaskletBody {
        return [iters](DpuContext &ctx) {
            for (u64 i = 0; i < iters; ++i) {
                ctx.compute(2 + ctx.taskletId() % 5);
                ctx.barrier();
            }
        };
    };

    const std::vector<Scenario> scenarios = {
        {"compute1_t1", 1, 400000 * scale, compute1},
        {"compute1_t11", 11, 40000 * scale, compute1},
        {"compute1_t24", 24, 20000 * scale, compute1},
        {"wram_mixed_t11", 11, 20000 * scale, wramMixed},
        {"mram_stream_t11", 11, 10000 * scale, mramStream},
        {"atomic_pingpong_t8", 8, 10000 * scale, atomicPingPong},
        {"barrier_storm_t11", 11, 4000 * scale, barrierStorm},
    };

    Table table({"scenario", "tasklets", "sim_Mcycles", "elide%",
                 "host_ms_elided", "host_ms_switch", "speedup",
                 "Mcyc_per_s"});
    for (const auto &s : scenarios) {
        const auto body = s.make(s.iters);
        const auto elided = runScenario(s.tasklets, s.iters, false, body);
        const auto switched = runScenario(s.tasklets, s.iters, true, body);
        expectSameSimulation(s.name, elided.stats, switched.stats);

        const double sim_mcyc =
            static_cast<double>(elided.stats.total_cycles) / 1e6;
        const u64 events =
            elided.stats.sched_elisions + elided.stats.sched_switches;
        table.newRow()
            .cell(s.name)
            .cell(s.tasklets)
            .cell(sim_mcyc, 2)
            .cell(events ? 100.0 *
                               static_cast<double>(
                                   elided.stats.sched_elisions) /
                               static_cast<double>(events)
                         : 0.0,
                  1)
            .cell(elided.wall_s * 1e3, 1)
            .cell(switched.wall_s * 1e3, 1)
            .cell(elided.wall_s > 0 ? switched.wall_s / elided.wall_s
                                    : 0.0,
                  2)
            .cell(elided.wall_s > 0 ? sim_mcyc / elided.wall_s : 0.0, 1);

        bench::PerfRecord rec;
        rec.label = s.name;
        rec.wall_s = elided.wall_s;
        rec.dpu = elided.stats;
        bench::PerfReporter::instance().record(std::move(rec));
    }

    // KV-serving shape: a shard launch runs a handful of tasklets for a
    // few hundred simulated cycles, so per-launch host cost dominates.
    const unsigned relaunch_tasklets = 4;
    const u64 launches = 5000 * scale;
    const auto shortRequest = [](DpuContext &ctx) {
        for (int i = 0; i < 3; ++i) {
            ctx.compute(1 + ctx.rng().below(4));
            ctx.touchRead(Tier::Mram, 8);
        }
    };
    const auto relaunch =
        runRelaunch(relaunch_tasklets, launches, shortRequest);
    Table relaunch_table({"scenario", "tasklets", "launches",
                          "sim_cycles_per_launch", "host_us_per_launch"});
    relaunch_table.newRow()
        .cell("relaunch_t4")
        .cell(relaunch_tasklets)
        .cell(launches)
        .cell(relaunch.fresh.total_cycles)
        .cell(relaunch.us_per_launch, 2);

    std::cout << "== micro_sched: inner-loop scheduler performance ==\n";
    const auto print = [&opt](const Table &t) {
        if (opt.csv)
            t.printCsv(std::cout);
        else
            t.printText(std::cout);
    };
    print(table);
    std::cout << "\n";
    print(relaunch_table);
    std::cout << "\nelided vs always-switch simulated stats: identical\n"
              << "relaunched vs fresh DPU simulated stats: identical\n";
    return 0;
}
