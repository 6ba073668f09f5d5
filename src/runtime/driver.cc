#include "runtime/driver.hh"

#include "runtime/adaptive.hh"
#include "runtime/dpu_pool.hh"
#include "util/host_alloc.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pimstm::runtime
{

RunResult
runWorkload(Workload &workload, const RunSpec &spec)
{
    util::tuneHostAllocator();

    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = spec.mram_bytes;
    dpu_cfg.seed = spec.seed;
    dpu_cfg.always_switch = spec.sim_always_switch;
    dpu_cfg.faults = spec.faults;
    dpu_cfg.watchdog_cycles = spec.watchdog_cycles;
    if (spec.atomic_bits_override)
        dpu_cfg.atomic_bits = spec.atomic_bits_override;

    // Recycle a pooled DPU when one is free: bitwise-identical to a
    // fresh construction, without re-zero-filling a 64 MB MRAM. On any
    // exception below, the unique_ptr destroys the instance instead of
    // pooling it (a Dpu unwound mid-run is not reusable).
    auto dpu_owner = DpuPool::global().acquire(dpu_cfg);
    sim::Dpu &dpu = *dpu_owner;

    const bool durable = spec.stm.durable;
    // The adaptive controller re-plans layout and can switch the live
    // STM kind; neither composes with a persistent log whose format is
    // fixed at reserveMetadata time.
    fatalIf(durable && spec.adaptive.enabled,
            "durable mode is incompatible with the adaptive controller");

    // Observability (host-only; docs/observability.md). The buffer is
    // shared with the RunResult; the Dpu and StmConfig only borrow it,
    // and the Dpu's sink is cleared before the instance is pooled.
    std::shared_ptr<core::TraceBuffer> trace_buf;
    if (spec.trace) {
        trace_buf =
            std::make_shared<core::TraceBuffer>(spec.trace_buffer_capacity);
        dpu.setTraceSink(trace_buf.get());
    }

    // Online adaptation (docs/adaptive.md): kind candidates and the
    // hot-lock WRAM cache change simulated layout/charging, so they are
    // gated on the controller actually being enabled — controller-off
    // builds the single-kind STM, bitwise identical (CI-gated).
    const bool adaptive_on = spec.adaptive.enabled;

    core::StmConfig stm_cfg = spec.stm;
    stm_cfg.kind = spec.kind;
    stm_cfg.metadata_tier = spec.tier;
    stm_cfg.num_tasklets = spec.tasklets;
    stm_cfg.trace = trace_buf.get();
    stm_cfg.hot_lock_capacity =
        adaptive_on ? spec.adaptive.hot_lock_capacity : 0;
    workload.configure(stm_cfg);

    // May throw FatalError when the placement is infeasible — that is
    // the paper's "cannot run with WRAM metadata" case.
    auto stm = std::make_unique<core::Stm>(
        dpu, stm_cfg,
        adaptive_on ? spec.adaptive.kind_candidates
                    : std::vector<core::StmKind>{});

    workload.setup(dpu, *stm);

    // Setup writes MRAM through the untimed host port; on hardware
    // that load DMA completes before the program launches, so the
    // initial image is durable by construction. Fence the persist
    // boundary here so an early crash cannot tear data the tasklets
    // never wrote.
    if (durable)
        dpu.mram().fence();

    core::Stm *stm_ptr = stm.get();
    Workload *wl = &workload;
    dpu.addTasklets(spec.tasklets, [wl, stm_ptr](sim::DpuContext &ctx) {
        wl->tasklet(ctx, *stm_ptr);
    });

    std::unique_ptr<AdaptiveController> controller;
    if (adaptive_on) {
        controller =
            std::make_unique<AdaptiveController>(*stm, dpu, spec.adaptive);
        dpu.setEpochHook(spec.adaptive.epoch_cycles,
                         [&controller] { controller->onEpoch(); });
    }

    // Durable mode's crash-restart loop (docs/durability.md): a
    // whole-DPU crash destroys WRAM and tears unflushed MRAM lines.
    // Recover the STM from its durable log, re-register the tasklets
    // (they restart their bodies from scratch, like a real relaunch)
    // and run again, carrying statistics across rounds. Without
    // durable mode the crash propagates to the caller.
    sim::DpuStats crashed_rounds;
    unsigned restarts = 0;
    for (;;) {
        try {
            dpu.run();
            break;
        } catch (const sim::DpuCrashError &) {
            if (!durable)
                throw;
            fatalIf(restarts >= spec.max_restarts,
                    "DPU crash-restart budget exhausted (max_restarts=",
                    spec.max_restarts, ")");
            ++restarts;
            crashed_rounds += dpu.stats();
            dpu.resetRun(/*reset_faults=*/false);
            stm_ptr->recoverAfterCrash();
            dpu.addTasklets(spec.tasklets,
                            [wl, stm_ptr](sim::DpuContext &ctx) {
                                wl->tasklet(ctx, *stm_ptr);
                            });
        }
    }
    if (adaptive_on)
        dpu.setEpochHook(0, nullptr); // borrowed, like the trace sink
    workload.verify(dpu, *stm);

    RunResult r;
    r.stm = stm->stats();
    if (controller)
        r.adaptive = controller->report();
    r.dpu = dpu.stats();
    r.dpu += crashed_rounds; // rounds ended by a recovered DPU crash
    r.seconds = sim::cyclesToSeconds(r.dpu.total_cycles);
    r.throughput =
        r.seconds > 0 ? static_cast<double>(r.stm.commits) / r.seconds : 0;
    r.app_ops_per_sec =
        r.seconds > 0 ? static_cast<double>(workload.appOps()) / r.seconds
                      : 0;
    r.abort_rate = r.stm.abortRate();
    r.extra = workload.extraMetrics();

    const auto busy = r.dpu.busyCycles();
    if (busy > 0) {
        for (size_t p = 0; p < sim::kNumPhases; ++p) {
            r.phase_share[p] =
                static_cast<double>(r.dpu.phase_cycles[p]) /
                static_cast<double>(busy);
        }
    }

    if (trace_buf) {
        r.trace = trace_buf;
        dpu.setTraceSink(nullptr);
    }

    // The STM (which references the DPU) must be gone before the DPU
    // can be handed to another sweep point.
    stm.reset();
    DpuPool::global().release(std::move(dpu_owner));
    return r;
}

std::vector<RunOutcome>
runWorkloadMany(const WorkloadFactory &factory,
                const std::vector<RunSpec> &specs)
{
    std::vector<RunOutcome> outcomes(specs.size());
    util::parallelFor(specs.size(), [&](size_t i) {
        auto wl = factory();
        try {
            outcomes[i].result = runWorkload(*wl, specs[i]);
            outcomes[i].ok = true;
        } catch (const FatalError &e) {
            outcomes[i].ok = false;
            outcomes[i].error = e.what();
        }
    });
    return outcomes;
}

} // namespace pimstm::runtime
