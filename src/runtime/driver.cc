#include "runtime/driver.hh"

#include <algorithm>

#include "runtime/adaptive.hh"
#include "runtime/dpu_pool.hh"
#include "util/host_alloc.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace pimstm::runtime
{

void
launch(sim::Dpu &dpu, core::Stm &stm, unsigned tasklets, size_t items,
       const std::function<void(sim::DpuContext &, size_t)> &item,
       const std::function<void(const sim::Dpu &)> &on_round)
{
    // Tasklet t runs items t, t + stride, ...; an empty launch still
    // starts one idle tasklet. Each body captures a pointer and its
    // index, which std::function stores without a heap allocation.
    struct Deal
    {
        const std::function<void(sim::DpuContext &, size_t)> &item;
        size_t items;
        size_t stride;
    };
    const Deal deal{item, items,
                    std::max<size_t>(1, std::min<size_t>(tasklets, items))};
    const auto add_tasklets = [&] {
        for (size_t t = 0; t < deal.stride; ++t) {
            dpu.addTasklet([d = &deal, t](sim::DpuContext &ctx) {
                for (size_t i = t; i < d->items; i += d->stride)
                    d->item(ctx, i);
            });
        }
    };
    dpu.resetRun(/*reset_faults=*/false);
    add_tasklets();
    for (;;) {
        try {
            dpu.run();
            on_round(dpu);
            return;
        } catch (const sim::DpuCrashError &) {
            // A whole-DPU crash wipes WRAM and tears unfenced MRAM
            // lines; only a durable STM can rebuild its state.
            if (!stm.config().durable)
                throw;
            on_round(dpu);
            dpu.resetRun(/*reset_faults=*/false);
            stm.recoverAfterCrash();
            add_tasklets();
        }
    }
}

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

    // May throw PlacementError when the metadata does not fit — that is
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

    std::unique_ptr<AdaptiveController> controller;
    if (adaptive_on) {
        controller =
            std::make_unique<AdaptiveController>(*stm, dpu, spec.adaptive);
        dpu.setEpochHook(spec.adaptive.epoch_cycles,
                         [&controller] { controller->onEpoch(); });
    }

    // Every tasklet runs the workload's body once; the DPU stats of a
    // durable run sum every round, crashed ones included.
    RunResult r;
    launch(
        dpu, *stm, spec.tasklets, spec.tasklets,
        [&](sim::DpuContext &ctx, size_t) { workload.tasklet(ctx, *stm); },
        [&](const sim::Dpu &d) { r.dpu += d.stats(); });
    if (adaptive_on)
        dpu.setEpochHook(0, nullptr); // borrowed, like the trace sink
    workload.verify(dpu, *stm);

    r.stm = stm->stats();
    if (controller)
        r.adaptive = controller->report();
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
        } catch (const PlacementError &e) {
            outcomes[i].ok = false;
            outcomes[i].error = e.what();
        }
    });
    return outcomes;
}

} // namespace pimstm::runtime
