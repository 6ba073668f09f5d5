#include "sim/fault.hh"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hh"

namespace pimstm::sim
{

namespace
{

/** Strict unsigned parse of a full token; throws FatalError naming the
 * offending item. */
u64
parseU64(const std::string &tok, const std::string &item)
{
    fatalIf(tok.empty(), "--faults: empty number in item '", item, "'");
    u64 v = 0;
    for (char c : tok) {
        fatalIf(c < '0' || c > '9', "--faults: bad number '", tok,
                "' in item '", item, "'");
        const u64 next = v * 10 + static_cast<u64>(c - '0');
        fatalIf(next / 10 != v, "--faults: number '", tok,
                "' overflows in item '", item, "'");
        v = next;
    }
    return v;
}

/** TID field: decimal tasklet id or '*' for all tasklets. */
unsigned
parseTid(const std::string &tok, const std::string &item)
{
    if (tok == "*")
        return kAllTasklets;
    const u64 v = parseU64(tok, item);
    fatalIf(v >= 24, "--faults: tasklet id ", v, " out of range in item '",
            item, "'");
    return static_cast<unsigned>(v);
}

u32
parsePermille(const std::string &tok, const std::string &item)
{
    const u64 v = parseU64(tok, item);
    fatalIf(v > 1000, "--faults: permille value ", v,
            " exceeds 1000 in item '", item, "'");
    return static_cast<u32>(v);
}

/** Split "A<sep>B" exactly once; throws when @p sep is absent. */
std::pair<std::string, std::string>
splitOnce(const std::string &s, char sep, const std::string &item)
{
    const size_t pos = s.find(sep);
    fatalIf(pos == std::string::npos, "--faults: expected '", std::string(1, sep),
            "' in item '", item, "'");
    return {s.substr(0, pos), s.substr(pos + 1)};
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &spec)
{
    FaultPlan plan;
    if (spec.empty() || spec == "none")
        return plan;

    size_t start = 0;
    while (start <= spec.size()) {
        size_t end = spec.find(';', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;

        const size_t eq = item.find('=');
        fatalIf(eq == std::string::npos,
                "--faults: item '", item, "' is not KEY=VALUE");
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);

        if (key == "seed") {
            plan.seed = parseU64(val, item);
        } else if (key == "stall") {
            // stall=TID@INSTRS:CYCLES
            auto [tid_s, rest] = splitOnce(val, '@', item);
            auto [at_s, cyc_s] = splitOnce(rest, ':', item);
            StallFault f;
            f.tid = parseTid(tid_s, item);
            f.at_instrs = parseU64(at_s, item);
            f.cycles = parseU64(cyc_s, item);
            fatalIf(f.cycles == 0, "--faults: zero-cycle stall in item '",
                    item, "'");
            plan.stalls.push_back(f);
        } else if (key == "crash") {
            // crash=TID@OPS
            auto [tid_s, op_s] = splitOnce(val, '@', item);
            CrashFault f;
            f.tid = parseTid(tid_s, item);
            f.at_op = parseU64(op_s, item);
            fatalIf(f.at_op == 0,
                    "--faults: crash op count is 1-based in item '", item,
                    "'");
            plan.crashes.push_back(f);
        } else if (key == "dpu-crash") {
            // dpu-crash=OPS (global, cross-tasklet STM-op count)
            const u64 at_op = parseU64(val, item);
            fatalIf(at_op == 0,
                    "--faults: dpu-crash op count is 1-based in item '",
                    item, "'");
            plan.dpu_crashes.push_back(at_op);
        } else if (key == "acq-delay") {
            // acq-delay=PERMILLE:CYCLES
            auto [pm_s, cyc_s] = splitOnce(val, ':', item);
            plan.acq_delay_permille = parsePermille(pm_s, item);
            plan.acq_delay_cycles = parseU64(cyc_s, item);
            fatalIf(plan.acq_delay_permille != 0
                        && plan.acq_delay_cycles == 0,
                    "--faults: zero-cycle acquire delay in item '", item,
                    "'");
        } else if (key == "abort") {
            // abort=PERMILLE
            plan.abort_permille = parsePermille(val, item);
        } else {
            fatal("--faults: unknown item key '", key, "' (expected seed, "
                  "stall, crash, dpu-crash, acq-delay or abort)");
        }
    }
    return plan;
}

FaultInjector::FaultInjector(const FaultPlan &plan, unsigned max_tasklets)
    : plan_(plan), tasklets_(max_tasklets)
{
    reset();
}

void
FaultInjector::reset()
{
    global_ops_ = 0;
    next_dpu_crash_ = 0;
    dpu_crashes_delivered_ = 0;
    dpu_crashes_ = plan_.dpu_crashes;
    std::sort(dpu_crashes_.begin(), dpu_crashes_.end());
    for (unsigned tid = 0; tid < tasklets_.size(); ++tid) {
        TaskletState &t = tasklets_[tid];
        t.instrs = 0;
        t.stm_ops = 0;
        t.stalls.clear();
        t.next_stall = 0;
        t.crashes.clear();
        t.next_crash = 0;
        // Independent per-tasklet stream, decoupled from the workload's
        // streams by a fixed salt so arming faults never perturbs
        // workload randomness.
        t.rng.reseed(deriveSeed(plan_.seed, 0xfa017u, tid));
        for (const StallFault &f : plan_.stalls)
            if (f.tid == kAllTasklets || f.tid == tid)
                t.stalls.emplace_back(f.at_instrs, f.cycles);
        std::sort(t.stalls.begin(), t.stalls.end());
        for (const CrashFault &f : plan_.crashes)
            if (f.tid == kAllTasklets || f.tid == tid)
                t.crashes.push_back(f.at_op);
        std::sort(t.crashes.begin(), t.crashes.end());
    }
}

Cycles
FaultInjector::onInstructions(unsigned tid, u64 instrs)
{
    TaskletState &t = tasklets_[tid];
    t.instrs += instrs;
    Cycles stall = 0;
    // Several stall points can be crossed by one large charge; deliver
    // them all at once (their order within the charge is unobservable).
    while (t.next_stall < t.stalls.size()
           && t.instrs >= t.stalls[t.next_stall].first) {
        stall += t.stalls[t.next_stall].second;
        ++t.next_stall;
    }
    return stall;
}

Cycles
FaultInjector::acquireDelay(unsigned tid)
{
    if (plan_.acq_delay_permille == 0)
        return 0;
    TaskletState &t = tasklets_[tid];
    if (t.rng.below(1000) < plan_.acq_delay_permille)
        return plan_.acq_delay_cycles;
    return 0;
}

StmFault
FaultInjector::onStmOp(unsigned tid, bool can_abort)
{
    TaskletState &t = tasklets_[tid];
    ++t.stm_ops;
    ++global_ops_;
    if (next_dpu_crash_ < dpu_crashes_.size()
        && global_ops_ >= dpu_crashes_[next_dpu_crash_]) {
        ++next_dpu_crash_;
        ++dpu_crashes_delivered_;
        return StmFault::DpuCrash;
    }
    if (t.next_crash < t.crashes.size()
        && t.stm_ops >= t.crashes[t.next_crash]) {
        ++t.next_crash;
        return StmFault::Crash;
    }
    if (can_abort && plan_.abort_permille != 0
        && t.rng.below(1000) < plan_.abort_permille)
        return StmFault::SpuriousAbort;
    return StmFault::None;
}

} // namespace pimstm::sim
