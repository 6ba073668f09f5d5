/**
 * @file
 * perfbench: the two-clock benchmark program (README.md in this
 * directory). One invocation runs one workload in this process:
 *
 *   perfbench --workload paper_sweep|kv_serve|kv_durable_2pc
 *             --seed N --seconds S --trace 0|1 [--spans-out FILE]
 *
 * A KV run starts with an untimed warm-up pass; the sweep warms up in
 * each pass's set-up. --trace 0 then repeats the workload's pass
 * (set-up + timed phase) while the next one fits in S seconds, at
 * least once, and reports the end-to-end metrics: host times as
 * medians over passes, simulated metrics from the first pass after
 * checking that every pass (and the warm-up) repeated them exactly.
 * A sweep pass takes longer than the default S, so at that S the
 * sweep runs one pass and overruns S. The KV capacity search runs
 * once, after the passes. --trace 1 runs one untraced and one traced
 * pass, the KV capacity search untraced and traced, and for kv_serve
 * the pass again on two host threads, and reports the per-layer
 * metrics. The last line of stdout is one JSON object with
 * keys correct, attempted, failed and metrics; the exit code is 0 only
 * when every check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "kv_workloads.hh"
#include "paper_sweep.hh"
#include "report.hh"
#include "util/host_alloc.hh"
#include "util/thread_pool.hh"

using namespace perfbench;

namespace
{

constexpr size_t kMaxPasses = 64;

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string spans_out;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "paper_sweep|kv_serve|kv_durable_2pc --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n";
    std::exit(2);
}

std::optional<u64>
parseUnsigned(const std::string &s)
{
    if (s.empty() || s.size() > 19
        || s.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    return std::stoull(s);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            const auto n = parseUnsigned(v);
            if (!n)
                usage("--seed expects an unsigned integer");
            a.seed = *n;
        } else if (flag == "--seconds") {
            const auto n = parseUnsigned(v);
            if (!n || *n < 1 || *n > 3600)
                usage("--seconds expects an integer in [1, 3600]");
            a.seconds = static_cast<double>(*n);
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--spans-out") {
            a.spans_out = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.workload != "paper_sweep" && a.workload != "kv_serve"
        && a.workload != "kv_durable_2pc")
        usage("unknown workload " + a.workload);
    return a;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const bool sweep = args.workload == "paper_sweep";
    const KvWorkload kv = args.workload == "kv_serve" ? kvServeWorkload()
                                                      : kvDurable2pcWorkload();
    // Timed passes run on one host thread: on a shared VM the speed of a
    // second thread depends on other tenants, and it once tripled
    // kv_serve's host_s within ten runs.
    pimstm::util::ThreadPool::setGlobalJobs(1);
    // Every workload runs under the allocator policy runtime::runWorkload
    // sets on its first call. Under glibc's dynamic thresholds, KV host
    // time depends on whether a seed-dependent buffer happens to free an
    // mmapped chunk larger than a fiber stack: with identical simulated
    // work, page faults per serving run differed threefold between seeds.
    pimstm::util::tuneHostAllocator();
    auto runPass = [&](Spans &spans) {
        return sweep ? runPaperSweepPass(args.seed, spans)
                     : runKvPass(kv, args.seed, spans);
    };

    std::vector<std::string> errors;
    u64 attempted = 0;
    u64 failed = 0;
    auto absorb = [&](const PassResult &p) {
        attempted += p.attempted;
        failed += p.failed;
        errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    };
    auto check = [&](const std::string &diff, const std::string &what) {
        if (!diff.empty()) {
            errors.push_back("simulated metric differs " + what + ": " + diff);
            ++failed;
        }
    };
    auto sameSim = [&](const PassResult &a, const PassResult &b,
                       const std::string &what) {
        check(digestDiff(simulatedDigest(a), simulatedDigest(b)), what);
    };

    std::vector<Metric> metrics;
    try {
        Spans off(false);
        // A KV warm-up pass warms the process (allocator arenas, pooled
        // DPU memory, fiber stacks) before anything is timed, and is
        // the repeat the first pass must match.
        std::optional<PassResult> warm;
        if (!sweep) {
            warm = runKvPass(kv, args.seed, off);
            absorb(*warm);
        }
        if (args.trace == 0) {
            // Passes while the next one fits in the measured time at
            // the mean pass length so far, at least one.
            std::vector<PassResult> passes;
            const auto start = Clock::now();
            for (;;) {
                passes.push_back(runPass(off));
                absorb(passes.back());
                const double elapsed = secondsSince(start);
                const double per_pass =
                    elapsed / static_cast<double>(passes.size());
                if (elapsed + per_pass > args.seconds
                    || passes.size() >= kMaxPasses)
                    break;
            }
            std::vector<double> host, setup;
            std::string each;
            for (const PassResult &p : passes) {
                sameSim(passes.front(), p, "between repeated passes");
                host.push_back(p.host_s);
                setup.push_back(p.setup_s);
                each += (each.empty() ? "" : " ") + jsonNumber(p.host_s);
            }
            const PassResult &first = passes.front();
            if (warm)
                sameSim(*warm, first, "between repeated passes");
            const double host_s = median(host);
            metrics.push_back({"host_s", host_s, "s",
                               "median of " + std::to_string(passes.size())
                                   + " passes: " + each});
            metrics.push_back({"setup_s", median(setup), "s",
                               "median over " + std::to_string(passes.size())
                                   + " passes"});
            metrics.push_back({"peak_rss_mb", peakRssMb(), "MiB", ""});
            metrics.push_back({"sim_mcycles_per_host_s",
                               static_cast<double>(first.counters.cycles)
                                   / host_s * 1e-6,
                               "Mcycles/s", ""});
            metrics.insert(metrics.end(), first.sim.begin(), first.sim.end());
            if (!sweep) {
                const PassResult cap = runKvCapacity(kv, args.seed, off);
                absorb(cap);
                metrics.insert(metrics.end(), cap.sim.begin(), cap.sim.end());
            }
        } else {
            const PassResult untraced = runPass(off);
            absorb(untraced);
            Spans on(true);
            PassResult traced = runPass(on);
            absorb(traced);
            sameSim(untraced, traced, "between traced and untraced runs");
            if (warm)
                sameSim(*warm, untraced, "between repeated passes");
            const auto pass_spans = on.totals();

            TracedExtras x;
            x.untraced_host_s = untraced.host_s;
            x.traced_host_s = traced.host_s;
            if (!sweep) {
                const PassResult cap = runKvCapacity(kv, args.seed, off);
                absorb(cap);
                const PassResult cap_traced = runKvCapacity(kv, args.seed, on);
                absorb(cap_traced);
                sameSim(cap, cap_traced,
                        "between traced and untraced capacity searches");
                x.capacity_s = cap_traced.capacity_s;
                x.capacity_probes = cap_traced.capacity_probes;
            }
            if (!sweep && kv.compare_threads > 1) {
                pimstm::util::ThreadPool::setGlobalJobs(kv.compare_threads);
                const PassResult multi = runKvPass(kv, args.seed, off);
                absorb(multi);
                pimstm::util::ThreadPool::setGlobalJobs(1);
                sameSim(untraced, multi,
                        "between 1 and " + std::to_string(kv.compare_threads)
                            + " host threads");
                x.parallel_speedup = untraced.host_s / multi.host_s;
            }
            metrics = layerMetrics(traced, pass_spans, x);
            if (!args.spans_out.empty() && !on.writeJson(args.spans_out)) {
                errors.push_back("cannot write spans to " + args.spans_out);
                ++failed;
            }
        }
    } catch (const std::exception &e) {
        errors.push_back(std::string("uncaught: ") + e.what());
        ++failed;
    }
    if (attempted == 0)
        attempted = 1; // a run that died before its first operation

    metrics.push_back({"failed_frac",
                       static_cast<double>(failed)
                           / static_cast<double>(attempted),
                       "ratio", std::to_string(failed) + " of "
                           + std::to_string(attempted)});

    std::cout << "== perfbench " << args.workload << " seed=" << args.seed
              << " trace=" << args.trace << " host_threads=1"
              << " ==\n";
    for (const Metric &m : metrics) {
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit;
        if (!m.note.empty())
            std::cout << "  (" << m.note << ")";
        std::cout << "\n";
        if (!std::isfinite(m.value)) {
            errors.push_back(m.name + " is not finite");
            ++failed;
        }
    }
    for (const std::string &e : errors)
        std::cerr << "CHECK FAILED: " << e << "\n";
    const bool correct = errors.empty() && failed == 0;

    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        if (m.name == "failed_frac")
            continue; // carried by attempted/failed
        js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
           << (std::isfinite(m.value) ? jsonNumber(m.value) : "0")
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return correct ? 0 : 1;
}
