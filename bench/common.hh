/**
 * @file
 * Shared infrastructure for the figure-reproduction harnesses: sweep a
 * workload over (STM kind x metadata tier x tasklet count x seeds) and
 * print the throughput / abort-rate / time-breakdown series that
 * correspond to the paper's plots.
 *
 * Every bench binary accepts:
 *   --quick        smaller workloads (default when PIMSTM_FULL unset)
 *   --full         paper-scale workloads
 *   --csv          machine-readable output
 *   --seeds=N      number of seeds to average (default 3)
 *   --jobs=N       host threads for the sweep (default: PIMSTM_JOBS
 *                  env var, else all hardware threads); results are
 *                  bitwise identical for every N
 *   --perf-json=F  write a host-performance artifact (wall-clock and
 *                  simulated cycles/sec per sweep point) to F on exit;
 *                  never affects the simulated output
 *   --faults=SPEC  deterministic fault-injection plan (grammar in
 *                  docs/robustness.md); default empty = no injection
 *                  and bitwise-identical output
 *   --watchdog-cycles=N  abort with a diagnostic dump and exit code 3
 *                  when no transaction commits for N simulated cycles
 *                  (0 = off; deadlock detection is always on)
 *   --serial-fallback=K  escalate a transaction to serial-irrevocable
 *                  mode after K consecutive aborts (0 = off, the
 *                  paper's behaviour)
 *   --durable=on|off  durable transactions (docs/durability.md):
 *                  commits are persistently logged at the MRAM persist
 *                  boundary and whole-DPU crashes (`dpu-crash=` fault
 *                  plans) are recovered and the run restarted; off
 *                  (default) is bitwise identical to builds without
 *                  the subsystem
 *   --trace        record per-run transaction/scheduler traces and
 *                  export the aggregate `trace` block in --perf-json;
 *                  host-only, simulated output is bitwise unchanged
 *   --trace-out=F  stream every traced run to F in Chrome/Perfetto
 *                  JSON array format (implies --trace)
 *   --trace-buf=N  per-run trace ring capacity in records
 *                  (default 4096; aggregates are unaffected by drops)
 *
 * The full flag/env-var reference lives in README.md §"Command-line
 * flags and environment variables"; the trace format and perf-json
 * schema are specified in docs/observability.md.
 *
 * Unknown --flags are rejected with exit code 2.
 */

#ifndef PIMSTM_BENCH_COMMON_HH
#define PIMSTM_BENCH_COMMON_HH

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/dpu_pool.hh"
#include "runtime/driver.hh"
#include "sim/fault.hh"
#include "util/logging.hh"
#include "util/stats_math.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace pimstm::bench
{

/** Peak resident set size of this process in KB (VmHWM), or 0 when
 * /proc is unavailable. Host-side observability for --perf-json. */
inline u64
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            u64 kb = 0;
            std::sscanf(line.c_str(), "VmHWM: %llu",
                        reinterpret_cast<unsigned long long *>(&kb));
            return kb;
        }
    }
    return 0;
}

/**
 * One timed unit of host work for the perf artifact (a sweep point of
 * a figure harness, a serving scenario, a micro_sched scenario) with
 * the counters of the runs it timed, summed over them. The point's
 * sim_cycles / sched_switches / sched_elisions are dpu's fields.
 * Wall-clock is host time and therefore machine-dependent and
 * non-deterministic — it is only ever written to the perf JSON, never
 * to the simulated CSV output.
 */
struct PerfRecord
{
    std::string bench; ///< harness name (argv[0] basename)
    std::string label; ///< sweep point / scenario label
    double wall_s = 0; ///< host seconds spent on this unit
    core::StmStats stm;
    sim::DpuStats dpu;
    /** Traces of the timed runs (empty unless traced). */
    std::vector<std::shared_ptr<const core::TraceBuffer>> traces;
};

/**
 * Collector behind --perf-json=FILE: units of work record their
 * wall-clock and counters as they finish (from any pool thread), and
 * the file is written once at process exit. Every counter block of
 * the artifact is the sum over its points, so it describes exactly
 * the work the points time. CI uploads it as the non-gating
 * BENCH_sim.json artifact, so the simulator's host-performance
 * trajectory is tracked per commit.
 */
class PerfReporter
{
  public:
    static PerfReporter &
    instance()
    {
        static PerfReporter r;
        return r;
    }

    void
    enable(std::string path, std::string bench)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        path_ = std::move(path);
        bench_ = std::move(bench);
        if (!registered_) {
            registered_ = true;
            std::atexit([] { PerfReporter::instance().write(); });
        }
    }

    /** Add one point and fold its counters into the sums (no-op
     * unless --perf-json is on). Sums are order-independent, so the
     * artifact does not depend on which pool thread finishes first. */
    void
    record(PerfRecord r)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (path_.empty())
            return;
        if (r.bench.empty())
            r.bench = bench_;
        stm_ += r.stm;
        dpu_ += r.dpu;
        for (const auto &t : r.traces)
            trace_.add(*t);
        r.traces.clear(); // folded: do not hold the buffers until exit
        records_.push_back(std::move(r));
    }

    /** Attach a named top-level JSON block (@p json must be one JSON
     * value, e.g. the `distributed` object from twoPcStatsJson).
     * Written once, between the trace block and the totals (only
     * under --perf-json); scripts/check_perf_json.py gates the blocks
     * it names in EXACT_BLOCKS and ignores the rest. */
    void
    setExtraBlock(const std::string &name, std::string json)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        extra_blocks_[name] = std::move(json);
    }

    /** Write the JSON artifact; called automatically at exit. */
    void
    write()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (path_.empty())
            return;
        std::ofstream out(path_);
        if (!out) {
            std::cerr << "perf-json: cannot write " << path_ << "\n";
            return;
        }
        out.precision(17); // simulated-cycle fields must round-trip
        double wall = 0;
        for (const auto &r : records_)
            wall += r.wall_s;
        const auto pool = runtime::DpuPool::global().stats();
        const auto idx = core::txIndexTotals();
        out << "{\n  \"bench\": \"" << escape(bench_) << "\",\n"
            << "  \"hardware_threads\": "
            << std::thread::hardware_concurrency() << ",\n"
            << "  \"host\": {"
            << "\"peak_rss_kb\": " << peakRssKb()
            << ", \"dpu_pool_hits\": " << pool.hits
            << ", \"dpu_pool_misses\": " << pool.misses
            << ", \"dpu_pool_discards\": " << pool.discards
            << ", \"txindex_lookups\": " << idx.lookups
            << ", \"txindex_probes\": " << idx.probes
            << ", \"txindex_inserts\": " << idx.inserts
            << ", \"txindex_avg_probe\": "
            << (idx.lookups > 0
                    ? static_cast<double>(idx.probes) /
                          static_cast<double>(idx.lookups)
                    : 0)
            << ", \"txindex_max_probe\": " << idx.max_probe
            << ", \"faults\": {"
            << "\"injected_stalls\": " << dpu_.injected_stalls
            << ", \"injected_acq_delays\": " << dpu_.injected_acq_delays
            << ", \"tasklet_crashes\": " << dpu_.tasklet_crashes
            << ", \"injected_aborts\": " << stm_.injected_aborts
            << ", \"escalations\": " << stm_.escalations
            << ", \"serial_commits\": " << stm_.serial_commits << "}},\n";
        if (trace_.runs > 0)
            writeTraceBlock(out, trace_);
        if (stm_.boosted_acquires != 0 || stm_.boosted_waits != 0 ||
            stm_.semantic_undos != 0) {
            out << "  \"boosted\": {\"acquires\": " << stm_.boosted_acquires
                << ", \"waits\": " << stm_.boosted_waits
                << ", \"semantic_undos\": " << stm_.semantic_undos
                << ", \"false_conflicts_avoided\": "
                << stm_.false_conflicts_avoided << "},\n";
        }
        if (stm_.flush_fences != 0 || stm_.recoveries != 0 ||
            stm_.log_appends != 0) {
            out << "  \"durable\": {\"log_bytes\": " << stm_.log_bytes
                << ", \"log_appends\": " << stm_.log_appends
                << ", \"flush_fences\": " << stm_.flush_fences
                << ", \"durable_commits\": " << stm_.durable_commits
                << ", \"recoveries\": " << stm_.recoveries
                << ", \"log_redone\": " << stm_.log_redone
                << ", \"log_undone\": " << stm_.log_undone
                << ", \"log_discarded\": " << stm_.log_discarded
                << ", \"torn_logs\": " << stm_.torn_logs << "},\n";
        }
        for (const auto &[name, json] : extra_blocks_)
            out << "  \"" << escape(name) << "\": " << json << ",\n";
        out << "  \"totals\": {";
        writeCycles(out, wall, dpu_);
        out << ",\n  \"points\": [\n";
        for (size_t i = 0; i < records_.size(); ++i) {
            const auto &r = records_[i];
            out << "    {\"bench\": \"" << escape(r.bench)
                << "\", \"label\": \"" << escape(r.label) << "\", ";
            writeCycles(out, r.wall_s, r.dpu);
            out << (i + 1 < records_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        path_.clear(); // write once
    }

  private:
    /** The wall/cycle/scheduler fields shared by a point and the
     * totals, closing the object. */
    static void
    writeCycles(std::ostream &out, double wall_s, const sim::DpuStats &d)
    {
        const auto cycles = static_cast<double>(d.total_cycles);
        out << "\"wall_s\": " << wall_s
            << ", \"sim_cycles\": " << d.total_cycles
            << ", \"sim_cycles_per_wall_s\": "
            << (wall_s > 0 ? cycles / wall_s : 0)
            << ", \"sched_switches\": " << d.sched_switches
            << ", \"sched_elisions\": " << d.sched_elisions << "}";
    }

    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    /** One LogHistogram as JSON (nonzero buckets as [low, count]). */
    static void
    writeHistogram(std::ostream &out, const core::LogHistogram &h)
    {
        out << "{\"count\": " << h.count << ", \"sum\": " << h.sum
            << ", \"mean\": " << h.mean()
            << ", \"min\": " << (h.count > 0 ? h.min : 0)
            << ", \"max\": " << h.max << ", \"buckets\": [";
        bool first = true;
        for (size_t b = 0; b < core::LogHistogram::kBuckets; ++b) {
            if (h.buckets[b] == 0)
                continue;
            out << (first ? "" : ", ") << "["
                << core::LogHistogram::bucketLow(b) << ", "
                << h.buckets[b] << "]";
            first = false;
        }
        out << "]}";
    }

    /** The --perf-json `trace` block (schema: docs/observability.md). */
    static void
    writeTraceBlock(std::ostream &out, const core::TraceTotals &trc)
    {
        out << "  \"trace\": {\"runs\": " << trc.runs
            << ", \"dropped\": " << trc.dropped << ",\n    \"events\": {";
        for (size_t e = 0; e < core::kNumTxEvents; ++e) {
            out << (e ? ", " : "") << "\""
                << core::txEventName(static_cast<core::TxEvent>(e))
                << "\": " << trc.events[e];
        }
        out << "},\n    \"aborts_by_reason\": {";
        for (size_t r = 0; r < core::kNumAbortReasons; ++r) {
            out << (r ? ", " : "") << "\""
                << core::abortReasonName(static_cast<core::AbortReason>(r))
                << "\": " << trc.aborts_by_reason[r];
        }
        out << "},\n    \"aborts_by_structure\": {";
        for (size_t s = 0; s < core::kNumStructures; ++s) {
            out << (s ? ", " : "") << "\""
                << core::structureName(static_cast<core::StructureId>(s))
                << "\": " << trc.aborts_by_structure[s];
        }
        out << "},\n    \"tx_latency\": ";
        writeHistogram(out, trc.tx_latency);
        out << ",\n    \"commit_latency\": ";
        writeHistogram(out, trc.commit_latency);
        out << ",\n    \"read_set_size\": ";
        writeHistogram(out, trc.read_set_size);
        out << ",\n    \"write_set_size\": ";
        writeHistogram(out, trc.write_set_size);
        // Heatmap summary: the K hottest locks by cycles burned
        // waiting (ties: aborts caused, then index).
        struct Hot
        {
            u32 index;
            core::LockContention c;
        };
        std::vector<Hot> hot;
        for (u32 i = 0; i < trc.locks.size(); ++i)
            if (trc.locks[i].any())
                hot.push_back({i, trc.locks[i]});
        std::sort(hot.begin(), hot.end(), [](const Hot &a, const Hot &b) {
            if (a.c.wait_cycles != b.c.wait_cycles)
                return a.c.wait_cycles > b.c.wait_cycles;
            if (a.c.aborts_caused != b.c.aborts_caused)
                return a.c.aborts_caused > b.c.aborts_caused;
            return a.index < b.index;
        });
        constexpr size_t kTopLocks = 16;
        out << ",\n    \"locks_tracked\": " << hot.size()
            << ", \"hot_locks\": [";
        for (size_t i = 0; i < hot.size() && i < kTopLocks; ++i) {
            out << (i ? ", " : "") << "{\"lock\": " << hot[i].index
                << ", \"acquires\": " << hot[i].c.acquires
                << ", \"waits\": " << hot[i].c.waits
                << ", \"wait_cycles\": " << hot[i].c.wait_cycles
                << ", \"aborts_caused\": " << hot[i].c.aborts_caused
                << "}";
        }
        out << "]},\n";
    }

    mutable std::mutex mutex_;
    std::string path_;
    std::string bench_;
    std::vector<PerfRecord> records_;
    /** @{ Sums over records_. */
    core::StmStats stm_;
    sim::DpuStats dpu_;
    core::TraceTotals trace_;
    /** @} */
    std::map<std::string, std::string> extra_blocks_;
    bool registered_ = false;
};

/**
 * Collector behind --trace-out=FILE: every traced run is appended as
 * one Perfetto "process" (named after its sweep point) to a single
 * Chrome/Perfetto JSON array file, written incrementally and closed at
 * process exit. Load in https://ui.perfetto.dev or chrome://tracing;
 * format spec in docs/observability.md.
 */
class TraceFileWriter
{
  public:
    static TraceFileWriter &
    instance()
    {
        static TraceFileWriter w;
        return w;
    }

    void
    enable(const std::string &path)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (out_.is_open())
            return;
        out_.open(path);
        if (!out_) {
            std::cerr << "trace-out: cannot write " << path << "\n";
            return;
        }
        out_ << "[\n";
        if (!registered_) {
            registered_ = true;
            std::atexit([] { TraceFileWriter::instance().close(); });
        }
    }

    bool
    enabled() const
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return out_.is_open();
    }

    /** Append one run's trace as process @p process_name. Safe from
     * pool threads; each buffer is written atomically. */
    void
    add(const core::TraceBuffer &buf, const std::string &process_name)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!out_.is_open())
            return;
        buf.writePerfetto(out_, next_pid_++, process_name, first_);
    }

    /** Write the closing bracket; called automatically at exit. */
    void
    close()
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!out_.is_open())
            return;
        out_ << "\n]\n";
        out_.close();
    }

  private:
    mutable std::mutex mutex_;
    std::ofstream out_;
    bool first_ = true;
    u32 next_pid_ = 1;
    bool registered_ = false;
};

/** Command-line options shared by all harnesses. */
struct BenchOptions
{
    bool full = false;
    bool csv = false;
    unsigned seeds = 3;
    /** Host threads for the sweep; 0 = auto (PIMSTM_JOBS / all cores). */
    unsigned jobs = 0;
    /** Perf-artifact output file; empty = disabled. */
    std::string perf_json;
    /** Fault-injection plan from --faults= (empty = no injection). */
    sim::FaultPlan faults;
    /** Livelock watchdog budget from --watchdog-cycles= (0 = off). */
    Cycles watchdog_cycles = 0;
    /** Serial-irrevocable escalation threshold from --serial-fallback=
     * (0 = off, preserving the paper's algorithms unmodified). */
    unsigned serial_fallback = 0;
    /** Route structure operations through the boosted library
     * (--boosting=on|off; RunSpec::boosting, docs/boosting.md). */
    bool boosting = false;
    /** Durable transactions (--durable=on|off; RunSpec::durable,
     * docs/durability.md): persistently logged commits plus the
     * driver's whole-DPU crash-restart loop. */
    bool durable = false;
    /** Record traces (--trace, or implied by --trace-out=). */
    bool trace = false;
    /** Perfetto trace output file from --trace-out= (empty = none). */
    std::string trace_out;
    /** Per-run trace ring capacity from --trace-buf=. */
    size_t trace_buf = 4096;
    /**
     * @{ Static contention-knob starting points (README §flags). 0 in
     * backoff_base / cm_cycles means the flag was not given; passing
     * the defaults explicitly is bitwise identical to not passing the
     * flag (CI-gated).
     *
     *   --backoff=BASE:SHIFT  post-abort randomized backoff: base window
     *                 in cycles (>= 1) and the doubling cap as a shift
     *                 (window <= BASE << SHIFT, SHIFT <= 32). Defaults
     *                 16:12.
     *   --cm=POLLS:CYCLES  wait-on-contention manager: polls of a held
     *                 lock before aborting (0 = abort immediately) and
     *                 the per-poll wait in cycles (>= 1). Defaults 0:64.
     */
    Cycles backoff_base = 0;
    unsigned backoff_max_shift = 0;
    unsigned cm_polls = 0;
    Cycles cm_cycles = 0;
    /** @} */

    /** Hook for harness-specific flags: return true when the argument
     * was recognised and consumed. Checked before the unknown-flag
     * rejection, so harnesses can extend the common grammar. */
    using ExtraFlag = std::function<bool(const std::string &)>;

    /**
     * Parse @p argv; on a malformed or unknown flag, print a
     * diagnostic and exit(2) instead of silently continuing with a
     * configuration the user did not ask for. Also sizes the global
     * util::ThreadPool from --jobs / PIMSTM_JOBS, so harnesses need no
     * extra setup to run parallel sweeps.
     */
    static BenchOptions
    parse(int argc, char **argv, const ExtraFlag &extra = {})
    {
        BenchOptions o;
        if (const char *env = std::getenv("PIMSTM_FULL"))
            o.full = std::strcmp(env, "0") != 0;
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            // The value after the flag's '=' (all of a when it has none).
            const std::string v = a.substr(a.find('=') + 1);
            if (a == "--full")
                o.full = true;
            else if (a == "--quick")
                o.full = false;
            else if (a == "--csv")
                o.csv = true;
            else if (a.rfind("--seeds=", 0) == 0) {
                o.seeds = parseDecimal<unsigned>(argv[0], a, v);
                if (o.seeds == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--jobs=", 0) == 0) {
                o.jobs = parseDecimal<unsigned>(argv[0], a, v);
                if (o.jobs == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--perf-json=", 0) == 0) {
                o.perf_json = v;
                if (o.perf_json.empty())
                    usageError(argv[0], a, "expected a file name");
            } else if (a.rfind("--faults=", 0) == 0) {
                try {
                    o.faults = sim::FaultPlan::parse(v);
                } catch (const FatalError &e) {
                    usageError(argv[0], a, e.what());
                }
            } else if (a.rfind("--watchdog-cycles=", 0) == 0) {
                o.watchdog_cycles = parseDecimal<u64>(argv[0], a, v);
                if (o.watchdog_cycles == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--serial-fallback=", 0) == 0) {
                o.serial_fallback = parseDecimal<unsigned>(argv[0], a, v);
                if (o.serial_fallback == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--boosting=", 0) == 0) {
                if (v == "on")
                    o.boosting = true;
                else if (v == "off")
                    o.boosting = false;
                else
                    usageError(argv[0], a, "expected on or off");
            } else if (a.rfind("--durable=", 0) == 0) {
                if (v == "on")
                    o.durable = true;
                else if (v == "off")
                    o.durable = false;
                else
                    usageError(argv[0], a, "expected on or off");
            } else if (a == "--trace") {
                o.trace = true;
            } else if (a.rfind("--trace-out=", 0) == 0) {
                o.trace_out = v;
                if (o.trace_out.empty())
                    usageError(argv[0], a, "expected a file name");
                o.trace = true;
            } else if (a.rfind("--trace-buf=", 0) == 0) {
                o.trace_buf = parseDecimal<u64>(argv[0], a, v);
                if (o.trace_buf == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--backoff=", 0) == 0) {
                const auto [base, shift] = parsePair(argv[0], a, v);
                if (base == 0)
                    usageError(argv[0], a, "BASE must be at least 1");
                if (shift > 32)
                    usageError(argv[0], a, "SHIFT must be at most 32");
                o.backoff_base = base;
                o.backoff_max_shift = static_cast<unsigned>(shift);
            } else if (a.rfind("--cm=", 0) == 0) {
                const auto [polls, cycles] = parsePair(argv[0], a, v);
                if (cycles == 0)
                    usageError(argv[0], a, "CYCLES must be at least 1");
                o.cm_polls = static_cast<unsigned>(polls);
                o.cm_cycles = cycles;
            } else if (extra && extra(a)) {
                // consumed by the harness-specific hook
            } else
                usageError(argv[0], a, "unknown option");
        }
        util::ThreadPool::setGlobalJobs(o.jobs);
        if (!o.perf_json.empty()) {
            std::string prog = argv && argv[0] ? argv[0] : "bench";
            const auto slash = prog.find_last_of('/');
            if (slash != std::string::npos)
                prog = prog.substr(slash + 1);
            PerfReporter::instance().enable(o.perf_json, prog);
        }
        if (!o.trace_out.empty())
            TraceFileWriter::instance().enable(o.trace_out);
        return o;
    }

    /** Copy the robustness and contention-knob flags into a RunSpec
     * (sweep base config). */
    void
    applyTo(runtime::RunSpec &spec) const
    {
        spec.faults = faults;
        if (boosting)
            spec.boosting = true;
        if (durable)
            spec.durable = true;
        if (watchdog_cycles != 0)
            spec.watchdog_cycles = watchdog_cycles;
        if (serial_fallback != 0)
            spec.serial_fallback_override = serial_fallback;
        if (trace) {
            spec.trace = true;
            spec.trace_buffer_capacity = trace_buf;
        }
        if (backoff_base != 0) {
            spec.abort_backoff_base_override = backoff_base;
            spec.abort_backoff_max_shift_override =
                static_cast<int>(backoff_max_shift);
        }
        if (cm_cycles != 0) {
            spec.cm_wait_polls_override = static_cast<int>(cm_polls);
            spec.cm_wait_cycles_override = cm_cycles;
        }
    }

  private:
    [[noreturn]] static void
    usageError(const char *prog, const std::string &arg,
               const char *why)
    {
        std::cerr << (prog ? prog : "bench") << ": invalid option '"
                  << arg << "': " << why << "\n";
        std::exit(2);
    }

    /** Strict decimal parse of @p v, the value (or one half of the
     * A:B value) of the argument @p arg. */
    template <typename T>
    static T
    parseDecimal(const char *prog, const std::string &arg,
                 const std::string &v)
    {
        T out = 0;
        const char *last = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(v.data(), last, out);
        if (v.empty() || ec != std::errc() || ptr != last)
            usageError(prog, arg,
                       "expected an unsigned decimal integer");
        return out;
    }

    /** Strict A:B decimal parse of @p v, the value of @p arg. */
    static std::pair<u64, u64>
    parsePair(const char *prog, const std::string &arg,
              const std::string &v)
    {
        const auto colon = v.find(':');
        if (colon == std::string::npos)
            usageError(prog, arg, "expected A:B");
        return {parseDecimal<u64>(prog, arg, v.substr(0, colon)),
                parseDecimal<u64>(prog, arg, v.substr(colon + 1))};
    }
};

/**
 * Run a harness body with the robustness layer's failure protocol: a
 * WatchdogError (deadlock / livelock verdict) prints its structured
 * diagnostic dump to stderr and exits with sim::kWatchdogExitCode (3),
 * distinct from generic failure (1) and usage errors (2), so CI and
 * scripts can tell "the workload wedged" from "the harness broke".
 */
inline int
guardedMain(const std::function<int()> &body)
{
    try {
        return body();
    } catch (const sim::WatchdogError &e) {
        std::cerr << e.what();
        return sim::kWatchdogExitCode;
    } catch (const sim::DpuCrashError &e) {
        // A whole-DPU crash outside durable mode is unrecoverable by
        // design: the run's data died with the DPU. Same "workload
        // died, harness fine" exit as the watchdog.
        std::cerr << "whole-DPU crash at cycle " << e.atCycle() << ": "
                  << e.what()
                  << "\n(run with --durable=on to recover; "
                     "docs/durability.md)\n";
        return sim::kWatchdogExitCode;
    }
}

/** Aggregated multi-seed result at one sweep point. */
struct PointResult
{
    core::StmKind kind{};
    core::MetadataTier tier{};
    unsigned tasklets = 0;

    bool runnable = true;        ///< false when WRAM placement failed
    double throughput_mean = 0;  ///< committed tx/s
    double throughput_std = 0;
    double abort_rate_mean = 0;
    double app_ops_mean = 0;

    /** Mean share of busy cycles per phase. */
    std::array<double, sim::kNumPhases> phase_share{};

    /** Extra workload metrics, averaged. */
    std::map<std::string, double> extra;
};

using runtime::WorkloadFactory;

/**
 * Run one sweep point, averaging over @p seeds seeds. Seed replicas
 * run concurrently on the global pool (inline when this is itself
 * called from a parallel sweep); aggregation walks the outcomes in
 * seed order, so the result is identical to the old serial loop.
 */
inline PointResult
runPoint(const WorkloadFactory &factory, core::StmKind kind,
         core::MetadataTier tier, unsigned tasklets, unsigned seeds,
         const runtime::RunSpec &base = {})
{
    PointResult pr;
    pr.kind = kind;
    pr.tier = tier;
    pr.tasklets = tasklets;

    std::vector<runtime::RunSpec> specs(seeds, base);
    for (unsigned s = 0; s < seeds; ++s) {
        specs[s].kind = kind;
        specs[s].tier = tier;
        specs[s].tasklets = tasklets;
        specs[s].seed = base.seed + s * 7919;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcomes = runtime::runWorkloadMany(factory, specs);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    PerfRecord rec;
    rec.label = std::string(core::stmKindName(kind)) + "/" +
                core::metadataTierName(tier) + "/t" +
                std::to_string(tasklets) +
                (base.boosting ? "/boosted" : "") +
                (base.adaptive.enabled ? "/adaptive" : "") +
                (base.durable ? "/durable" : "");
    rec.wall_s = wall_s;

    std::vector<double> tputs, aborts, apps;
    std::array<std::vector<double>, sim::kNumPhases> shares;
    std::map<std::string, std::vector<double>> extras;
    for (size_t s = 0; s < outcomes.size(); ++s) {
        const auto &o = outcomes[s];
        if (!o.ok) {
            // Infeasible configuration (e.g. WRAM metadata that does
            // not fit): the paper marks these "not runnable".
            pr.runnable = false;
            return pr;
        }
        const auto &r = o.result;
        tputs.push_back(r.throughput);
        aborts.push_back(r.abort_rate);
        apps.push_back(r.app_ops_per_sec);
        for (size_t p = 0; p < sim::kNumPhases; ++p)
            shares[p].push_back(r.phase_share[p]);
        for (const auto &[k, v] : r.extra)
            extras[k].push_back(v);
        rec.stm += r.stm;
        rec.dpu += r.dpu;
        if (r.trace) {
            rec.traces.push_back(r.trace);
            TraceFileWriter::instance().add(
                *r.trace, rec.label + "/seed" + std::to_string(s));
        }
    }
    pr.throughput_mean = mean(tputs);
    pr.throughput_std = stddev(tputs);
    pr.abort_rate_mean = mean(aborts);
    pr.app_ops_mean = mean(apps);
    for (size_t p = 0; p < sim::kNumPhases; ++p)
        pr.phase_share[p] = mean(shares[p]);
    for (auto &[k, v] : extras)
        pr.extra[k] = mean(v);
    PerfReporter::instance().record(std::move(rec));
    return pr;
}

/** runtime::runWorkload, timed: returns the host seconds it took and
 * leaves the result in @p out. */
inline double
timedRun(runtime::Workload &wl, const runtime::RunSpec &spec,
         runtime::RunResult &out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out = runtime::runWorkload(wl, spec);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Record one run as its own --perf-json point. */
inline void
recordRun(const std::string &label, double wall_s,
          const runtime::RunResult &r)
{
    PerfRecord rec;
    rec.label = label;
    rec.wall_s = wall_s;
    rec.stm = r.stm;
    rec.dpu = r.dpu;
    if (r.trace)
        rec.traces.push_back(r.trace);
    PerfReporter::instance().record(std::move(rec));
}

/** Default tasklet-count series used by the figures. */
inline std::vector<unsigned>
taskletSeries(bool full)
{
    if (full)
        return {1, 2, 4, 6, 8, 11, 16, 20, 24};
    return {1, 2, 4, 8, 11, 16};
}

/**
 * Sweep all STM kinds over the tasklet series and print a throughput /
 * abort-rate / breakdown table, one row per (kind, tasklets).
 *
 * The (kind, tasklets) points fan out over the global thread pool;
 * each point writes its PointResult into a slot indexed by its sweep
 * position, and the table is rendered serially after the barrier, so
 * row order and contents are independent of the job count.
 */
inline std::vector<PointResult>
sweepKinds(const std::string &title, const WorkloadFactory &factory,
           core::MetadataTier tier, const BenchOptions &opt,
           const runtime::RunSpec &base = {})
{
    struct SweepPoint
    {
        core::StmKind kind;
        unsigned tasklets;
    };
    std::vector<SweepPoint> points;
    for (core::StmKind kind : core::allStmKinds())
        for (unsigned t : taskletSeries(opt.full))
            points.push_back({kind, t});

    runtime::RunSpec spec_base = base;
    opt.applyTo(spec_base);

    std::vector<PointResult> results(points.size());
    util::parallelFor(points.size(), [&](size_t i) {
        results[i] = runPoint(factory, points[i].kind, tier,
                              points[i].tasklets, opt.seeds, spec_base);
    });

    Table table({"stm", "tasklets", "tput_tx_per_s", "stddev",
                 "abort_rate", "read%", "write%", "validate%", "commit%",
                 "wasted%", "other%"});
    for (size_t i = 0; i < points.size(); ++i) {
        const PointResult &pr = results[i];
        table.newRow()
            .cell(core::stmKindName(points[i].kind))
            .cell(points[i].tasklets);
        if (!pr.runnable) {
            for (int c = 0; c < 9; ++c)
                table.cell("n/a");
            continue;
        }
        auto share = [&](sim::Phase p) {
            return 100.0 * pr.phase_share[static_cast<size_t>(p)];
        };
        table.cell(pr.throughput_mean, 1)
            .cell(pr.throughput_std, 1)
            .cell(pr.abort_rate_mean, 4)
            .cell(share(sim::Phase::TxRead), 1)
            .cell(share(sim::Phase::TxWrite), 1)
            .cell(share(sim::Phase::TxValidate), 1)
            .cell(share(sim::Phase::TxCommit), 1)
            .cell(share(sim::Phase::Wasted), 1)
            .cell(share(sim::Phase::TxOther) +
                      share(sim::Phase::NonTx) +
                      share(sim::Phase::TxStart),
                  1);
    }
    std::cout << "== " << title << " (metadata "
              << core::metadataTierName(tier) << ") ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    std::cout << "\n";
    return results;
}

/** Peak throughput over the tasklet series for one (kind, tier). */
inline double
peakThroughput(const std::vector<PointResult> &results,
               core::StmKind kind, core::MetadataTier tier)
{
    double best = 0;
    for (const auto &r : results)
        if (r.kind == kind && r.tier == tier && r.runnable)
            best = std::max(best, r.throughput_mean);
    return best;
}

} // namespace pimstm::bench

#endif // PIMSTM_BENCH_COMMON_HH
