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
#include <vector>

#include "runtime/dpu_pool.hh"
#include "runtime/driver.hh"
#include "runtime/shared_array.hh"
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
 * One timed unit of host work for the perf artifact: a sweep point of
 * a figure harness, or a micro_sched scenario. Wall-clock is host time
 * and therefore machine-dependent and non-deterministic — it is only
 * ever written to the perf JSON, never to the simulated CSV output.
 */
struct PerfRecord
{
    std::string bench; ///< harness name (argv[0] basename)
    std::string label; ///< sweep point / scenario label
    double wall_s = 0; ///< host seconds spent on this unit
    double sim_cycles = 0;  ///< simulated cycles produced
    u64 sched_switches = 0; ///< fiber switches performed
    u64 sched_elisions = 0; ///< switches elided by the scheduler
};

/**
 * Collector behind --perf-json=FILE: sweep points record their
 * wall-clock and simulated-cycle throughput as they finish (from any
 * pool thread), and the file is written once at process exit. CI
 * uploads it as the non-gating BENCH_sim.json artifact, so the
 * simulator's host-performance trajectory is tracked per commit.
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

    bool
    enabled() const
    {
        std::lock_guard<std::mutex> lk(mutex_);
        return !path_.empty();
    }

    void
    record(PerfRecord r)
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (path_.empty())
            return;
        if (r.bench.empty())
            r.bench = bench_;
        records_.push_back(std::move(r));
    }

    /** Attach a named top-level JSON block (@p json must be one JSON
     * value, e.g. the `distributed` object from twoPcStatsJson).
     * Written once, between the trace block and the totals; unknown
     * blocks are ignored by scripts/check_perf_json.py's gate. */
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
        double wall = 0, cycles = 0;
        u64 switches = 0, elisions = 0;
        for (const auto &r : records_) {
            wall += r.wall_s;
            cycles += r.sim_cycles;
            switches += r.sched_switches;
            elisions += r.sched_elisions;
        }
        const auto pool = runtime::DpuPool::global().stats();
        const auto idx = core::txIndexTotals();
        const auto flt = sim::faultTotals();
        const auto trc = core::traceTotals();
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
            << "\"injected_stalls\": " << flt.injected_stalls
            << ", \"injected_acq_delays\": " << flt.injected_acq_delays
            << ", \"tasklet_crashes\": " << flt.tasklet_crashes
            << ", \"injected_aborts\": " << flt.injected_aborts
            << ", \"escalations\": " << flt.escalations
            << ", \"serial_commits\": " << flt.serial_commits << "}},\n";
        if (trc.runs > 0)
            writeTraceBlock(out, trc);
        const auto bst = core::boostedTotals();
        if (bst.acquires != 0 || bst.waits != 0 ||
            bst.semantic_undos != 0) {
            out << "  \"boosted\": {\"acquires\": " << bst.acquires
                << ", \"waits\": " << bst.waits
                << ", \"semantic_undos\": " << bst.semantic_undos
                << ", \"false_conflicts_avoided\": "
                << bst.false_conflicts_avoided << "},\n";
        }
        const auto dur = core::durableTotals();
        if (dur.flush_fences != 0 || dur.recoveries != 0 ||
            dur.log_appends != 0) {
            out << "  \"durable\": {\"log_bytes\": " << dur.log_bytes
                << ", \"log_appends\": " << dur.log_appends
                << ", \"flush_fences\": " << dur.flush_fences
                << ", \"durable_commits\": " << dur.durable_commits
                << ", \"recoveries\": " << dur.recoveries
                << ", \"log_redone\": " << dur.log_redone
                << ", \"log_undone\": " << dur.log_undone
                << ", \"log_discarded\": " << dur.log_discarded
                << ", \"torn_logs\": " << dur.torn_logs << "},\n";
        }
        for (const auto &[name, json] : extra_blocks_)
            out << "  \"" << escape(name) << "\": " << json << ",\n";
        out << "  \"totals\": {"
            << "\"wall_s\": " << wall
            << ", \"sim_cycles\": " << cycles
            << ", \"sim_cycles_per_wall_s\": "
            << (wall > 0 ? cycles / wall : 0)
            << ", \"sched_switches\": " << switches
            << ", \"sched_elisions\": " << elisions << "},\n"
            << "  \"points\": [\n";
        for (size_t i = 0; i < records_.size(); ++i) {
            const auto &r = records_[i];
            out << "    {\"bench\": \"" << escape(r.bench)
                << "\", \"label\": \"" << escape(r.label)
                << "\", \"wall_s\": " << r.wall_s
                << ", \"sim_cycles\": " << r.sim_cycles
                << ", \"sim_cycles_per_wall_s\": "
                << (r.wall_s > 0 ? r.sim_cycles / r.wall_s : 0)
                << ", \"sched_switches\": " << r.sched_switches
                << ", \"sched_elisions\": " << r.sched_elisions << "}"
                << (i + 1 < records_.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        path_.clear(); // write once
    }

  private:
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

/**
 * Contention-knob flags (README §flags), part of the common grammar:
 * BenchOptions::parse consumes them for every harness and
 * BenchOptions::applyTo copies them into the sweep base. tryParse()
 * keeps the ExtraFlag hook shape so a harness with its own parser can
 * reuse it standalone.
 *
 *   --backoff=BASE:SHIFT  post-abort randomized backoff: base window
 *                 in cycles (>= 1) and the doubling cap as a shift
 *                 (window <= BASE << SHIFT). Defaults 16:12.
 *   --cm=POLLS:CYCLES  wait-on-contention manager: polls of a held
 *                 lock before aborting (0 = abort immediately) and the
 *                 per-poll wait in cycles (>= 1). Defaults 0:64.
 *
 * Malformed values print a diagnostic and exit(2), exactly like the
 * common flags. Passing the defaults explicitly is bitwise identical
 * to not passing the flag (CI-gated).
 */
struct KnobFlags
{
    /** @{ --backoff=BASE:SHIFT (set = the flag was given). */
    bool backoff_set = false;
    Cycles backoff_base = 0;
    unsigned backoff_max_shift = 0;
    /** @} */

    /** @{ --cm=POLLS:CYCLES. */
    bool cm_set = false;
    unsigned cm_polls = 0;
    Cycles cm_cycles = 0;
    /** @} */

    /** ExtraFlag hook body: consume --backoff=/--cm= (exit 2 when
     * malformed), return false on anything else. */
    bool
    tryParse(const char *prog, const std::string &a)
    {
        if (a.rfind("--backoff=", 0) == 0) {
            u64 base = 0, shift = 0;
            parsePair(prog, a, "--backoff=", base, shift);
            if (base == 0)
                knobError(prog, a, "BASE must be at least 1");
            if (shift > 32)
                knobError(prog, a, "SHIFT must be at most 32");
            backoff_set = true;
            backoff_base = base;
            backoff_max_shift = static_cast<unsigned>(shift);
            return true;
        }
        if (a.rfind("--cm=", 0) == 0) {
            u64 polls = 0, cycles = 0;
            parsePair(prog, a, "--cm=", polls, cycles);
            if (cycles == 0)
                knobError(prog, a, "CYCLES must be at least 1");
            cm_set = true;
            cm_polls = static_cast<unsigned>(polls);
            cm_cycles = cycles;
            return true;
        }
        return false;
    }

    /** Copy the given knobs into a RunSpec (sweep base config). */
    void
    applyTo(runtime::RunSpec &spec) const
    {
        if (backoff_set) {
            spec.abort_backoff_base_override = backoff_base;
            spec.abort_backoff_max_shift_override =
                static_cast<int>(backoff_max_shift);
        }
        if (cm_set) {
            spec.cm_wait_polls_override = static_cast<int>(cm_polls);
            spec.cm_wait_cycles_override = cm_cycles;
        }
    }

  private:
    [[noreturn]] static void
    knobError(const char *prog, const std::string &arg, const char *why)
    {
        std::cerr << (prog ? prog : "bench") << ": invalid option '"
                  << arg << "': " << why << "\n";
        std::exit(2);
    }

    /** Strict A:B decimal parse of the value after @p prefix. */
    static void
    parsePair(const char *prog, const std::string &arg,
              const char *prefix, u64 &first_out, u64 &second_out)
    {
        const std::string v = arg.substr(std::strlen(prefix));
        const auto colon = v.find(':');
        if (colon == std::string::npos)
            knobError(prog, arg, "expected A:B");
        auto parseOne = [&](const std::string &s, u64 &out) {
            const char *first = s.data();
            const char *last = s.data() + s.size();
            const auto [ptr, ec] = std::from_chars(first, last, out);
            if (s.empty() || ec != std::errc() || ptr != last)
                knobError(prog, arg,
                          "expected an unsigned decimal integer");
        };
        parseOne(v.substr(0, colon), first_out);
        parseOne(v.substr(colon + 1), second_out);
    }
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
    /** Static contention-knob starting points (--backoff=, --cm=). */
    KnobFlags knobs;

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
            if (a == "--full")
                o.full = true;
            else if (a == "--quick")
                o.full = false;
            else if (a == "--csv")
                o.csv = true;
            else if (a.rfind("--seeds=", 0) == 0) {
                o.seeds = parseUnsigned(argv[0], a, "--seeds=");
                if (o.seeds == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--jobs=", 0) == 0) {
                o.jobs = parseUnsigned(argv[0], a, "--jobs=");
                if (o.jobs == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--perf-json=", 0) == 0) {
                o.perf_json = a.substr(std::strlen("--perf-json="));
                if (o.perf_json.empty())
                    usageError(argv[0], a, "expected a file name");
            } else if (a.rfind("--faults=", 0) == 0) {
                try {
                    o.faults = sim::FaultPlan::parse(
                        a.substr(std::strlen("--faults=")));
                } catch (const FatalError &e) {
                    usageError(argv[0], a, e.what());
                }
            } else if (a.rfind("--watchdog-cycles=", 0) == 0) {
                o.watchdog_cycles =
                    parseU64(argv[0], a, "--watchdog-cycles=");
                if (o.watchdog_cycles == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--serial-fallback=", 0) == 0) {
                o.serial_fallback =
                    parseUnsigned(argv[0], a, "--serial-fallback=");
                if (o.serial_fallback == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (a.rfind("--boosting=", 0) == 0) {
                const std::string v =
                    a.substr(std::strlen("--boosting="));
                if (v == "on")
                    o.boosting = true;
                else if (v == "off")
                    o.boosting = false;
                else
                    usageError(argv[0], a, "expected on or off");
            } else if (a.rfind("--durable=", 0) == 0) {
                const std::string v =
                    a.substr(std::strlen("--durable="));
                if (v == "on")
                    o.durable = true;
                else if (v == "off")
                    o.durable = false;
                else
                    usageError(argv[0], a, "expected on or off");
            } else if (a == "--trace") {
                o.trace = true;
            } else if (a.rfind("--trace-out=", 0) == 0) {
                o.trace_out = a.substr(std::strlen("--trace-out="));
                if (o.trace_out.empty())
                    usageError(argv[0], a, "expected a file name");
                o.trace = true;
            } else if (a.rfind("--trace-buf=", 0) == 0) {
                o.trace_buf = parseU64(argv[0], a, "--trace-buf=");
                if (o.trace_buf == 0)
                    usageError(argv[0], a, "must be at least 1");
            } else if (o.knobs.tryParse(argv[0], a)) {
                // common contention knobs (--backoff=, --cm=)
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

    /** Copy the robustness flags into a RunSpec (sweep base config). */
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
        knobs.applyTo(spec);
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

    /** Strict decimal parse of the value after @p prefix. */
    static unsigned
    parseUnsigned(const char *prog, const std::string &arg,
                  const char *prefix)
    {
        const std::string v = arg.substr(std::strlen(prefix));
        unsigned out = 0;
        const char *first = v.data();
        const char *last = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(first, last, out);
        if (v.empty() || ec != std::errc() || ptr != last)
            usageError(prog, arg,
                       "expected an unsigned decimal integer");
        return out;
    }

    /** Strict 64-bit decimal parse of the value after @p prefix. */
    static u64
    parseU64(const char *prog, const std::string &arg,
             const char *prefix)
    {
        const std::string v = arg.substr(std::strlen(prefix));
        u64 out = 0;
        const char *first = v.data();
        const char *last = v.data() + v.size();
        const auto [ptr, ec] = std::from_chars(first, last, out);
        if (v.empty() || ec != std::errc() || ptr != last)
            usageError(prog, arg,
                       "expected an unsigned decimal integer");
        return out;
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

    /** @{ Host-perf bookkeeping for --perf-json (summed over seeds;
     * never printed to the simulated tables/CSV). */
    double sim_cycles_total = 0;
    u64 sched_switches_total = 0;
    u64 sched_elisions_total = 0;
    /** @} */
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

    const std::string point_label =
        std::string(core::stmKindName(kind)) + "/" +
        core::metadataTierName(tier) + "/t" + std::to_string(tasklets) +
        (base.boosting ? "/boosted" : "") +
        (base.adaptive.enabled ? "/adaptive" : "") +
        (base.durable ? "/durable" : "");

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
        pr.sim_cycles_total += static_cast<double>(r.dpu.total_cycles);
        pr.sched_switches_total += r.dpu.sched_switches;
        pr.sched_elisions_total += r.dpu.sched_elisions;
        if (r.trace && TraceFileWriter::instance().enabled()) {
            TraceFileWriter::instance().add(
                *r.trace, point_label + "/seed" + std::to_string(s));
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

    if (PerfReporter::instance().enabled()) {
        PerfRecord rec;
        rec.label = point_label;
        rec.wall_s = wall_s;
        rec.sim_cycles = pr.sim_cycles_total;
        rec.sched_switches = pr.sched_switches_total;
        rec.sched_elisions = pr.sched_elisions_total;
        PerfReporter::instance().record(std::move(rec));
    }
    return pr;
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

/** Parameters shaping a PhasedWorkload instance. */
struct PhasedParams
{
    /** Words in the large read/scan region. */
    u32 large_words = 8192;
    /** Words in the tiny contended RMW region. */
    u32 hot_words = 8;

    /** @{ Phase 1 — read-heavy, low contention. */
    u32 read_txs = 40;  ///< transactions per tasklet
    u32 read_ops = 40;  ///< random reads per transaction
    /** @} */

    /** @{ Phase 2 — high-contention writes on the hot region. */
    u32 write_txs = 120;
    u32 rmw_ops = 4;
    /** @} */

    /** @{ Phase 3 — scans with sparse updates: long read sets plus a
     * few random-word RMWs. The writers make this the regime where
     * value-validation STMs (NOrec) revalidate whole scans per
     * concurrent commit while per-word-lock kinds are untouched. */
    u32 scan_txs = 16;
    u32 scan_ops = 128;
    u32 scan_rmw = 2;
    /** @} */

    static PhasedParams
    quick()
    {
        return {};
    }

    static PhasedParams
    full()
    {
        PhasedParams p;
        p.read_txs = 120;
        p.write_txs = 400;
        p.scan_txs = 40;
        return p;
    }

    u32 totalWords() const { return large_words + hot_words; }
};

/**
 * The phased workload behind bench/ablation_adaptive: each tasklet
 * runs three back-to-back phases whose contention regimes differ —
 * read-heavy random reads over a large region, then tiny
 * read-modify-write transactions on a hot region (high contention),
 * then long scans with sparse random-word updates. No single static
 * configuration is right for all three, which is what the epoch
 * controller exploits (docs/adaptive.md).
 *
 * Invariant: every write is a +1 RMW on some word, so
 *     sum(array) == phase-2 commits x rmw_ops
 *                 + phase-3 commits x scan_rmw.
 */
class PhasedWorkload : public runtime::Workload
{
  public:
    explicit PhasedWorkload(const PhasedParams &params)
        : params_(params)
    {}

    const char *name() const override { return "Phased"; }

    void
    configure(core::StmConfig &cfg) const override
    {
        cfg.max_read_set =
            std::max({params_.read_ops,
                      params_.scan_ops + params_.scan_rmw,
                      params_.rmw_ops}) +
            8;
        cfg.max_write_set =
            std::max(params_.rmw_ops, params_.scan_rmw) + 8;
        cfg.data_words_hint = params_.totalWords();
    }

    void
    setup(sim::Dpu &dpu, core::Stm &) override
    {
        array_ = runtime::SharedArray32(dpu, sim::Tier::Mram,
                                        params_.totalWords());
        array_.fill(dpu, 0);
        rmw_commits_ = 0;
        scan_commits_ = 0;
    }

    void
    tasklet(sim::DpuContext &ctx, core::Stm &stm) override
    {
        // Phase 1: read-heavy over the large region.
        for (u32 t = 0; t < params_.read_txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                for (u32 i = 0; i < params_.read_ops; ++i) {
                    const u32 idx = static_cast<u32>(
                        ctx.rng().below(params_.large_words));
                    tx.read(array_.at(idx));
                }
            });
        }
        // Phase 2: contended RMWs on the hot region.
        for (u32 t = 0; t < params_.write_txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                for (u32 i = 0; i < params_.rmw_ops; ++i) {
                    const u32 idx = params_.large_words +
                        static_cast<u32>(
                            ctx.rng().below(params_.hot_words));
                    const u32 v = tx.read(array_.at(idx));
                    tx.write(array_.at(idx), v + 1);
                }
            });
            // Tasklets are fibers of one simulated DPU: no host race.
            ++rmw_commits_;
        }
        // Phase 3: long scans with a few sparse random-word updates —
        // the concurrent writers force value-validation kinds to
        // revalidate whole scans while per-word locks see no conflict.
        for (u32 t = 0; t < params_.scan_txs; ++t) {
            core::atomically(stm, ctx, [&](core::TxHandle &tx) {
                const u32 span = params_.large_words > params_.scan_ops
                    ? params_.large_words - params_.scan_ops
                    : 1;
                const u32 start =
                    static_cast<u32>(ctx.rng().below(span));
                for (u32 i = 0; i < params_.scan_ops; ++i)
                    tx.read(array_.at(start + i));
                for (u32 i = 0; i < params_.scan_rmw; ++i) {
                    const u32 idx = static_cast<u32>(
                        ctx.rng().below(params_.large_words));
                    const u32 v = tx.read(array_.at(idx));
                    tx.write(array_.at(idx), v + 1);
                }
            });
            ++scan_commits_;
        }
    }

    void
    verify(sim::Dpu &dpu, core::Stm &) override
    {
        u64 sum = 0;
        for (u32 i = 0; i < params_.totalWords(); ++i)
            sum += array_.peek(dpu, i);
        const u64 expected =
            rmw_commits_ * static_cast<u64>(params_.rmw_ops) +
            scan_commits_ * static_cast<u64>(params_.scan_rmw);
        fatalIf(sum != expected, "PhasedWorkload invariant broken: sum ",
                sum, " != committed RMW count ", expected);
    }

  private:
    PhasedParams params_;
    runtime::SharedArray32 array_;
    u64 rmw_commits_ = 0;
    u64 scan_commits_ = 0;
};

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
