/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's layers. A span has a name, a start, an end and the span
 * that was open when it started (its parent); round spans also carry
 * the stream indices of the requests they executed. Spans stay in
 * memory and are written out once, when the run ends.
 *
 * Spans are opened and closed on the benchmark's main thread only (the
 * layers it calls may fan out to host threads internally), so a stack
 * of open spans gives every span its parent. A disabled recorder reads
 * no clock and stores nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "util/types.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span
{
    std::string name;
    double start_s = 0.0; ///< seconds since the recorder was created
    double end_s = 0.0;
    int parent = -1;
    double child_s = 0.0; ///< summed duration of direct children
    std::vector<pimstm::u32> requests; ///< stream indices (round spans)
};

/** Per-name totals: a layer's host self time is its spans' self sum. */
struct SpanTotals
{
    pimstm::u64 count = 0;
    double total_s = 0.0;
    double self_s = 0.0; ///< duration minus direct child spans
    double max_s = 0.0;  ///< longest single span
};

class Spans
{
  public:
    explicit Spans(bool enabled = false)
        : enabled_(enabled), origin_(Clock::now())
    {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; -1 when disabled. */
    int open(const char *name);

    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    /** Record the stream indices a span executed. */
    void attachRequests(int id, std::vector<pimstm::u32> requests);

    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as JSON; returns false on an I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span for the lifetime of the scope. */
class SpanScope
{
  public:
    SpanScope(Spans &spans, const char *name)
        : spans_(spans), id_(spans.open(name))
    {}
    ~SpanScope() { spans_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    Spans &spans_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
