#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

namespace
{

u64
quantileRank(u64 n, u64 num, u64 den)
{
    return std::max<u64>(1, (n * num + den - 1) / den);
}

template <typename... Args>
[[noreturn]] void
fail(const Args &...args)
{
    std::ostringstream os;
    os << "latency ledger: ";
    (os << ... << args);
    throw std::runtime_error(os.str());
}

/** Tolerance of the reconstruction: the completion instant is known to
 * within its 1 ns window, and the harness rounds to whole ns. */
constexpr double kSlackS = 2e-9;

} // namespace

std::optional<u64>
LatencyLedger::quantileNs(u64 num, u64 den) const
{
    if (offered == 0)
        return std::nullopt;
    const u64 rank = quantileRank(offered, num, den);
    if (rank > latency_ns.size())
        return std::nullopt; // lands on a shed request
    return latency_ns[rank - 1];
}

u64
LatencyLedger::beyond(u64 num, u64 den) const
{
    return offered == 0 ? 0 : offered - quantileRank(offered, num, den);
}

pimstm::runtime::ServingConfig
ledgerServingConfig()
{
    pimstm::runtime::ServingConfig c; // harness defaults otherwise
    c.timeline_window_s = 1e-9;
    c.max_timeline_points = std::numeric_limits<u32>::max();
    return c;
}

LatencyLedger
reconstructLatency(const pimstm::runtime::ServingReport &report,
                   const std::vector<pimstm::runtime::ServingRequest> &stream,
                   const std::vector<RoundRecord> &rounds)
{
    LatencyLedger led;
    led.offered = report.offered;
    led.shed = report.shed;
    led.latency_ns.reserve(report.completed);
    if (rounds.size() != report.rounds)
        fail("backend saw ", rounds.size(), " rounds, harness reports ",
             report.rounds);

    size_t k = 0;
    for (const pimstm::runtime::TimelinePoint &pt : report.timeline) {
        if (pt.completed == 0)
            continue; // a window holding only sheds
        if (k >= rounds.size())
            fail("more completion instants than rounds");
        const RoundRecord &r = rounds[k++];
        if (pt.completed != r.requests.size())
            fail("round ", k - 1, " carried ", r.requests.size(),
                 " requests, its timeline point completed ", pt.completed);
        // The round completed inside [t_end - 1 ns, t_end).
        const double done = pt.t_end_s - 0.5e-9;
        const double round_s = r.cost.round_seconds;
        for (size_t i = 0; i < r.requests.size(); ++i) {
            const u32 idx = r.requests[i];
            if (idx >= stream.size())
                fail("round names request ", idx, " beyond the stream");
            const double arrival = stream[idx].arrival_s;
            const double latency = done - arrival;
            const double service = r.cost.shard_busy_seconds.at(r.shards[i]);
            const double wait = done - round_s - arrival;
            const double overhead = round_s - service;
            if (wait < -kSlackS || service < 0 || overhead < -kSlackS)
                fail("request ", idx, " has a negative ledger part: wait ",
                     wait, " service ", service, " overhead ", overhead);
            const u64 ns = latency <= 0
                ? 0
                : static_cast<u64>(std::llround(latency * 1e9));
            if (std::fabs(wait + service + overhead
                          - static_cast<double>(ns) * 1e-9)
                > kSlackS)
                fail("ledger parts of request ", idx,
                     " do not sum to its latency");
            led.latency_ns.push_back(ns);
            led.wait_s += wait;
            led.service_s += service;
            led.overhead_s += overhead;
        }
    }
    if (k != rounds.size())
        fail(rounds.size() - k, " rounds have no completion instant");

    const u64 n = led.latency_ns.size();
    if (n != report.completed || n != report.e2e_ns.count)
        fail("reconstructed ", n, " completions, harness counted ",
             report.completed);
    u64 sum = 0;
    u64 max = 0;
    for (u64 v : led.latency_ns) {
        sum += v;
        max = std::max(max, v);
    }
    const u64 hmax = n ? report.e2e_ns.max : 0;
    const u64 sum_gap =
        sum > report.e2e_ns.sum ? sum - report.e2e_ns.sum
                                : report.e2e_ns.sum - sum;
    const u64 max_gap = max > hmax ? max - hmax : hmax - max;
    if (sum_gap > 2 * n || max_gap > 2)
        fail("reconstructed sum ", sum, " / max ", max,
             " ns differ from the harness's exact ", report.e2e_ns.sum,
             " / ", hmax);

    std::sort(led.latency_ns.begin(), led.latency_ns.end());
    led.last_arrival_s = stream.empty() ? 0.0 : stream.back().arrival_s;
    return led;
}

} // namespace perfbench
