/**
 * @file
 * Open-loop serving harness implementation (see serving.hh and
 * docs/serving.md).
 */

#include "runtime/serving.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/logging.hh"

namespace pimstm::runtime
{

//
// ArrivalProcess
//

ArrivalProcess::ArrivalProcess(const ArrivalConfig &cfg, u64 seed)
    : cfg_(cfg), rng_(deriveSeed(seed, 0x41525256 /* "ARRV" */))
{
    panicIf(cfg.rate_per_s <= 0, "arrival rate must be positive");
    if (cfg_.kind == ArrivalKind::Bursty) {
        const double f = kBurstFraction;
        const double B = kBurstFactor;
        // Long-run mean rate (1-f)*normal + f*B*normal == rate_per_s.
        normal_rate_ = cfg_.rate_per_s / (1.0 - f + f * B);
        burst_rate_ = B * normal_rate_;
        // Fraction of time bursting f = dwell_b / (dwell_b + dwell_n).
        dwell_normal_s_ = kBurstDwellS * (1.0 - f) / f;
        bursting_ = false;
        state_end_s_ = exponential(dwell_normal_s_);
    }
}

double
ArrivalProcess::exponential(double mean)
{
    // Inverse-CDF; uniform() < 1 so log(1-u) is finite.
    return -mean * std::log(1.0 - rng_.uniform());
}

double
ArrivalProcess::next()
{
    if (cfg_.kind == ArrivalKind::Poisson) {
        now_ += exponential(1.0 / cfg_.rate_per_s);
        return now_;
    }
    // MMPP-2: exponential dwell means allow redrawing the residual
    // inter-arrival from scratch at each state switch (memorylessness).
    for (;;) {
        const double rate = bursting_ ? burst_rate_ : normal_rate_;
        const double candidate = now_ + exponential(1.0 / rate);
        if (candidate <= state_end_s_) {
            now_ = candidate;
            return now_;
        }
        now_ = state_end_s_;
        bursting_ = !bursting_;
        state_end_s_ = now_
            + exponential(bursting_ ? kBurstDwellS : dwell_normal_s_);
    }
}

//
// ZipfianGenerator
//

ZipfianGenerator::ZipfianGenerator(u64 n, double theta)
    : n_(n), theta_(theta)
{
    panicIf(n == 0, "Zipfian universe must be non-empty");
    panicIf(theta < 0 || theta >= 1, "zipf theta must be in [0,1)");
    if (theta_ == 0.0)
        return; // uniform
    alpha_ = 1.0 / (1.0 - theta_);
    double zetan = 0.0;
    for (u64 i = 1; i <= n_; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    zetan_ = zetan;
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_))
        / (1.0 - zeta2 / zetan_);
}

u64
ZipfianGenerator::next(Rng &rng)
{
    if (theta_ == 0.0)
        return rng.below(n_);
    // Gray et al. rejection-free inversion, as used by YCSB.
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const u64 rank = static_cast<u64>(
        static_cast<double>(n_)
        * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < n_ ? rank : n_ - 1;
}

//
// Stream generation
//

std::vector<ServingRequest>
makeStream(const StreamConfig &cfg, u64 count)
{
    panicIf(cfg.op_weights.empty(), "stream needs at least one op class");
    double weight_sum = 0.0;
    for (double w : cfg.op_weights) {
        panicIf(w < 0, "op weights must be non-negative");
        weight_sum += w;
    }
    panicIf(weight_sum <= 0, "op weights must sum > 0");

    // Independent derived streams: perturbing one axis (say the op
    // mix) leaves the others bit-identical.
    ArrivalProcess arrivals(cfg.arrival, deriveSeed(cfg.seed, 1));
    ZipfianGenerator zipf(cfg.keys, cfg.zipf_theta);
    Rng rank_rng(deriveSeed(cfg.seed, 2));
    Rng op_rng(deriveSeed(cfg.seed, 3));
    Rng value_rng(deriveSeed(cfg.seed, 4));

    std::vector<ServingRequest> stream;
    stream.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        ServingRequest r;
        r.arrival_s = arrivals.next();
        r.key = static_cast<u32>(zipf.next(rank_rng));
        double pick = op_rng.uniform() * weight_sum;
        u8 op = 0;
        for (size_t c = 0; c < cfg.op_weights.size(); ++c) {
            pick -= cfg.op_weights[c];
            if (pick < 0) {
                op = static_cast<u8>(c);
                break;
            }
        }
        r.op = op;
        r.value = static_cast<u32>(value_rng.next() >> 32);
        stream.push_back(r);
    }
    return stream;
}

//
// Percentiles
//

u64
histogramPercentile(const core::LogHistogram &h, double q)
{
    if (h.count == 0)
        return 0;
    panicIf(q <= 0 || q > 1, "percentile q must be in (0,1]");
    const u64 target = std::max<u64>(
        1, static_cast<u64>(
               std::ceil(q * static_cast<double>(h.count))));
    u64 cum = 0;
    for (size_t b = 0; b < core::LogHistogram::kBuckets; ++b) {
        cum += h.buckets[b];
        if (cum >= target) {
            // Inclusive upper bound of bucket b: [2^(b-1), 2^b).
            return b == 0 ? 0 : (u64{1} << b) - 1;
        }
    }
    return h.max; // unreachable (cum == count >= target by then)
}

//
// The harness
//

namespace
{

u64
toNs(double seconds)
{
    return seconds <= 0
        ? 0
        : static_cast<u64>(std::llround(seconds * 1e9));
}

/** Per-window accumulation for the completion timeline. */
struct Window
{
    u64 completed = 0;
    u64 shed = 0;
    core::LogHistogram e2e_ns;
};

} // namespace

ServingReport
runServing(ServingBackend &backend,
           const std::vector<ServingRequest> &stream,
           const ServingConfig &cfg)
{
    const unsigned shards = backend.numShards();
    panicIf(shards == 0, "serving backend has no shards");
    panicIf(cfg.max_batch_per_shard == 0, "max_batch_per_shard must be >= 1");
    panicIf(cfg.queue_cap_per_shard < cfg.max_batch_per_shard,
            "queue cap below batch size would starve the batcher");
    panicIf(cfg.batch_budget_s < 0, "batch budget must be >= 0");

    ServingReport rep;
    rep.shards.resize(shards);

    std::vector<std::deque<u32>> queues(shards);
    std::map<u64, Window> windows;
    const double win = cfg.timeline_window_s > 0 ? cfg.timeline_window_s
                                                 : 5e-3;

    size_t next = 0; // first not-yet-admitted stream index
    u64 queued = 0;
    double clock = 0.0;

    // Admit stream[next] at its arrival time: route, bound-check,
    // shed on overflow.
    auto admitNext = [&]() {
        const ServingRequest &r = stream[next];
        const unsigned s = backend.shardOf(r);
        panicIf(s >= shards, "backend routed past its shard count");
        ++rep.offered;
        ++rep.shards[s].offered;
        if (queues[s].size() >= cfg.queue_cap_per_shard) {
            ++rep.shed;
            ++rep.shards[s].shed;
            ++windows[static_cast<u64>(r.arrival_s / win)].shed;
        } else {
            queues[s].push_back(static_cast<u32>(next));
            ++queued;
            rep.shards[s].peak_queue = std::max(
                rep.shards[s].peak_queue,
                static_cast<u32>(queues[s].size()));
        }
        ++next;
    };

    auto anyShardDispatchable = [&]() {
        for (unsigned s = 0; s < shards; ++s)
            if (queues[s].size() >= cfg.max_batch_per_shard)
                return true;
        return false;
    };

    while (next < stream.size() || queued > 0) {
        if (queued == 0)
            clock = std::max(clock, stream[next].arrival_s);

        // Admit everything that has arrived by now.
        while (next < stream.size()
               && stream[next].arrival_s <= clock)
            admitNext();
        if (queued == 0)
            continue; // everything admitted so far was shed; jump on

        // Pick the dispatch instant: as soon as a shard batch is
        // full, else when the oldest queued request's budget expires
        // — admitting (and possibly shedding) arrivals in between.
        if (!anyShardDispatchable()) {
            double oldest = 1e300;
            for (unsigned s = 0; s < shards; ++s)
                if (!queues[s].empty())
                    oldest = std::min(
                        oldest, stream[queues[s].front()].arrival_s);
            const double deadline = oldest + cfg.batch_budget_s;
            bool full = false;
            while (next < stream.size()
                   && stream[next].arrival_s <= deadline) {
                const double t = stream[next].arrival_s;
                admitNext();
                if (anyShardDispatchable()) {
                    clock = std::max(clock, t);
                    full = true;
                    break;
                }
            }
            if (!full)
                clock = std::max(clock, deadline);
        }

        // Form the round: up to max_batch_per_shard oldest per shard.
        std::vector<std::vector<ServingRequest>> batches(shards);
        for (unsigned s = 0; s < shards; ++s) {
            const size_t take = std::min<size_t>(
                queues[s].size(), cfg.max_batch_per_shard);
            if (take == 0)
                continue;
            batches[s].reserve(take);
            for (size_t k = 0; k < take; ++k) {
                batches[s].push_back(stream[queues[s].front()]);
                queues[s].pop_front();
            }
            queued -= take;
            ++rep.batches;
        }

        const RoundCost cost = backend.executeRound(batches);
        panicIf(cost.shard_busy_seconds.size() != shards,
                "backend cost must cover every shard");
        panicIf(cost.round_seconds < 0, "negative round cost");
        ++rep.rounds;
        rep.capacity_seconds
            += static_cast<double>(shards) * cost.round_seconds;

        const double done = clock + cost.round_seconds;
        for (unsigned s = 0; s < shards; ++s) {
            rep.shards[s].busy_seconds += cost.shard_busy_seconds[s];
            rep.busy_seconds += cost.shard_busy_seconds[s];
            if (batches[s].empty())
                continue;
            const double shard_done
                = clock + cost.shard_busy_seconds[s];
            Window &w = windows[static_cast<u64>(done / win)];
            for (const ServingRequest &r : batches[s]) {
                const u64 e2e = toNs(done - r.arrival_s);
                rep.e2e_ns.add(e2e);
                rep.shards[s].latency_ns.add(
                    toNs(shard_done - r.arrival_s));
                ++rep.completed;
                ++rep.shards[s].completed;
                ++w.completed;
                w.e2e_ns.add(e2e);
            }
        }
        clock = done;
        rep.makespan_s = std::max(rep.makespan_s, done);
    }

    panicIf(rep.offered != rep.completed + rep.shed,
            "serving conservation violated");
    panicIf(rep.offered != stream.size(), "stream not fully offered");

    // Collapse the window map into at most max_timeline_points
    // aggregated points.
    if (!windows.empty()) {
        const u64 cap = std::max<u32>(1, cfg.max_timeline_points);
        const u64 group
            = (windows.size() + cap - 1) / cap; // windows per point
        u64 idx = 0;
        TimelinePoint cur;
        core::LogHistogram cur_hist;
        for (const auto &[wi, w] : windows) {
            cur.completed += w.completed;
            cur.shed += w.shed;
            cur_hist.merge(w.e2e_ns);
            cur.t_end_s = static_cast<double>(wi + 1) * win;
            if (++idx % group == 0) {
                cur.p99_ns = histogramPercentile(cur_hist, 0.99);
                rep.timeline.push_back(cur);
                cur = TimelinePoint{};
                cur_hist = core::LogHistogram{};
            }
        }
        if (cur.completed > 0 || cur.shed > 0) {
            cur.p99_ns = histogramPercentile(cur_hist, 0.99);
            rep.timeline.push_back(cur);
        }
    }
    return rep;
}

//
// SLO + capacity search
//

bool
meetsSlo(const ServingReport &r, const SloSpec &slo)
{
    if (slo.require_zero_shed && r.shed > 0)
        return false;
    return static_cast<double>(histogramPercentile(r.e2e_ns, 0.99))
        <= slo.p99_s * 1e9;
}

CapacityResult
findCapacity(const std::function<ServingReport(double)> &run,
             const SloSpec &slo, double lo_rate, double max_rate)
{
    panicIf(lo_rate <= 0 || max_rate < lo_rate,
            "bad capacity search bracket");
    CapacityResult res;

    auto probe = [&](double rate) {
        ServingReport r = run(rate);
        CapacityProbe p;
        p.rate_per_s = rate;
        p.ok = meetsSlo(r, slo);
        p.p99_ns = histogramPercentile(r.e2e_ns, 0.99);
        p.shed = r.shed;
        p.throughput_per_s = r.throughputPerSec();
        res.probes.push_back(p);
        if (p.ok && rate > res.capacity_per_s) {
            res.capacity_per_s = rate;
            res.at_capacity = std::move(r);
        }
        return p.ok;
    };

    if (!probe(lo_rate))
        return res; // even the floor violates the SLO

    // Geometric expansion to bracket the knee.
    double good = lo_rate;
    double bad = 0.0;
    for (double rate = lo_rate * 2; rate <= max_rate; rate *= 2) {
        if (probe(rate)) {
            good = rate;
        } else {
            bad = rate;
            break;
        }
    }
    if (bad == 0.0)
        return res; // SLO held all the way to max_rate

    // Bisection.
    for (unsigned i = 0; i < kCapacityRefineIters; ++i) {
        const double mid = 0.5 * (good + bad);
        if (probe(mid))
            good = mid;
        else
            bad = mid;
    }
    return res;
}

//
// JSON
//

namespace
{

void
appendHistogramJson(std::ostringstream &o, const core::LogHistogram &h)
{
    o << "{\"count\": " << h.count << ", \"mean_ns\": " << h.mean()
      << ", \"p50_ns\": " << histogramPercentile(h, 0.50)
      << ", \"p99_ns\": " << histogramPercentile(h, 0.99)
      << ", \"p999_ns\": " << histogramPercentile(h, 0.999)
      << ", \"max_ns\": " << (h.count ? h.max : 0) << "}";
}

} // namespace

std::string
servingReportJson(const ServingReport &r)
{
    std::ostringstream o;
    o.precision(17);
    o << "{\"offered\": " << r.offered
      << ", \"completed\": " << r.completed << ", \"shed\": " << r.shed
      << ", \"rounds\": " << r.rounds << ", \"batches\": " << r.batches
      << ", \"makespan_s\": " << r.makespan_s
      << ", \"throughput_per_s\": " << r.throughputPerSec()
      << ", \"mean_occupancy\": " << r.meanOccupancy()
      << ", \"e2e\": ";
    appendHistogramJson(o, r.e2e_ns);
    o << ", \"shards\": [";
    for (size_t s = 0; s < r.shards.size(); ++s) {
        const ShardServingStats &sh = r.shards[s];
        o << (s ? ", " : "") << "{\"offered\": " << sh.offered
          << ", \"completed\": " << sh.completed
          << ", \"shed\": " << sh.shed
          << ", \"peak_queue\": " << sh.peak_queue
          << ", \"busy_s\": " << sh.busy_seconds << ", \"p99_ns\": "
          << histogramPercentile(sh.latency_ns, 0.99) << "}";
    }
    o << "], \"timeline\": [";
    for (size_t i = 0; i < r.timeline.size(); ++i) {
        const TimelinePoint &t = r.timeline[i];
        o << (i ? ", " : "") << "{\"t_end_s\": " << t.t_end_s
          << ", \"completed\": " << t.completed
          << ", \"shed\": " << t.shed << ", \"p99_ns\": " << t.p99_ns
          << "}";
    }
    o << "]}";
    return o.str();
}

} // namespace pimstm::runtime
