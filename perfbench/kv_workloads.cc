#include "kv_workloads.hh"

#include <algorithm>
#include <memory>

#include "capacity.hh"
#include "core/stm.hh"
#include "kv_backend.hh"
#include "ledger.hh"
#include "util/rng.hh"

namespace perfbench
{

using pimstm::runtime::ServingRequest;

KvWorkload
kvServeWorkload()
{
    KvWorkload w;
    w.shards = 64;
    w.durable = false;
    w.arrival = pimstm::runtime::ArrivalKind::Poisson;
    w.op_weights = {0.95, 0.05, 0.0};
    w.lo_rate = 400e3;
    w.hi_rate = 1.2e6;
    w.compare_threads = 2;
    return w;
}

KvWorkload
kvDurable2pcWorkload()
{
    KvWorkload w;
    w.shards = 16;
    w.durable = true;
    w.arrival = pimstm::runtime::ArrivalKind::Bursty;
    w.op_weights = {0.45, 0.40, 0.15};
    w.lo_rate = 20e3;
    w.hi_rate = 60e3;
    return w;
}

namespace
{

/** One serving run on a fresh fleet and a fresh stream. */
struct ServedRun
{
    pimstm::runtime::ServingReport rep;
    LatencyLedger ledger;
    Counters counters;
    double host_s = 0.0;
    double setup_s = 0.0;
    u64 moves = 0;
    std::vector<std::string> errors;
};

ServedRun
serveOnce(const KvWorkload &w, u64 seed, u64 stream_no, double rate,
          Spans &spans)
{
    ServedRun out;
    const u32 keyspace = w.shards * 32;
    const auto t0 = Clock::now();
    std::vector<ServingRequest> stream;
    {
        SpanScope span(spans, kSpanMakeStream);
        pimstm::runtime::StreamConfig sc;
        sc.arrival.kind = w.arrival;
        sc.arrival.rate_per_s = rate;
        sc.keys = keyspace;
        sc.zipf_theta = kZipfTheta;
        sc.op_weights = w.op_weights;
        sc.seed = pimstm::deriveSeed(seed, 0x5354524d /* "STRM" */, stream_no);
        stream = pimstm::runtime::makeStream(sc, kRequestsPerRun);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
        stream[i].value = static_cast<u32>(i); // stream index
        out.moves += stream[i].op == kKvMove ? 1 : 0;
    }

    const pimstm::core::TxIndexTotals ix0 = pimstm::core::txIndexTotals();
    {
        std::unique_ptr<KvBackend> backend;
        {
            SpanScope span(spans, kSpanFleetBuild);
            pimstm::hostapp::DistributedKvConfig cfg;
            cfg.shards = w.shards;
            cfg.capacity_per_shard = 256;
            cfg.tasklets_per_dpu = kTaskletsPerShard;
            cfg.mram_bytes = 1 << 20;
            cfg.seed = pimstm::deriveSeed(seed, 0x464c4545 /* "FLEE" */);
            cfg.durable = w.durable;
            backend = std::make_unique<KvBackend>(keyspace, cfg, spans);
        }
        const auto t1 = Clock::now();
        out.setup_s = std::chrono::duration<double>(t1 - t0).count();
        {
            SpanScope span(spans, kSpanRunServing);
            out.rep = pimstm::runtime::runServing(*backend, stream,
                                                  ledgerServingConfig());
        }
        out.host_s = secondsSince(t1);

        out.counters = backend->counters();
        out.errors = backend->verify();
        try {
            out.ledger = reconstructLatency(out.rep, stream, backend->rounds());
        } catch (const std::exception &e) {
            out.errors.push_back(e.what());
        }
    } // the fleet's STMs fold their tx-index counters on destruction
    const pimstm::core::TxIndexTotals ix1 = pimstm::core::txIndexTotals();
    out.counters.txindex_lookups = ix1.lookups - ix0.lookups;
    out.counters.txindex_probes = ix1.probes - ix0.probes;
    return out;
}

/** Exact SLO judgement of one run (capacity probes). */
bool
meetsSlo(const ServedRun &r)
{
    const auto p99 = r.ledger.quantileNs(99, 100);
    return r.errors.empty() && r.rep.shed == 0 && p99
        && static_cast<double>(*p99) <= kSloP99S * 1e9
        && r.rep.makespan_s - r.ledger.last_arrival_s <= kBacklogS;
}

/** One ledger over every request of @p runs (same rate). */
LatencyLedger
pooled(const std::vector<const ServedRun *> &runs)
{
    LatencyLedger all;
    for (const ServedRun *r : runs) {
        all.offered += r->ledger.offered;
        all.shed += r->ledger.shed;
        all.latency_ns.insert(all.latency_ns.end(),
                              r->ledger.latency_ns.begin(),
                              r->ledger.latency_ns.end());
    }
    std::sort(all.latency_ns.begin(), all.latency_ns.end());
    return all;
}

/** Exact percentile num/den of @p led, with its sample counts. */
Metric
percentile(PassResult &p, const std::string &name, const LatencyLedger &led,
           u64 num, u64 den)
{
    const auto v = led.quantileNs(num, den);
    Metric m{name, v ? static_cast<double>(*v) * 1e-3 : 0.0, "us",
             "n=" + std::to_string(led.offered)
                 + " beyond=" + std::to_string(led.beyond(num, den))};
    if (!v) {
        // A shed request exceeds every limit; the run has failed.
        m.value = 1e9;
        p.errors.push_back(name + " falls on a shed request");
        ++p.failed;
    }
    if (led.beyond(num, den) < 10) {
        p.errors.push_back("fewer than ten requests beyond " + name);
        ++p.failed;
    }
    return m;
}

double
committedTxPerBusySecond(const ServedRun &r)
{
    return r.rep.busy_seconds > 0
        ? static_cast<double>(r.counters.commits) / r.rep.busy_seconds
        : 0.0;
}

/** Fold one serving run's set-up, host time, counters and checks in. */
void
account(PassResult &p, const ServedRun &r)
{
    p.host_s += r.host_s;
    p.setup_s += r.setup_s;
    p.counters += r.counters;
    p.attempted += r.rep.offered;
    p.failed += r.errors.size();
    p.errors.insert(p.errors.end(), r.errors.begin(), r.errors.end());
}

} // namespace

PassResult
runKvPass(const KvWorkload &w, u64 seed, Spans &spans)
{
    PassResult p;
    std::vector<ServedRun> fixed;
    fixed.push_back(serveOnce(w, seed, 0, w.lo_rate, spans));
    for (u64 k = 0; k < kHighRateRuns; ++k)
        fixed.push_back(serveOnce(w, seed, k, w.hi_rate, spans));
    std::vector<const ServedRun *> hi;
    std::vector<double> tx_rates, reported_p99;
    for (const ServedRun &r : fixed) {
        account(p, r);
        // A shed request at a fixed rate is a regression: both rates
        // sit below the zero-shed capacity.
        p.failed += r.rep.shed;
        ServingStats &s = p.serving;
        s.requests += r.ledger.completed();
        s.wait_s += r.ledger.wait_s;
        s.service_s += r.ledger.service_s;
        s.overhead_s += r.ledger.overhead_s;
        s.rounds += r.rep.rounds;
        s.batches += r.rep.batches;
        s.busy_s += r.rep.busy_seconds;
        s.fleet_s += r.rep.capacity_seconds;
        s.shed += r.rep.shed;
        for (const auto &sh : r.rep.shards)
            s.peak_queue = std::max<u64>(s.peak_queue, sh.peak_queue);
        s.moves += r.moves;
        s.offered += r.rep.offered;
        tx_rates.push_back(committedTxPerBusySecond(r));
        if (&r != &fixed.front()) {
            hi.push_back(&r);
            reported_p99.push_back(
                static_cast<double>(pimstm::runtime::histogramPercentile(
                    r.rep.e2e_ns, 0.99))
                * 1e-3);
        }
    }
    if (p.serving.shed)
        p.errors.push_back(std::to_string(p.serving.shed)
                           + " requests shed at the fixed rates");
    p.serving.reported_p99_us = median(reported_p99);

    p.sim.push_back({"sim_tx_per_s", geomean(tx_rates), "1/s",
                     "commits per shard-busy second, geomean of the "
                     "fixed-rate runs"});
    const LatencyLedger lo = pooled({&fixed.front()});
    const LatencyLedger all_hi = pooled(hi);
    p.sim.push_back(percentile(p, "sim_p50_us.lo", lo, 50, 100));
    p.sim.push_back(percentile(p, "sim_p99_us.lo", lo, 99, 100));
    p.sim.push_back(percentile(p, "sim_p50_us.hi", all_hi, 50, 100));
    p.sim.push_back(percentile(p, "sim_p99_us.hi", all_hi, 99, 100));
    p.sim.push_back(percentile(p, "sim_p999_us.hi", all_hi, 999, 1000));
    return p;
}

PassResult
runKvCapacity(const KvWorkload &w, u64 seed, Spans &spans)
{
    PassResult p;
    SpanScope span(spans, kSpanCapacity);
    const auto t0 = Clock::now();
    const CapacityResult res = searchCapacity(
        [&](double rate) {
            const ServedRun r = serveOnce(w, seed, 0, rate, spans);
            account(p, r);
            return meetsSlo(r);
        },
        w.hi_rate, kCeilingOverHigh * w.hi_rate);
    p.capacity_s = secondsSince(t0);
    p.capacity_probes = res.probes.size();
    if (!res.error.empty()) {
        p.errors.push_back("capacity search: " + res.error);
        ++p.failed;
    }
    p.sim.push_back({"slo_capacity_rps", res.capacity_per_s, "req/s",
                     "exact p99 <= 2 ms, zero shed, backlog <= 2 ms; "
                     + std::to_string(res.probes.size())
                     + " probes, fails at "
                     + std::to_string(res.failing_per_s)});
    return p;
}

} // namespace perfbench
