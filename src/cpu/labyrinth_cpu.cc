#include "cpu/labyrinth_cpu.hh"

#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "cpu/norec_cpu.hh"
#include "sim/config.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace pimstm::cpu
{

namespace
{

constexpr u32 kFree = 0;
constexpr u32 kBlocked = 0xffffffffu;
constexpr u32 kUnvisited = 0xfffffffeu;

struct Instance
{
    const LabyrinthCpuParams &p;

    u32
    cellIndex(u32 cx, u32 cy, u32 cz) const
    {
        return (cz * p.y + cy) * p.x + cx;
    }

    unsigned
    neighbors(u32 index, u32 *out) const
    {
        const u32 cx = index % p.x;
        const u32 cy = (index / p.x) % p.y;
        const u32 cz = index / (p.x * p.y);
        unsigned n = 0;
        if (cx > 0)
            out[n++] = cellIndex(cx - 1, cy, cz);
        if (cx + 1 < p.x)
            out[n++] = cellIndex(cx + 1, cy, cz);
        if (cy > 0)
            out[n++] = cellIndex(cx, cy - 1, cz);
        if (cy + 1 < p.y)
            out[n++] = cellIndex(cx, cy + 1, cz);
        if (cz > 0)
            out[n++] = cellIndex(cx, cy, cz - 1);
        if (cz + 1 < p.z)
            out[n++] = cellIndex(cx, cy, cz + 1);
        return n;
    }
};

/** Lee expansion + backtrack on a private snapshot. When @p words is
 * non-null, the memory words touched (grid/dist reads and writes,
 * frontier traffic) are counted into it — the deterministic operation
 * count behind modelLabyrinthCpuSeconds. */
std::vector<u32>
route(const Instance &inst, std::vector<u32> &local, u32 src, u32 dst,
      u64 *words = nullptr)
{
    u64 w = 2;
    if (local[src] != kFree || local[dst] != kFree) {
        if (words)
            *words += w;
        return {};
    }
    std::vector<u32> &dist = local;
    for (u32 i = 0; i < inst.p.cells(); ++i)
        dist[i] = (local[i] == kFree) ? kUnvisited : kBlocked;
    dist[src] = 0;
    w += 2 * static_cast<u64>(inst.p.cells()) + 1;

    std::deque<u32> frontier{src};
    bool found = false;
    u32 nb[6];
    while (!frontier.empty() && !found) {
        const u32 cell = frontier.front();
        frontier.pop_front();
        const unsigned n = inst.neighbors(cell, nb);
        w += 1 + n;
        for (unsigned k = 0; k < n; ++k) {
            if (dist[nb[k]] != kUnvisited)
                continue;
            dist[nb[k]] = dist[cell] + 1;
            w += 2;
            if (nb[k] == dst) {
                found = true;
                break;
            }
            frontier.push_back(nb[k]);
        }
    }
    if (!found) {
        if (words)
            *words += w;
        return {};
    }

    std::vector<u32> path{dst};
    u32 cur = dst;
    while (cur != src) {
        const unsigned n = inst.neighbors(cur, nb);
        u32 next = kBlocked;
        for (unsigned k = 0; k < n; ++k) {
            if (dist[nb[k]] < dist[cur]) {
                next = nb[k];
                break;
            }
        }
        panicIf(next == kBlocked, "CPU Lee backtrack lost the trail");
        w += n + 2;
        path.push_back(next);
        cur = next;
    }
    if (words)
        *words += w;
    return path;
}

/** The deterministic endpoint list both the timed baseline and the
 * cost model route (same generator as the DPU port). */
std::vector<std::pair<u32, u32>>
generateJobs(const Instance &inst, const LabyrinthCpuParams &params)
{
    Rng rng(deriveSeed(params.seed, 0x1abu));
    std::vector<u8> used(params.cells(), 0);
    std::vector<std::pair<u32, u32>> jobs;
    const u32 cap = params.x / 2 + params.y / 2 + params.z;
    for (u32 j = 0; j < params.num_paths; ++j) {
        u32 src = 0, dst = 0;
        for (int attempt = 0;; ++attempt) {
            fatalIf(attempt > 10000, "CPU Labyrinth endpoint placement");
            src = static_cast<u32>(rng.below(params.cells()));
            if (used[src])
                continue;
            const u32 sx = src % params.x;
            const u32 sy = (src / params.x) % params.y;
            const u32 dx = static_cast<u32>(rng.range(0, cap));
            const u32 dy = static_cast<u32>(rng.range(0, cap - dx));
            const u32 tx = static_cast<u32>(std::min<u64>(
                params.x - 1,
                rng.chance(0.5) && sx >= dx ? sx - dx : sx + dx));
            const u32 ty = static_cast<u32>(std::min<u64>(
                params.y - 1,
                rng.chance(0.5) && sy >= dy ? sy - dy : sy + dy));
            const u32 tz = static_cast<u32>(rng.below(params.z));
            dst = inst.cellIndex(tx, ty, tz);
            if (dst == src || used[dst])
                continue;
            break;
        }
        used[src] = 1;
        used[dst] = 1;
        jobs.emplace_back(src, dst);
    }
    return jobs;
}

} // namespace

double
modelLabyrinthCpuSeconds(const LabyrinthCpuParams &params)
{
    fatalIf(params.threads == 0,
            "Labyrinth CPU needs at least one thread");
    Instance inst{params};
    const auto jobs = generateJobs(inst, params);

    // Replay the routing serially in job order, counting the memory
    // words each attempt walks. The serial schedule is one of the
    // schedules the racy parallel run can produce, and the per-attempt
    // work is dominated by the grid snapshot and Lee expansion, which
    // conflicts only perturb at the margin.
    std::vector<u32> grid(params.cells(), kFree);
    std::vector<u32> local(params.cells());
    u64 words = 0, stm_ops = 0, txs = 0;
    for (u32 j = 0; j < jobs.size(); ++j) {
        words += 2 * static_cast<u64>(params.cells()); // snapshot copy
        for (u32 i = 0; i < params.cells(); ++i)
            local[i] = grid[i];
        const auto path =
            route(inst, local, jobs[j].first, jobs[j].second, &words);
        ++txs;
        stm_ops += 2 * path.size(); // transactional claim: read+write
        for (const u32 cell : path)
            grid[cell] = j + 1;
    }

    const double seq =
        static_cast<double>(words) / sim::kHostMemWordsPerS +
        (static_cast<double>(stm_ops) * sim::kHostStmOpNs +
         static_cast<double>(txs) * sim::kHostStmTxNs) *
            1e-9;
    return seq / (params.threads * sim::kHostParallelEfficiency);
}

LabyrinthCpuResult
runLabyrinthCpu(const LabyrinthCpuParams &params)
{
    Instance inst{params};
    std::vector<u32> grid(params.cells(), kFree);
    const auto jobs = generateJobs(inst, params);

    CpuNOrec stm;
    std::vector<CpuTx> txs(params.threads);
    std::atomic<u32> next_job{0};
    std::atomic<u64> routed{0}, failed{0};

    auto worker = [&](unsigned me) {
        CpuTx &tx = txs[me];
        std::vector<u32> local(params.cells());
        for (;;) {
            const u32 j = next_job.fetch_add(1);
            if (j >= jobs.size())
                return;
            bool ok = false;
            cpuAtomically(stm, tx, [&](CpuTx &t) {
                ok = false;
                // Private snapshot (racy reads are fine: the claim
                // below revalidates every path cell via the STM).
                for (u32 i = 0; i < params.cells(); ++i)
                    local[i] = std::atomic_ref<u32>(grid[i]).load(
                        std::memory_order_relaxed);
                auto path =
                    route(inst, local, jobs[j].first, jobs[j].second);
                if (path.empty())
                    return;
                for (const u32 cell : path) {
                    if (stm.read(t, &grid[cell]) != kFree) {
                        ++t.aborts;
                        throw CpuTxAbort{};
                    }
                    stm.write(t, &grid[cell], j + 1);
                }
                ok = true;
            });
            if (ok)
                ++routed;
            else
                ++failed;
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(params.threads);
    for (unsigned t = 0; t < params.threads; ++t)
        threads.emplace_back(worker, t);
    for (auto &t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();

    LabyrinthCpuResult result;
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.routed = routed.load();
    result.failed = failed.load();
    for (const auto &tx : txs) {
        result.commits += tx.commits;
        result.aborts += tx.aborts;
    }
    return result;
}

} // namespace pimstm::cpu
