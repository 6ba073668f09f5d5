/**
 * @file
 * Hashmap: a concurrent open-addressing hash map from the PIM-STM
 * runtime library (runtime/tx_hashmap.hh) exercised by 11 tasklets
 * with a mixed insert/lookup/erase workload — the kind of concurrent
 * data structure the paper's conclusion proposes building on top of
 * PIM-STM. Per-tasklet net-insert accounting lets the final
 * population be checked exactly.
 */

#include <iostream>
#include <vector>

#include "core/stm.hh"
#include "runtime/tx_hashmap.hh"

using namespace pimstm;
using runtime::TxHashMap;

int
main()
{
    constexpr unsigned kTasklets = 11;
    constexpr u32 kCapacity = 1024;
    constexpr u32 kKeyRange = 400;
    constexpr unsigned kOps = 400;

    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024;
    sim::Dpu dpu(dpu_cfg);

    core::StmConfig stm_cfg;
    stm_cfg.kind = core::StmKind::TinyEtlWb;
    stm_cfg.num_tasklets = kTasklets;
    stm_cfg.max_read_set = 128;
    stm_cfg.max_write_set = 16;
    stm_cfg.data_words_hint = kCapacity * 2;
    auto stm = std::make_unique<core::Stm>(dpu, stm_cfg);

    TxHashMap map(dpu, sim::Tier::Mram, kCapacity);

    // Each tasklet mixes inserts, lookups and erases over a shared key
    // range; per-tasklet net-insert counts let us check the final
    // population exactly.
    std::vector<s64> net(kTasklets, 0);
    std::vector<u64> hits(kTasklets, 0);
    dpu.addTasklets(kTasklets, [&](sim::DpuContext &ctx) {
        const unsigned me = ctx.taskletId();
        for (unsigned i = 0; i < kOps; ++i) {
            const u32 key =
                static_cast<u32>(ctx.rng().below(kKeyRange));
            const double dice = ctx.rng().uniform();
            if (dice < 0.5) {
                bool fresh = false;
                core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                    u32 dummy;
                    fresh = !map.lookup(tx, key, dummy);
                    map.insert(tx, key, me * 100000 + i);
                });
                if (fresh)
                    ++net[me];
            } else if (dice < 0.8) {
                bool found = false;
                u32 v = 0;
                core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                    found = map.lookup(tx, key, v);
                });
                if (found)
                    ++hits[me];
            } else {
                bool erased = false;
                core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                    erased = map.erase(tx, key);
                });
                if (erased)
                    --net[me];
            }
        }
    });
    dpu.run();

    s64 expected = 0;
    u64 total_hits = 0;
    for (unsigned t = 0; t < kTasklets; ++t) {
        expected += net[t];
        total_hits += hits[t];
    }
    const u32 population = map.population(dpu);

    const auto &s = stm->stats();
    std::cout << "tx hashmap: " << kTasklets << " tasklets x " << kOps
              << " mixed ops over " << kKeyRange << " keys\n"
              << "population = " << population << " (expected "
              << expected << ")\n"
              << "lookup hits = " << total_hits << "\n"
              << "commits = " << s.commits << ", aborts = " << s.aborts
              << " (rate " << s.abortRate() << ")\n";
    return population == static_cast<u32>(expected) ? 0 : 1;
}
