/**
 * @file
 * Bank: the classic STM demo — concurrent money transfers between
 * accounts with an invariant total — run against EVERY PIM-STM
 * implementation, with and without WRAM metadata, printing a
 * comparison table. Shows how an application can A/B-test the whole
 * taxonomy with a one-line config change (the paper's stated goal:
 * "test the performance of alternative STM designs with their own
 * applications via trivial configuration changes").
 */

#include <iomanip>
#include <iostream>

#include "core/stm.hh"
#include "runtime/shared_array.hh"
#include "util/table.hh"

using namespace pimstm;

namespace
{

struct BankResult
{
    bool total_ok = false;
    double throughput = 0;
    double abort_rate = 0;
};

BankResult
runBank(core::StmKind kind, core::MetadataTier tier)
{
    constexpr unsigned kTasklets = 11;
    constexpr unsigned kAccounts = 64;
    constexpr unsigned kTransfers = 300;
    constexpr u32 kInitial = 1000;

    sim::DpuConfig dpu_cfg;
    dpu_cfg.mram_bytes = 1 * 1024 * 1024;
    dpu_cfg.seed = 42;
    sim::Dpu dpu(dpu_cfg);

    core::StmConfig stm_cfg;
    stm_cfg.kind = kind;
    stm_cfg.metadata_tier = tier;
    stm_cfg.num_tasklets = kTasklets;
    stm_cfg.max_read_set = 16;
    stm_cfg.max_write_set = 8;
    stm_cfg.data_words_hint = kAccounts;
    auto stm = std::make_unique<core::Stm>(dpu, stm_cfg);

    runtime::SharedArray32 accounts(dpu, sim::Tier::Mram, kAccounts);
    accounts.fill(dpu, kInitial);

    dpu.addTasklets(kTasklets, [&](sim::DpuContext &ctx) {
        for (unsigned i = 0; i < kTransfers; ++i) {
            const u32 from =
                static_cast<u32>(ctx.rng().below(kAccounts));
            u32 to = static_cast<u32>(ctx.rng().below(kAccounts));
            if (to == from)
                to = (to + 1) % kAccounts;
            const u32 amount = static_cast<u32>(ctx.rng().range(1, 20));
            core::atomically(*stm, ctx, [&](core::TxHandle &tx) {
                const u32 f = tx.read(accounts.at(from));
                const u32 t = tx.read(accounts.at(to));
                tx.write(accounts.at(from), f - amount);
                tx.write(accounts.at(to), t + amount);
            });
        }
    });
    dpu.run();

    u64 total = 0;
    for (unsigned i = 0; i < kAccounts; ++i)
        total += accounts.peek(dpu, i);

    BankResult r;
    r.total_ok = total == static_cast<u64>(kAccounts) * kInitial;
    const double seconds = sim::cyclesToSeconds(dpu.stats().total_cycles);
    r.throughput = stm->stats().commits / seconds;
    r.abort_rate = stm->stats().abortRate();
    return r;
}

} // namespace

int
main()
{
    std::cout << "Bank: 11 tasklets x 300 random transfers over 64 "
                 "accounts, per STM design\n\n";

    Table table({"stm", "metadata", "tput_tx_per_s", "abort_rate",
                 "invariant"});
    bool all_ok = true;
    for (core::StmKind kind : core::allStmKinds()) {
        for (const auto tier :
             {core::MetadataTier::Mram, core::MetadataTier::Wram}) {
            const BankResult r = runBank(kind, tier);
            all_ok = all_ok && r.total_ok;
            table.newRow()
                .cell(core::stmKindName(kind))
                .cell(core::metadataTierName(tier))
                .cell(r.throughput, 1)
                .cell(r.abort_rate, 4)
                .cell(r.total_ok ? "OK" : "BROKEN");
        }
    }
    table.printText(std::cout);
    std::cout << "\nMoney is " << (all_ok ? "conserved" : "NOT conserved")
              << " under every design.\n";
    return all_ok ? 0 : 1;
}
