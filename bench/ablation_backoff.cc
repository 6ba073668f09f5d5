/**
 * @file
 * Ablation A2: NOrec's wait-until-seqlock-free start policy — the
 * paper credits it as a contention manager that helps NOrec win the
 * high-contention workloads (§4.2.1, ArrayBench B analysis: "NOrec
 * transactions wait until the global sequence lock is free before
 * starting, which acts as a contention management mechanism").
 * Disabling it should cost throughput under contention and matter
 * little when contention is low.
 */

#include "bench/common.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 tx_a = opt.full ? 20 : 8;
    const u32 tx_b = opt.full ? 400 : 150;

    Table table({"workload", "start_wait", "tasklets", "tput_tx_per_s",
                 "abort_rate"});

    struct Case
    {
        const char *name;
        WorkloadFactory factory;
    };
    const std::vector<Case> cases = {
        {"ArrayBench A (low contention)",
         [&] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(tx_a));
         }},
        {"ArrayBench B (high contention)",
         [&] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(tx_b));
         }},
    };

    for (const auto &c : cases) {
        for (const bool wait : {true, false}) {
            for (unsigned t : {4u, 11u}) {
                runtime::RunSpec base = opt.run;
                base.mram_bytes = 8 * 1024 * 1024;
                base.stm.norec_start_wait = wait;
                const auto pr =
                    runPoint(c.factory, core::StmKind::NOrec,
                             core::MetadataTier::Mram, t, opt.seeds,
                             base);
                table.newRow()
                    .cell(c.name)
                    .cell(wait ? "on" : "off")
                    .cell(t)
                    .cell(pr.throughput_mean, 1)
                    .cell(pr.abort_rate_mean, 4);
            }
        }
    }

    std::cout << "== Ablation A2  NOrec start-wait contention manager ==\n";
    if (opt.csv)
        table.printCsv(std::cout);
    else
        table.printText(std::cout);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
