/**
 * @file
 * Ablation A4: the wait-on-contention policy the paper's taxonomy
 * mentions but excludes ("allowing transactions to wait when lock
 * contention is encountered, rather than simply aborting", §3.2).
 * This bench quantifies what the paper left on the table: bounded
 * waiting on held ORecs/rw-locks for Tiny and VR, under the low- and
 * high-contention ArrayBench workloads.
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
    const unsigned tasklets = 11;

    Table table({"workload", "stm", "wait_polls", "tput_tx_per_s",
                 "abort_rate"});

    struct Case
    {
        const char *name;
        WorkloadFactory factory;
    };
    const std::vector<Case> cases = {
        {"ArrayBench A",
         [&] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(tx_a));
         }},
        {"ArrayBench B",
         [&] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(tx_b));
         }},
    };

    for (const auto &c : cases) {
        for (core::StmKind kind :
             {core::StmKind::TinyEtlWb, core::StmKind::VrEtlWb}) {
            for (const unsigned polls : {0u, 2u, 8u, 32u}) {
                runtime::RunSpec base = opt.run;
                base.mram_bytes = 8 * 1024 * 1024;
                base.stm.cm_wait_polls = polls;
                const auto pr =
                    runPoint(c.factory, kind, core::MetadataTier::Mram,
                             tasklets, opt.seeds, base);
                table.newRow()
                    .cell(c.name)
                    .cell(core::stmKindName(kind))
                    .cell(polls)
                    .cell(pr.throughput_mean, 1)
                    .cell(pr.abort_rate_mean, 4);
            }
        }
    }

    std::cout << "== Ablation A4  wait-on-contention vs abort-immediately "
                 "(11 tasklets) ==\n";
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
