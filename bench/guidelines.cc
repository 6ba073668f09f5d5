/**
 * @file
 * Reproduces the paper's §4.2.2 developer guidance as a *generated*
 * table: sweep a synthetic workload-characteristic space (read-set
 * size x contention level x update fraction, all shaped with
 * ArrayBench-style transactions) and report which STM wins each cell.
 *
 * Paper claims this table should echo:
 *  - no one-size-fits-all STM exists;
 *  - NOrec wins small-transaction and contended cells;
 *  - VR ETL wins large-read-set, low-conflict cells;
 *  - the best-vs-NOrec gap approaches ~2x in VR-favoured cells.
 */

#include "bench/common.hh"
#include "workloads/arraybench.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

namespace
{

struct Cell
{
    const char *reads_label;
    u32 read_ops;    // phase-1 read-only accesses
    const char *contention_label;
    u32 region_k;    // smaller region -> more conflicts
    u32 rmw_ops;
};

} // namespace

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const unsigned tasklets = 11;
    const u32 tx = opt.full ? 60 : 20;

    const std::vector<Cell> cells = {
        {"large-RS", 100, "low-contention", 10000, 10},
        {"large-RS", 100, "high-contention", 32, 10},
        {"small-RS", 4, "low-contention", 10000, 4},
        {"small-RS", 4, "high-contention", 16, 4},
        {"read-only-heavy", 60, "low-contention", 8192, 2},
        {"write-heavy", 0, "high-contention", 64, 16},
    };

    Table table({"workload_shape", "contention", "best_stm",
                 "best_tput", "norec_tput", "best_vs_norec"});

    for (const Cell &c : cells) {
        ArrayBenchParams params;
        params.region_y = c.read_ops > 0 ? 2500 : 0;
        params.read_ops = c.read_ops;
        params.region_k = c.region_k;
        params.rmw_ops = c.rmw_ops;
        params.tx_per_tasklet = tx;

        double best = 0, norec = 0;
        core::StmKind best_kind = core::StmKind::NOrec;
        for (core::StmKind kind : core::allStmKinds()) {
            runtime::RunSpec base = opt.run;
            base.mram_bytes = 8 * 1024 * 1024;
            const auto pr = runPoint(
                [&] { return std::make_unique<ArrayBench>(params); },
                kind, core::MetadataTier::Mram, tasklets, opt.seeds,
                base);
            if (pr.throughput_mean > best) {
                best = pr.throughput_mean;
                best_kind = kind;
            }
            if (kind == core::StmKind::NOrec)
                norec = pr.throughput_mean;
        }
        table.newRow()
            .cell(c.reads_label)
            .cell(c.contention_label)
            .cell(core::stmKindName(best_kind))
            .cell(best, 1)
            .cell(norec, 1)
            .cell(norec > 0 ? best / norec : 0.0, 3);
    }

    std::cout << "== §4.2.2  Which STM fits which workload "
                 "(11 tasklets, metadata MRAM) ==\n";
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
