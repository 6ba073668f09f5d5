/**
 * @file
 * Extension bench: Vacation (simplified STAMP travel reservations)
 * across the full taxonomy — medium-size transactions (dozens of
 * reads, ~10 writes) between ArrayBench B's tiny ones and Labyrinth's
 * huge ones. Expected from the paper's analysis: NOrec leads under
 * high contention; the ORec ETL designs close in at low contention
 * where its extra validations bite; CTL and VR pay their usual
 * late-detection / spurious-upgrade taxes.
 */

#include "bench/common.hh"
#include "workloads/vacation.hh"

using namespace pimstm;
using namespace pimstm::bench;
using namespace pimstm::workloads;

static int
run(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv);
    const u32 ops = opt.full ? 120 : 40;

    runtime::RunSpec base = opt.run;
    base.mram_bytes = 8 * 1024 * 1024;

    sweepKinds(
        "EXT  Vacation LC (64 items/table, 80% reservations)",
        [&] {
            return std::make_unique<Vacation>(
                VacationParams::lowContention(ops));
        },
        core::MetadataTier::Mram, opt, base);

    sweepKinds(
        "EXT  Vacation HC (8 items/table, heavy churn)",
        [&] {
            return std::make_unique<Vacation>(
                VacationParams::highContention(ops));
        },
        core::MetadataTier::Mram, opt, base);

    sweepKinds(
        "EXT  Vacation LC, metadata WRAM",
        [&] {
            return std::make_unique<Vacation>(
                VacationParams::lowContention(ops));
        },
        core::MetadataTier::Wram, opt, base);
    return 0;
}

int
main(int argc, char **argv)
{
    return guardedMain([&] { return run(argc, argv); });
}
