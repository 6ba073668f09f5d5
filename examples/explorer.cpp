/**
 * @file
 * Explorer: a command-line tool to run any benchmark under any STM
 * configuration and print the full statistics report — the quickest
 * way to poke at the design space by hand.
 *
 * Usage:
 *   explorer [workload] [stm] [tier] [tasklets] [seed]
 *     workload: arraybench-a|arraybench-b|linkedlist-lc|linkedlist-hc|
 *               kmeans-lc|kmeans-hc|labyrinth-s|labyrinth-m|
 *               skiplist-lc|skiplist-hc|vacation-lc|vacation-hc
 *     stm:      norec|tiny-etlwb|tiny-etlwt|tiny-ctlwb|
 *               vr-etlwb|vr-etlwt|vr-ctlwb|adaptive
 *     tier:     mram|wram
 *
 * Examples:
 *   explorer arraybench-a vr-etlwb mram 11
 *   explorer linkedlist-hc adaptive
 */

#include <iostream>
#include <string>

#include "core/stats_report.hh"
#include "runtime/adaptive.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/labyrinth.hh"
#include "workloads/linkedlist.hh"
#include "workloads/skiplist.hh"
#include "workloads/vacation.hh"

using namespace pimstm;
using namespace pimstm::runtime;
using namespace pimstm::workloads;

namespace
{

AdaptiveFactory
workloadFactory(const std::string &name)
{

    if (name == "arraybench-a") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<ArrayBench>(
                ArrayBenchParams::workloadA(probe ? 4 : 30));
        };
    }
    if (name == "arraybench-b") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<ArrayBench>(
                ArrayBenchParams::workloadB(probe ? 20 : 200));
        };
    }
    if (name == "linkedlist-lc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<LinkedList>(
                LinkedListParams::lowContention(probe ? 15 : 100));
        };
    }
    if (name == "linkedlist-hc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<LinkedList>(
                LinkedListParams::highContention(probe ? 15 : 100));
        };
    }
    if (name == "kmeans-lc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<KMeans>(
                KMeansParams::lowContention(probe ? 3 : 16));
        };
    }
    if (name == "kmeans-hc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<KMeans>(
                KMeansParams::highContention(probe ? 3 : 16));
        };
    }
    if (name == "labyrinth-s") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<Labyrinth>(
                LabyrinthParams::small(probe ? 8 : 64));
        };
    }
    if (name == "labyrinth-m") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<Labyrinth>(
                LabyrinthParams::medium(probe ? 6 : 48));
        };
    }
    if (name == "skiplist-lc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<SkipList>(
                SkipListParams::lowContention(probe ? 15 : 100));
        };
    }
    if (name == "skiplist-hc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<SkipList>(
                SkipListParams::highContention(probe ? 15 : 100));
        };
    }
    if (name == "vacation-lc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<Vacation>(
                VacationParams::lowContention(probe ? 10 : 60));
        };
    }
    if (name == "vacation-hc") {
        return [](bool probe) -> std::unique_ptr<Workload> {
            return std::make_unique<Vacation>(
                VacationParams::highContention(probe ? 10 : 60));
        };
    }
    fatal("unknown workload '", name, "' (see --help)");
}

core::StmKind
parseKind(const std::string &name)
{
    if (name == "norec")
        return core::StmKind::NOrec;
    if (name == "tiny-etlwb")
        return core::StmKind::TinyEtlWb;
    if (name == "tiny-etlwt")
        return core::StmKind::TinyEtlWt;
    if (name == "tiny-ctlwb")
        return core::StmKind::TinyCtlWb;
    if (name == "vr-etlwb")
        return core::StmKind::VrEtlWb;
    if (name == "vr-etlwt")
        return core::StmKind::VrEtlWt;
    if (name == "vr-ctlwb")
        return core::StmKind::VrCtlWb;
    fatal("unknown STM '", name, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "arraybench-a";
    const std::string stm_name = argc > 2 ? argv[2] : "norec";
    const std::string tier_name = argc > 3 ? argv[3] : "mram";
    const unsigned tasklets =
        argc > 4 ? static_cast<unsigned>(std::stoul(argv[4])) : 11;
    const u64 seed = argc > 5 ? std::stoull(argv[5]) : 1;

    if (workload == "--help" || workload == "-h") {
        std::cout << "usage: explorer [workload] [stm|adaptive] "
                     "[mram|wram] [tasklets] [seed]\n";
        return 0;
    }

    try {
        const AdaptiveFactory factory = workloadFactory(workload);
        RunSpec spec;
        spec.tier = tier_name == "wram" ? core::MetadataTier::Wram
                                        : core::MetadataTier::Mram;
        spec.tasklets = tasklets;
        spec.seed = seed;
        spec.mram_bytes = 16 * 1024 * 1024;

        if (stm_name == "adaptive") {
            const AdaptiveResult r = adaptiveRun(factory, spec);
            std::cout << workload << " via adaptive selection -> "
                      << core::stmKindName(r.chosen_kind) << " ("
                      << core::metadataTierName(r.chosen_tier)
                      << "), probe cost "
                      << core::formatSeconds(r.probe_seconds) << "\n";
            for (const auto &[name, tput] : r.probe_throughput)
                std::cout << "  probe " << name << ": "
                          << core::formatRate(tput) << "\n";
            core::printReport(std::cout, r.final.stm, r.final.dpu);
        } else {
            spec.kind = parseKind(stm_name);
            auto wl = factory(false);
            const RunResult r = runWorkload(*wl, spec);
            std::cout << workload << " under "
                      << core::stmKindName(spec.kind) << " ("
                      << core::metadataTierName(spec.tier) << "), "
                      << tasklets << " tasklets:\n";
            core::printReport(std::cout, r.stm, r.dpu);
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
