#include "core/stats_report.hh"

#include <iomanip>
#include <sstream>

namespace pimstm::core
{

std::string
formatRate(double per_second)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    if (per_second >= 1e9)
        os << per_second / 1e9 << " Gtx/s";
    else if (per_second >= 1e6)
        os << per_second / 1e6 << " Mtx/s";
    else if (per_second >= 1e3)
        os << per_second / 1e3 << " Ktx/s";
    else
        os << per_second << " tx/s";
    return os.str();
}

std::string
formatSeconds(double seconds)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    if (seconds >= 1.0)
        os << seconds << " s";
    else if (seconds >= 1e-3)
        os << seconds * 1e3 << " ms";
    else if (seconds >= 1e-6)
        os << seconds * 1e6 << " us";
    else
        os << seconds * 1e9 << " ns";
    return os.str();
}

void
printSummaryLine(std::ostream &os, const StmStats &stm,
                 const sim::DpuStats &dpu)
{
    const double seconds = sim::cyclesToSeconds(dpu.total_cycles);
    const double tput =
        seconds > 0 ? static_cast<double>(stm.commits) / seconds : 0;
    os << stm.commits << " commits, " << stm.aborts << " aborts ("
       << std::fixed << std::setprecision(1) << stm.abortRate() * 100
       << "%), " << formatSeconds(seconds) << " simulated, "
       << formatRate(tput) << "\n";
}

void
printReport(std::ostream &os, const StmStats &stm,
            const sim::DpuStats &dpu)
{
    printSummaryLine(os, stm, dpu);

    os << "  operations: " << stm.reads << " reads, " << stm.writes
       << " writes, " << stm.validations << " validations, "
       << stm.extensions << " extensions, " << stm.read_only_commits
       << " read-only commits\n";

    if (stm.escalations > 0 || stm.serial_commits > 0 ||
        stm.injected_aborts > 0 || stm.crashes > 0) {
        os << "  robustness: " << stm.escalations
           << " escalations, " << stm.serial_commits
           << " serial commits, " << stm.injected_aborts
           << " injected aborts, " << stm.crashes << " crashes\n";
    }

    if (stm.aborts > 0) {
        os << "  abort reasons:";
        for (size_t r = 0; r < kNumAbortReasons; ++r) {
            if (stm.abort_reasons[r] == 0)
                continue;
            os << " " << abortReasonName(static_cast<AbortReason>(r))
               << "=" << stm.abort_reasons[r];
        }
        os << "\n";
    }

    const auto busy = dpu.busyCycles();
    if (busy > 0) {
        os << "  time breakdown:";
        for (size_t p = 0; p < sim::kNumPhases; ++p) {
            const auto cycles = dpu.phase_cycles[p];
            if (cycles == 0)
                continue;
            os << " " << phaseName(static_cast<sim::Phase>(p)) << "="
               << std::fixed << std::setprecision(1)
               << 100.0 * static_cast<double>(cycles) /
                      static_cast<double>(busy)
               << "%";
        }
        os << "\n";
    }

    os << "  memory: " << dpu.mram_reads << " MRAM reads ("
       << dpu.mram_bytes_read << " B), " << dpu.mram_writes
       << " MRAM writes (" << dpu.mram_bytes_written << " B), "
       << dpu.wram_accesses << " WRAM accesses\n"
       << "  atomics: " << dpu.atomic_acquires << " acquires, "
       << dpu.atomic_stalls << " stalls (" << dpu.atomic_stall_cycles
       << " cycles)\n";
}

} // namespace pimstm::core
