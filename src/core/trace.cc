#include "core/trace.hh"

#include <algorithm>
#include <string>

namespace pimstm::core
{

//
// Text dump
//

void
TraceBuffer::printRecord(std::ostream &os, const TraceRecord &r)
{
    os << r.time << " t" << static_cast<unsigned>(r.tasklet) << " "
       << txEventName(r.event);
    switch (r.event) {
      case TxEvent::Read:
      case TxEvent::Write:
        os << " " << sim::tierName(sim::addrTier(r.arg)) << "+"
           << sim::addrOffset(r.arg);
        break;
      case TxEvent::Abort:
        os << " " << r.arg;
        if (r.arg2 != 0) {
            const auto a = static_cast<sim::Addr>(r.arg2);
            os << " @" << sim::tierName(sim::addrTier(a)) << "+"
               << sim::addrOffset(a);
        }
        break;
      case TxEvent::LockAcquire:
      case TxEvent::LockWait:
        os << " lock=" << r.arg << " wait=" << r.arg2;
        break;
      case TxEvent::BoostAcquire:
      case TxEvent::BoostWait:
        os << " stripe=" << r.arg << " wait=" << r.arg2;
        break;
      case TxEvent::SemanticUndo:
        os << " depth=" << r.arg;
        break;
      case TxEvent::Validate:
        os << " entries=" << r.arg;
        break;
      case TxEvent::SchedStall:
      case TxEvent::SchedWake:
        os << " bit=" << r.arg;
        if (r.event == TxEvent::SchedWake)
            os << " blocked=" << r.arg2;
        break;
      case TxEvent::FaultStall:
      case TxEvent::FaultAcqDelay:
        os << " cycles=" << r.arg;
        break;
      case TxEvent::LogAppend:
        os << " bytes=" << r.arg << " entries=" << r.arg2;
        break;
      case TxEvent::FlushFence:
        os << " lines=" << r.arg;
        break;
      case TxEvent::DurableCommit:
        os << " seq=" << r.arg;
        break;
      case TxEvent::Recovery:
        os << " redone=" << r.arg << " dropped=" << r.arg2;
        break;
      default:
        break;
    }
    if (r.structure != 0) {
        os << " struct="
           << structureName(static_cast<StructureId>(r.structure));
    }
    os << "\n";
}

void
TraceBuffer::dump(std::ostream &os, int tasklet_filter) const
{
    for (const auto &r : snapshot()) {
        if (tasklet_filter >= 0 && r.tasklet != tasklet_filter)
            continue;
        printRecord(os, r);
    }
}

void
TraceBuffer::dumpTail(std::ostream &os, size_t n) const
{
    const auto events = snapshot();
    if (events.empty())
        return;
    const size_t start = events.size() > n ? events.size() - n : 0;
    os << "  last " << (events.size() - start) << " trace records ("
       << dropped_ << " older dropped):\n";
    for (size_t i = start; i < events.size(); ++i) {
        os << "    ";
        printRecord(os, events[i]);
    }
}

//
// Perfetto / chrome://tracing export
//

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Common event prefix: {"pid":..,"tid":..,"ts":..  (caller closes). */
void
evHead(std::ostream &os, bool &first, u32 pid, unsigned tid, Cycles ts)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"pid\":" << pid << ",\"tid\":" << tid << ",\"ts\":" << ts;
}

} // namespace

void
TraceBuffer::writePerfetto(std::ostream &os, u32 pid,
                           const std::string &process_name,
                           bool &first) const
{
    const auto events = snapshot();

    // Process metadata; one thread per tasklet seen in the ring.
    if (!first)
        os << ",\n";
    first = false;
    os << "{\"pid\":" << pid << ",\"ph\":\"M\",\"name\":\"process_name\","
       << "\"args\":{\"name\":\"" << jsonEscape(process_name) << "\"}}";
    bool seen[256] = {};
    for (const auto &r : events) {
        if (seen[r.tasklet])
            continue;
        seen[r.tasklet] = true;
        os << ",\n{\"pid\":" << pid << ",\"tid\":"
           << static_cast<unsigned>(r.tasklet)
           << ",\"ph\":\"M\",\"name\":\"thread_name\","
           << "\"args\":{\"name\":\"tasklet "
           << static_cast<unsigned>(r.tasklet) << "\"}}";
    }

    // Balanced B/E emission: the ring may have dropped a span's B
    // (emit no E then) or hold a B whose E is beyond the end (close it
    // at the final timestamp so the output stays valid and loadable).
    bool tx_open[256] = {};
    bool stall_open[256] = {};
    Cycles last_ts = events.empty() ? 0 : events.back().time;

    for (const auto &r : events) {
        const unsigned tid = r.tasklet;
        switch (r.event) {
          case TxEvent::Start:
            if (tx_open[tid]) { // dropped abort/commit: close first
                evHead(os, first, pid, tid, r.time);
                os << ",\"ph\":\"E\"}";
            }
            tx_open[tid] = true;
            evHead(os, first, pid, tid, r.time);
            os << ",\"ph\":\"B\",\"cat\":\"stm\",\"name\":\"tx\"}";
            break;
          case TxEvent::Commit:
          case TxEvent::Abort:
            if (r.event == TxEvent::Abort) {
                evHead(os, first, pid, tid, r.time);
                os << ",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"stm\","
                   << "\"name\":\"abort\",\"args\":{\"reason\":\""
                   << abortReasonName(static_cast<AbortReason>(r.arg))
                   << "\",\"addr\":" << r.arg2 << ",\"structure\":\""
                   << structureName(static_cast<StructureId>(r.structure))
                   << "\"}}";
            }
            if (tx_open[tid]) {
                tx_open[tid] = false;
                evHead(os, first, pid, tid, r.time);
                os << ",\"ph\":\"E\",\"args\":{\"outcome\":\""
                   << (r.event == TxEvent::Commit ? "commit" : "abort")
                   << "\"}}";
            }
            break;
          case TxEvent::SchedStall:
            if (!stall_open[tid]) {
                stall_open[tid] = true;
                evHead(os, first, pid, tid, r.time);
                os << ",\"ph\":\"B\",\"cat\":\"sched\","
                   << "\"name\":\"atomic stall\",\"args\":{\"bit\":"
                   << r.arg << "}}";
            }
            break;
          case TxEvent::SchedWake:
            if (stall_open[tid]) {
                stall_open[tid] = false;
                evHead(os, first, pid, tid, r.time);
                os << ",\"ph\":\"E\",\"args\":{\"blocked_cycles\":"
                   << r.arg2 << "}}";
            }
            break;
          default:
            // Everything else is an instant on its tasklet's track.
            evHead(os, first, pid, tid, r.time);
            os << ",\"ph\":\"i\",\"s\":\"t\",\"cat\":\""
               << (r.event == TxEvent::Read || r.event == TxEvent::Write
                       ? "data"
                       : (r.event == TxEvent::LockAcquire ||
                          r.event == TxEvent::LockWait ||
                          r.event == TxEvent::Validate ||
                          r.event == TxEvent::BoostAcquire ||
                          r.event == TxEvent::BoostWait ||
                          r.event == TxEvent::SemanticUndo ||
                          r.event == TxEvent::LogAppend ||
                          r.event == TxEvent::FlushFence ||
                          r.event == TxEvent::DurableCommit ||
                          r.event == TxEvent::Recovery
                              ? "stm"
                              : "sched"))
               << "\",\"name\":\"" << txEventName(r.event)
               << "\",\"args\":{\"arg\":" << r.arg << ",\"arg2\":"
               << r.arg2 << "}}";
            break;
        }
    }

    for (unsigned tid = 0; tid < 256; ++tid) {
        if (stall_open[tid]) {
            evHead(os, first, pid, tid, last_ts);
            os << ",\"ph\":\"E\"}";
        }
        if (tx_open[tid]) {
            evHead(os, first, pid, tid, last_ts);
            os << ",\"ph\":\"E\"}";
        }
    }
}

//
// TraceTotals
//

void
TraceTotals::add(const TraceBuffer &trace)
{
    ++runs;
    for (size_t e = 0; e < kNumTxEvents; ++e)
        events[e] += trace.count(static_cast<TxEvent>(e));
    dropped += trace.dropped();
    for (size_t r = 0; r < kNumAbortReasons; ++r)
        aborts_by_reason[r] += trace.abortsByReason()[r];
    for (size_t s = 0; s < kNumStructures; ++s)
        aborts_by_structure[s] += trace.abortsByStructure()[s];
    tx_latency.merge(trace.txLatency());
    commit_latency.merge(trace.commitLatency());
    read_set_size.merge(trace.readSetSize());
    write_set_size.merge(trace.writeSetSize());
    const auto &run_locks = trace.lockContention();
    if (run_locks.size() > locks.size())
        locks.resize(run_locks.size());
    for (size_t i = 0; i < run_locks.size(); ++i) {
        locks[i].acquires += run_locks[i].acquires;
        locks[i].waits += run_locks[i].waits;
        locks[i].wait_cycles += run_locks[i].wait_cycles;
        locks[i].aborts_caused += run_locks[i].aborts_caused;
    }
}

} // namespace pimstm::core
