#include "spans.hh"

#include <algorithm>
#include <fstream>

#include "util/logging.hh"

namespace perfbench
{

int
Spans::open(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.start_s = secondsSince(origin_);
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Spans::close(int id)
{
    if (id < 0)
        return;
    pimstm::panicIf(stack_.empty() || stack_.back() != id,
                    "span closed out of order");
    stack_.pop_back();
    Span &s = spans_[static_cast<size_t>(id)];
    s.end_s = secondsSince(origin_);
    if (s.parent >= 0)
        spans_[static_cast<size_t>(s.parent)].child_s += s.end_s - s.start_s;
}

void
Spans::attachRequests(int id, std::vector<pimstm::u32> requests)
{
    if (id >= 0)
        spans_[static_cast<size_t>(id)].requests = std::move(requests);
}

std::map<std::string, SpanTotals>
Spans::totals() const
{
    std::map<std::string, SpanTotals> out;
    for (const Span &s : spans_) {
        SpanTotals &t = out[s.name];
        const double d = s.end_s - s.start_s;
        ++t.count;
        t.total_s += d;
        t.self_s += d - s.child_s;
        t.max_s = std::max(t.max_s, d);
    }
    return out;
}

bool
Spans::writeJson(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f.precision(12);
    f << "{\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_s\": " << s.start_s
          << ", \"end_s\": " << s.end_s << ", \"parent\": " << s.parent;
        if (!s.requests.empty()) {
            f << ", \"requests\": [";
            for (size_t k = 0; k < s.requests.size(); ++k)
                f << (k ? "," : "") << s.requests[k];
            f << "]";
        }
        f << "}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

} // namespace perfbench
