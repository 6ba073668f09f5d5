#include "capacity.hh"

#include <sstream>

namespace perfbench
{

CapacityResult
searchCapacity(const std::function<bool(double)> &meets, double floor,
               double ceiling)
{
    CapacityResult res;
    auto probe = [&](double rate) {
        const bool ok = meets(rate);
        res.probes.push_back({rate, ok});
        return ok;
    };
    if (!(floor > 0 && ceiling > floor)) {
        res.error = "bad capacity search bracket";
        return res;
    }
    if (!probe(floor)) {
        std::ostringstream os;
        os << "the floor rate " << floor << " req/s fails the SLO";
        res.error = os.str();
        return res;
    }
    double good = floor;
    double bad = 0.0;
    for (double rate = 2 * floor; rate < ceiling; rate *= 2) {
        if (!probe(rate)) {
            bad = rate;
            break;
        }
        good = rate;
    }
    if (bad == 0.0) {
        std::ostringstream os;
        os << "no probe below the ceiling " << ceiling
           << " req/s failed: the knee is not bracketed";
        res.error = os.str();
        return res;
    }
    while (bad > good * (1.0 + kCapacityResolution)) {
        const double mid = 0.5 * (good + bad);
        if (probe(mid))
            good = mid;
        else
            bad = mid;
    }
    res.capacity_per_s = good;
    res.failing_per_s = bad;
    return res;
}

} // namespace perfbench
