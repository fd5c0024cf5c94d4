#include "serve/virtual_clock.hh"

#include <cmath>

namespace s2ta {
namespace serve {

std::vector<double>
poissonArrivals(int n, double rate_rps, Rng &rng)
{
    s2ta_assert(n >= 0, "n=%d", n);
    s2ta_assert(rate_rps > 0.0, "rate_rps=%g", rate_rps);
    std::vector<double> arrivals(static_cast<size_t>(n));
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
        // Inverse-CDF exponential gap; u in [0, 1) keeps the log
        // argument strictly positive.
        const double u = rng.uniformReal();
        t += -std::log1p(-u) / rate_rps;
        arrivals[static_cast<size_t>(i)] = t;
    }
    return arrivals;
}

} // namespace serve
} // namespace s2ta
