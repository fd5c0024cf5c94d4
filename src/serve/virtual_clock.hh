/**
 * @file
 * Virtual-clock request timing for the serving layer.
 *
 * Serving latency in this repo is *simulated time*, not wall
 * clock: a request's service time is its NetworkRun's simulated
 * cycle total (the same accounting the paper's speedup and energy
 * claims rest on) divided by a configurable accelerator clock, and
 * its arrival time comes from a seeded open-loop Poisson trace. The
 * serving loop (serve/fleet.hh) then assigns every request a start
 * and finish instant on N virtual accelerator lanes: whenever a
 * lane is free, the configured AdmissionPolicy (serve/qos.hh) picks
 * among the requests that have arrived by that instant; when
 * nothing is waiting, virtual time advances to the next event.
 *
 * Everything here is exact double arithmetic over deterministic
 * inputs — no wall-clock reads, no randomness beyond the caller's
 * seeded Rng — so a fixed trace produces bit-identical timings on
 * every run, at every simulation thread count, on every machine.
 */

#ifndef S2TA_SERVE_VIRTUAL_CLOCK_HH
#define S2TA_SERVE_VIRTUAL_CLOCK_HH

#include <cstdint>
#include <vector>

#include "base/random.hh"
#include "serve/qos.hh"

namespace s2ta {
namespace serve {

/** The virtual accelerator deployment behind a scheduler. */
struct VirtualClockConfig
{
    /** Independent accelerator lanes serving requests. */
    int lanes = 1;
    /** Accelerator clock in GHz (cycles -> virtual seconds). */
    double clock_ghz = 1.0;

    double
    cyclesToSeconds(int64_t cycles) const
    {
        return static_cast<double>(cycles) / (clock_ghz * 1e9);
    }
};

/**
 * Open-loop Poisson arrival trace: @p n arrival instants with
 * exponential inter-arrival gaps at @p rate_rps requests per
 * virtual second, drawn from @p rng (seeded by the caller, so the
 * trace is a pure function of the seed). Returned ascending.
 */
std::vector<double> poissonArrivals(int n, double rate_rps,
                                    Rng &rng);

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_VIRTUAL_CLOCK_HH
