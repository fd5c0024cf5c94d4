/**
 * @file
 * Virtual-clock request timing for the serving layer.
 *
 * Serving latency in this repo is *simulated time*, not wall
 * clock: a request's service time is its NetworkRun's simulated
 * cycle total (the same accounting the paper's speedup and energy
 * claims rest on) divided by a configurable accelerator clock, and
 * its arrival time comes from a seeded open-loop Poisson trace. A
 * discrete-event loop over N virtual accelerator lanes then assigns
 * every request a start and finish instant: whenever a lane frees,
 * the configured AdmissionPolicy (serve/qos.hh) picks among the
 * requests that have arrived by that instant; when nothing is
 * waiting, virtual time advances to the next arrival.
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

/** Virtual start/finish instants assigned to one request. */
struct LaneAssignment
{
    double start_s = 0.0;
    double finish_s = 0.0;
    /** Lane the request ran on; -1 when shed. */
    int lane = 0;
    /** Why the request was shed (None = it was dispatched). A shed
     *  request's start/finish both equal the shed instant. */
    ShedReason shed = ShedReason::None;
};

/** What the event loop reports beyond the assignments. */
struct ScheduleStats
{
    /** High-water arrived-but-undispatched queue depth. */
    int64_t max_queue_depth = 0;
};

/**
 * Run the discrete-event loop: assign start/finish times to every
 * request in @p reqs (admission order) over @p cfg.lanes lanes,
 * dispatching per @p policy. Non-preemptive and work-conserving: a
 * free lane never idles while an arrived request waits, and a
 * dispatched request runs to completion. Returns assignments
 * indexed like @p reqs.
 */
std::vector<LaneAssignment>
scheduleOnLanes(const VirtualClockConfig &cfg,
                const std::vector<TimedRequest> &reqs,
                const AdmissionPolicy &policy);

/**
 * Overload-aware variant: queue caps shed a request the instant it
 * arrives over a full queue (global or its stream's), and
 * shed_infeasible sheds at dispatch time any waiting request whose
 * deadline cannot be met even if dispatched immediately (judged on
 * est_cycles). Sheds happen *in virtual time* on deterministic
 * inputs, so the shed set is a pure function of the trace and the
 * caps — identical at every thread count. With a default
 * OverloadConfig this is exactly the base loop.
 */
std::vector<LaneAssignment>
scheduleOnLanes(const VirtualClockConfig &cfg,
                const std::vector<TimedRequest> &reqs,
                const AdmissionPolicy &policy,
                const OverloadConfig &overload,
                ScheduleStats *stats = nullptr);

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
