/**
 * @file
 * Pluggable admission policies for latency-aware serving.
 *
 * The serving loop (serve/fleet.hh) asks a policy, every time a
 * lane is free at a virtual instant, which of the requests queued
 * by that instant to dispatch next. Three policies ship:
 *
 *  - RoundRobin: dispatch in admission order (round-robin across
 *    streams, submission order within a stream — the default);
 *  - EarliestDeadlineFirst: dispatch the arrived request whose
 *    deadline expires soonest (no-deadline requests sort last);
 *  - ShortestJobFirst: dispatch the arrived request with the
 *    smallest *estimated* service cycles: its simulated cycles on
 *    the replica it was first placed on.
 *
 * Every policy is deterministic: ties break on admission index, so
 * a fixed trace produces one dispatch order at any thread count.
 *
 * Policies only reorder *timing*. Which simulations run, and what
 * they compute, is policy-independent — NetworkRuns are bitwise
 * identical under every policy (enforced by bench_latency_serving
 * and the serve tests).
 */

#ifndef S2TA_SERVE_QOS_HH
#define S2TA_SERVE_QOS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace s2ta {
namespace serve {

/** Deadline value meaning "no deadline" (sorts after any real one). */
inline constexpr double kNoDeadline =
    std::numeric_limits<double>::infinity();

/**
 * The timing-relevant view of one admitted request, in virtual
 * seconds. Indices into a vector of these are *admission indices*:
 * the deterministic round-robin admission order of the scheduler.
 */
struct TimedRequest
{
    /** Open-loop arrival time (0 for closed-loop submissions). */
    double arrival_s = 0.0;
    /** Completion deadline, or kNoDeadline. */
    double deadline_s = kNoDeadline;
    /** Lane occupancy in cycles (scheduleOnLanes' input; a
     *  scheduler serves its simulated runs' cycles). */
    int64_t service_cycles = 0;
    /** Policy-visible service estimate. */
    int64_t est_cycles = 0;
    int stream = 0;
    /** Scheduler-assigned request id. */
    uint64_t id = 0;
};

/** Why an admitted request was shed instead of dispatched. */
enum class ShedReason
{
    None = 0,
    /** Arrived while the global ready queue was at its cap. */
    QueueFull,
    /** Arrived while its stream's queue was at its cap. */
    StreamQueueFull,
    /** Picked for dispatch, but could not meet its deadline even
     *  if dispatched then (judged on est_cycles). */
    DeadlineInfeasible,
};

/** Terminal state of one request's Completion. */
enum class Outcome
{
    /** Served; carries a NetworkRun bitwise identical to the
     *  fault-free run. */
    Ok = 0,
    /** Load-shed before dispatch; carries no run. */
    Shed,
    /** Every attempt hit an injected transient fault; carries the
     *  faulting layer as a typed error instead of a run. */
    Failed,
};

/**
 * Overload-control knobs of the serving loop: queue caps and
 * infeasible shedding, plus the retry budget of an instance whose
 * attempt faults. Defaults (all zero / false) mean "admit
 * everything, never retry".
 */
struct OverloadConfig
{
    /** Queued (arrived, undispatched) requests across all
     *  streams; later arrivals are shed. 0 = unbounded. */
    int64_t global_queue_cap = 0;
    /** Same cap, applied per stream. 0 = unbounded. */
    int64_t stream_queue_cap = 0;
    /** Shed a picked request whose deadline is infeasible at
     *  dispatch time instead of running it late (a request with a
     *  live hedge is exempt). */
    bool shed_infeasible = false;
    /** Retry attempts after a transient layer fault (the request
     *  fails with a typed error once exhausted). */
    int max_retries = 0;
    /** Base backoff before retry attempt a (doubles per attempt),
     *  in virtual seconds; accrues on the request's lane. */
    double retry_backoff_s = 0.0;
};

/**
 * Dispatch-order policy. pick() is called with the full admitted
 * request vector plus the admission indices of every request that
 * has arrived and not yet been dispatched (@p ready, ascending,
 * never empty) and returns one element of @p ready.
 *
 * Implementations must be stateless and deterministic (ties broken
 * on admission index), so one instance can serve any number of
 * concurrent schedulers.
 */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;
    /** CLI/artifact name ("rr", "edf", "sjf", ...). */
    virtual const char *name() const = 0;
    virtual size_t pick(const std::vector<TimedRequest> &all,
                        const std::vector<size_t> &ready) const = 0;
};

/** The built-in policies. */
enum class PolicyKind
{
    RoundRobin,
    EarliestDeadlineFirst,
    ShortestJobFirst,
};

/** Stateless shared instance of a built-in policy. */
const AdmissionPolicy &policyFor(PolicyKind kind);

/** Artifact name of a built-in policy ("rr" | "edf" | "sjf"). */
const char *policyName(PolicyKind kind);

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_QOS_HH
