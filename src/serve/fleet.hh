/**
 * @file
 * The serving loop: one discrete-event scheduler routing streams
 * across N Accelerator replicas — optionally heterogeneous array
 * configs — each with its own PlanCache, all in the deterministic
 * virtual clock. StreamScheduler (serve/stream_scheduler.hh) is its
 * one-replica configuration and scheduleOnLanes its one-replica run
 * over caller-supplied timings; no other virtual-time loop exists.
 *
 * A request is one failure domain: transient compute faults retry,
 * overload sheds, the scheduler never dies. A *replica* is the next
 * one up: it can crash, brown out, drain, or restart without losing
 * requests. The moving parts:
 *
 *  - **Routing** (serve/router.hh): every request instance is
 *    placed by consistent-hash (workload-keyed, cache affinity) or
 *    least-loaded placement over the replicas the scheduler
 *    currently believes healthy.
 *  - **One dispatch per instant**: every event at a virtual instant
 *    (completions, lifecycle, detections, arrivals, hedge timers,
 *    in that order) is handled before any free lane picks, so the
 *    admission policy sees every request that has arrived by the
 *    dispatch instant.
 *  - **Attempt faults at dispatch**: with Options::fault set, a
 *    dispatched instance rolls its attempts' LayerCompute and
 *    LayerStall sites (identities combineId(combineId(combineId(
 *    request id, instance), attempt), layer)). A failed attempt
 *    occupies the lane for its service time plus the backoff; a
 *    request shed before dispatch rolls nothing.
 *  - **Failure detection from missed completions**: a crash kills
 *    the replica's running and queued instances silently; the
 *    scheduler learns of it at the earlier of the first missed
 *    completion (the earliest expected finish among the killed
 *    running instances) and the heartbeat bound
 *    crash + detect_delay_s.
 *  - **Bounded failover**: a detected-lost instance whose request
 *    has no other live instance is re-dispatched to a healthy
 *    replica (the crashed one excluded), at most max_failovers
 *    times per request. With the budget exhausted — or no routable
 *    replica left and none restarting — the request fails with a
 *    typed loss, never silently.
 *  - **Draining**: a draining replica finishes its queued and
 *    running work but receives no new placements; drain end
 *    returns it to rotation.
 *  - **Restart**: a restarted replica comes back with cold lanes
 *    and its PlanCache intact. Simulations all run before the event
 *    loop, so restart timing never depends on what the cache holds.
 *  - **Hedged requests** (opt-in, hedge_delay_s > 0): a request
 *    still unresolved hedge_delay_s after arrival launches one
 *    duplicate instance on a different replica; the first
 *    completion wins, the loser is cancelled (if queued) or runs
 *    to waste (if running — lanes are non-preemptive), and every
 *    hedge reconciles in the counters as exactly one of
 *    win/loss/failed.
 *
 * Determinism contract: simulations fan out across a thread pool
 * and run clean (no fault is rolled there), one per distinct
 * (workload, replica) pair — or one per request on a
 * StreamScheduler, whose per-request work bench_serving_throughput
 * measures. The event loop that routes, dispatches, rolls faults,
 * detects, fails over, and hedges runs serially on the draining
 * thread over deterministic inputs. Outcomes, timings, fault sets,
 * failover sets, and hedge decisions are therefore identical at
 * every thread count, and every Ok completion's NetworkRun is
 * bitwise identical to a single-accelerator run of the same
 * workload (enforced by bench_fleet_serving and the serve tests).
 */

#ifndef S2TA_SERVE_FLEET_HH
#define S2TA_SERVE_FLEET_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/accelerator.hh"
#include "serve/router.hh"
#include "serve/telemetry.hh"
#include "serve/virtual_clock.hh"
#include "workload/model_workloads.hh"

namespace s2ta {

class FaultInjector;
class PlanCache;
class ThreadPool;

namespace serve {

/** One replica of the fleet: an accelerator plus its own plan
 *  cache. Both borrowed; the cache may be null. */
struct FleetReplica
{
    const Accelerator *accel = nullptr;
    PlanCache *cache = nullptr;
};

/** One scripted (or fault-derived) replica lifecycle event. */
struct ReplicaEvent
{
    enum class Kind
    {
        /** The replica dies: running and queued instances are
         *  lost; nothing is served until a Restart. */
        Crash,
        /** A crashed replica returns: cold lanes, cache intact. */
        Restart,
        /** Brownout: requests dispatched while it lasts run
         *  slowdown x slower (timing only, results untouched). */
        BrownoutStart,
        BrownoutEnd,
        /** Graceful drain: no new placements, queued and running
         *  work completes. */
        DrainStart,
        DrainEnd,
    };

    int replica = 0;
    Kind kind = Kind::Crash;
    /** Virtual instant the event applies at. */
    double at_s = 0.0;
    /** Service-time inflation factor (BrownoutStart only, > 1). */
    double slowdown = 1.0;
};

/** Artifact name of a replica event kind ("crash", ...). */
const char *replicaEventKindName(ReplicaEvent::Kind kind);

/**
 * Derive a deterministic replica lifecycle timeline from the
 * injector's replica-scoped sites: time is cut into slots of
 * @p slot_s seconds, and per (replica, slot) — identity
 * combineId(replica, slot) — an up replica rolls ReplicaCrash and
 * (independently) ReplicaStall for a one-slot brownout at
 * @p brownout_slowdown, while a down replica rolls ReplicaRestart.
 * The injector's per-site injected counters therefore reconcile
 * exactly with the crash/restart/brownout events the schedule
 * carries. Pure in (injector seed, rates, replicas, horizon,
 * slot) aside from the injector's counters.
 */
std::vector<ReplicaEvent>
deriveReplicaSchedule(const FaultInjector &fi, int replicas,
                      double horizon_s, double slot_s,
                      double brownout_slowdown = 2.0);

/** One resolved request, delivered in per-stream order. */
struct Completion
{
    /** Scheduler-assigned id, unique per scheduler. */
    uint64_t id = 0;
    int stream = 0;
    /** Zoo name of the model the request ran. */
    std::string model;
    /** Samples the request carried. */
    int batch = 1;
    /** GEMM simulations the request issued (sum of layer groups). */
    int64_t gemms = 0;

    // Virtual-clock timing (seconds of simulated time; see
    // serve/virtual_clock.hh). A closed-loop trace is just an
    // open-loop one where everything arrives at t = 0.
    double arrival_s = 0.0;
    double start_s = 0.0;
    double finish_s = 0.0;
    /** Deadline the request carried, or kNoDeadline. */
    double deadline_s = kNoDeadline;
    /** Lane the request was served (or terminally failed) on; -1
     *  when shed or lost before any dispatch. */
    int lane = -1;
    /** Simulated cycles of the served run (0 unless Ok). */
    int64_t service_cycles = 0;

    // Robustness outcome. Ok completions carry a run bitwise
    // identical to the fault-free baseline; Shed and Failed carry
    // an empty run — a fault or overload can delay or drop a
    // result, never corrupt one.
    Outcome outcome = Outcome::Ok;
    /** Why the request was shed (Shed outcome only). */
    ShedReason shed_reason = ShedReason::None;
    /** Attempts across every dispatched instance (at least 1). */
    int attempts = 1;
    /** Typed error of a compute failure: the layer whose injected
     *  fault aborted the final attempt; -1 otherwise. */
    int fault_layer = -1;
    /** Injected layer faults across every attempt. */
    int64_t fault_count = 0;
    /** Injected stall cycles (virtual timing only, never results). */
    int64_t stall_cycles = 0;
    /** Virtual seconds of failed attempts + backoff + stalls,
     *  accrued on the final instance's lane. */
    double retry_delay_s = 0.0;

    // Where the request was served and what it survived.
    /** Replica of the final instance; -1 when shed or lost before
     *  any dispatch. */
    int replica = -1;
    /** Crash-driven re-dispatches this request consumed. */
    int failovers = 0;
    /** Dispatch instances created (1 + failovers + hedge). */
    int instances = 1;
    /** A hedge instance was launched for this request. */
    bool hedged = false;
    /** The hedge instance delivered the winning completion. */
    bool hedge_won = false;
    /** Failed because replica loss exhausted the failover budget
     *  (or left no routable replica), not because of compute
     *  faults. */
    bool lost_to_crash = false;

    bool ok() const { return outcome == Outcome::Ok; }
    bool shed() const { return outcome == Outcome::Shed; }
    bool failed() const { return outcome == Outcome::Failed; }

    /** The whole-network simulation outcome (Ok only). */
    NetworkRun run;

    /** This completion's timing, ready for LatencyTelemetry. */
    LatencySample
    sample() const
    {
        return LatencySample{stream, arrival_s, start_s, finish_s,
                             deadline_s};
    }

    bool
    missedDeadline() const
    {
        return sample().missedDeadline();
    }
};

/** The one counter ledger: everything a scheduler drained. */
struct FleetStats
{
    int64_t requests = 0;
    int64_t completed = 0;
    /** Requests resolved Failed = failed_compute + failed_crash. */
    int64_t failed = 0;
    /** Retry budget exhausted on every instance. */
    int64_t failed_compute = 0;
    /** Replica loss exhausted the failover budget / no replica. */
    int64_t failed_crash = 0;
    int64_t shed_queue_full = 0;
    int64_t shed_stream_full = 0;
    int64_t shed_infeasible = 0;
    /** Served-work totals (Ok requests only). */
    int64_t layers = 0;
    int64_t gemms = 0;
    int64_t dense_macs = 0;

    // Instance accounting over every dispatched instance, wasted
    // hedge losers and crash-killed runs included, so the fault
    // counters reconcile exactly with the injector's per-site
    // totals. faulted_attempts == retries + failed_instances.
    int64_t instances = 0;
    int64_t failovers = 0;
    /** Instances killed by a replica crash. */
    int64_t lost_instances = 0;
    int64_t retries = 0;
    int64_t faulted_attempts = 0;
    /** Instances whose whole retry budget faulted. */
    int64_t failed_instances = 0;
    int64_t layer_faults = 0;
    int64_t stall_events = 0;
    int64_t stall_cycles = 0;

    // Replica lifecycle.
    int64_t crashes = 0;
    int64_t restarts = 0;
    int64_t brownouts = 0;
    int64_t drains = 0;

    /** High-water queued-instance depth across the fleet. */
    int64_t max_queue_depth = 0;
    /** Latest completion instant the drain produced. */
    double makespan_s = 0.0;

    int64_t
    shedTotal() const
    {
        return shed_queue_full + shed_stream_full + shed_infeasible;
    }

    /** Zero-lost-requests invariant: every submission resolved to
     *  exactly one Ok / Shed / Failed, and the attempt ledger
     *  balances. */
    bool
    reconciles() const
    {
        return requests == completed + failed + shedTotal() &&
               failed == failed_compute + failed_crash &&
               faulted_attempts == retries + failed_instances;
    }

    bool operator==(const FleetStats &) const = default;
};

class FleetScheduler
{
  public:
    struct Options
    {
        /**
         * Simulation knobs every request shares: engine,
         * validation, compute_output, and run.plan_cache — the
         * StreamScheduler's one cache. A FleetScheduler ignores
         * run.plan_cache and uses each replica's own.
         */
        NetworkRunOptions run;
        /** Simulation fan-out lanes: 0 = one per hardware thread
         *  (the process-wide pool), 1 = serial, N > 1 = a
         *  dedicated pool of N lanes. Results and virtual timings
         *  are identical at any setting. */
        int threads = 0;
        /** Per-replica virtual deployment: lanes and clock.
         *  Independent of `threads`. */
        VirtualClockConfig clock;
        /** Dispatch-order policy within each replica's queue;
         *  borrowed, nullptr = round-robin (admission order).
         *  Policies never change simulation results, only
         *  start/finish instants. */
        const AdmissionPolicy *policy = nullptr;
        /** Queue caps, infeasible shedding, and the per-instance
         *  retry budget + backoff. Defaults admit everything and
         *  never retry. */
        OverloadConfig overload;
        /** Attempt faults (LayerCompute / LayerStall), rolled at
         *  dispatch; borrowed, nullptr = no faults. */
        const FaultInjector *fault = nullptr;
        /** Placement policy for the router. */
        PlacementKind placement = PlacementKind::LeastLoaded;
        /** Heartbeat bound on failure detection: a crash is
         *  detected at the earlier of the first missed completion
         *  and crash + detect_delay_s (0 = the heartbeat detects
         *  immediately). */
        double detect_delay_s = 0.0;
        /** Crash-driven re-dispatches allowed per request. */
        int max_failovers = 2;
        /** Hedge launch delay after arrival; 0 = hedging off. */
        double hedge_delay_s = 0.0;
        /** Scripted replica lifecycle (see deriveReplicaSchedule
         *  for the fault-derived variant). Applied per drain(). */
        std::vector<ReplicaEvent> schedule;
        /** Invoked once per completion during drain(), on the
         *  draining thread, in deterministic admission order
         *  (round-robin across streams, submission order within a
         *  stream) whatever the policy. */
        std::function<void(const Completion &)> on_complete;
    };

    /**
     * @param replicas the fleet; accelerators (and caches, when
     *        set) are borrowed and must outlive the scheduler.
     */
    FleetScheduler(std::vector<FleetReplica> replicas, Options opts);
    ~FleetScheduler();

    FleetScheduler(const FleetScheduler &) = delete;
    FleetScheduler &operator=(const FleetScheduler &) = delete;

    int replicas() const { return static_cast<int>(fleet.size()); }

    /**
     * Append a request for @p mw to @p stream's queue. The workload
     * is borrowed and must stay alive until drain() returns.
     * @param arrival_s virtual arrival instant (open-loop traces
     *        come from poissonArrivals; 0 = closed-loop).
     * @param deadline_s virtual completion deadline, or
     *        kNoDeadline.
     * @return the scheduler-assigned request id (1, 2, ... in
     *         submission order). Not thread-safe: one driver
     *         thread submits and drains.
     */
    uint64_t submit(int stream, const ModelWorkload &mw,
                    double arrival_s = 0.0,
                    double deadline_s = kNoDeadline);

    /** Requests queued and not yet drained. */
    int64_t pending() const;

    /**
     * Run every queued request to resolution and deliver results:
     * admit round-robin across streams (ascending stream id, one
     * request per stream per round), simulate across the thread
     * pool, then replay the serial event loop (arrivals, routing,
     * dispatch, faults, completions, crashes, detections,
     * failovers, hedges) over virtual time.
     *
     * @return completions grouped by stream (ascending stream id),
     *         each group in submission order.
     */
    std::vector<std::vector<Completion>> drain();

    /** Counters accumulated over every drain() so far. */
    const FleetStats &stats() const { return totals; }

    /** Per-replica usage, routing skew, failover/hedge counters,
     *  and cache-hit variance for the last drain(). */
    const FleetTelemetry &telemetry() const { return tele; }

    /** GEMM simulations one request for @p mw issues. */
    static int64_t gemmCount(const ModelWorkload &mw);

  protected:
    /** One replica, @p acc with run.plan_cache, simulating every
     *  request rather than every distinct workload (the
     *  StreamScheduler). */
    FleetScheduler(const Accelerator &acc, Options opts);

  private:
    struct Pending
    {
        uint64_t id;
        int stream;
        const ModelWorkload *model;
        double arrival_s;
        double deadline_s;
    };

    ThreadPool *pool() const;

    const std::vector<FleetReplica> fleet;
    Options opts;
    /** Simulate each request, not each distinct workload. */
    bool each_request = false;
    ReplicaRouter router;
    std::unique_ptr<ThreadPool> own_pool;
    std::map<int, std::vector<Pending>> queues;
    uint64_t next_id = 1;
    FleetStats totals;
    FleetTelemetry tele;
};

/** Virtual start/finish instants scheduleOnLanes assigns. */
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

/**
 * The serving loop on one replica of @p cfg.lanes lanes over
 * caller-supplied timings: @p reqs in admission order, each served
 * for its service_cycles and ordered by its est_cycles, dispatched
 * per @p policy under @p overload's queue caps and infeasible
 * shedding (no faults, so no retries). Non-preemptive and
 * work-conserving. Returns assignments indexed like @p reqs.
 */
std::vector<LaneAssignment>
scheduleOnLanes(const VirtualClockConfig &cfg,
                const std::vector<TimedRequest> &reqs,
                const AdmissionPolicy &policy,
                const OverloadConfig &overload);

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_FLEET_HH
