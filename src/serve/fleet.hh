/**
 * @file
 * Fault-tolerant fleet serving: one scheduler routing streams
 * across N Accelerator replicas — optionally heterogeneous array
 * configs — each with its own PlanCache, all in the deterministic
 * virtual clock.
 *
 * The single-accelerator StreamScheduler hardened one failure
 * domain: a request (faults retry, overload sheds, the scheduler
 * never dies). The fleet scheduler hardens the next one up: a
 * *replica* can crash, brown out, drain, or restart without losing
 * requests. The moving parts:
 *
 *  - **Routing** (serve/router.hh): every request instance is
 *    placed by consistent-hash (workload-keyed, cache affinity) or
 *    least-loaded placement over the replicas the scheduler
 *    currently believes healthy.
 *  - **Failure detection from missed completions**: a crash kills
 *    the replica's running and queued instances silently; the
 *    scheduler learns of it at the earlier of the first missed
 *    completion (the earliest expected finish among the killed
 *    running instances) and the heartbeat bound
 *    crash + detect_delay_s.
 *  - **Bounded failover**: a detected-lost instance whose request
 *    has no other live instance is re-dispatched to a healthy
 *    replica (the crashed one excluded), at most max_failovers
 *    times per request, reusing the PR 6 retry/backoff semantics
 *    for the compute attempts of every instance. With the budget
 *    exhausted — or no routable replica left and none restarting —
 *    the request fails with a typed loss, never silently.
 *  - **Draining**: a draining replica finishes its queued and
 *    running work but receives no new placements; drain end
 *    returns it to rotation.
 *  - **Restart**: a restarted replica comes back with cold lanes
 *    and its PlanCache intact. Pair simulations all run before the
 *    event loop, so restart timing never depends on what the
 *    cache holds.
 *  - **Hedged requests** (opt-in, hedge_delay_s > 0): a request
 *    still unresolved hedge_delay_s after arrival launches one
 *    duplicate instance on a different replica; the first
 *    completion wins, the loser is cancelled (if queued) or runs
 *    to waste (if running — lanes are non-preemptive), and every
 *    hedge reconciles in the counters as exactly one of
 *    win/loss/failed.
 *
 * Determinism contract: simulations fan out across a thread pool
 * (one per distinct (workload, replica) pair — requests carrying
 * the same workload are the same simulation, so results are
 * per-pair by construction); the event loop that routes,
 * dispatches, detects, fails over, and hedges runs serially on the
 * draining thread over deterministic inputs. Outcomes, timings,
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
#include "serve/stream_scheduler.hh"
#include "serve/telemetry.hh"
#include "serve/virtual_clock.hh"

namespace s2ta {

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

/** One completed fleet request: the single-accelerator completion
 *  plus where it was served and what it survived. */
struct FleetCompletion : Completion
{
    /** Replica that served (or terminally failed) the request;
     *  -1 when shed or lost before any dispatch. */
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
};

/** Aggregate counters over everything a fleet scheduler drained. */
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

    // Instance accounting. faulted_attempts == retries +
    // failed_instances holds exactly (the PR 6 reconciliation, per
    // instance instead of per request).
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
};

class FleetScheduler
{
  public:
    struct Options
    {
        /** Shared simulation knobs. run.plan_cache is ignored —
         *  each replica's own cache (FleetReplica::cache) is used
         *  for its simulations; run.fault arms per-attempt compute
         *  faults and stalls exactly as in StreamScheduler. */
        NetworkRunOptions run;
        /** Simulation fan-out lanes (0 = process-wide pool, 1 =
         *  serial, N > 1 = dedicated pool), as in StreamScheduler.
         *  Results and virtual timings are identical at any
         *  setting. */
        int threads = 0;
        /** Per-replica virtual deployment: lanes and clock. */
        VirtualClockConfig clock;
        /** Dispatch-order policy within each replica's queue;
         *  borrowed, nullptr = round-robin. */
        const AdmissionPolicy *policy = nullptr;
        /** Queue caps, infeasible shedding, and the per-instance
         *  retry budget + backoff (PR 6 semantics). */
        OverloadConfig overload;
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
        /** Invoked once per completion during drain(), in
         *  deterministic admission order. */
        std::function<void(const FleetCompletion &)> on_complete;
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

    /** Append a request (same contract as StreamScheduler::submit;
     *  ids are assigned in submission order). */
    uint64_t submit(int stream, const ModelWorkload &mw,
                    double arrival_s = 0.0,
                    double deadline_s = kNoDeadline);

    /** Requests queued and not yet drained. */
    int64_t pending() const;

    /**
     * Run every queued request to resolution and deliver results:
     * simulate each distinct (workload, replica) pair across the
     * thread pool, then replay the serial fleet event loop
     * (arrivals, routing, dispatch, completions, crashes,
     * detections, failovers, hedges) over virtual time.
     *
     * @return completions grouped by stream (ascending stream id),
     *         each group in submission order.
     */
    std::vector<std::vector<FleetCompletion>> drain();

    /** Counters accumulated over every drain() so far. */
    const FleetStats &stats() const { return totals; }

    /** Per-replica usage, routing skew, failover/hedge counters,
     *  and cache-hit variance for the last drain(). */
    const FleetTelemetry &telemetry() const { return tele; }

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

    /** Servable identity of a workload: (zoo model name, batch). */
    static std::pair<std::string, int>
    workloadKey(const ModelWorkload &mw);

    const std::vector<FleetReplica> fleet;
    Options opts;
    ReplicaRouter router;
    std::unique_ptr<ThreadPool> own_pool;
    std::map<int, std::vector<Pending>> queues;
    uint64_t next_id = 1;
    FleetStats totals;
    FleetTelemetry tele;
};

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_FLEET_HH
