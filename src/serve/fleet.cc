#include "serve/fleet.hh"

#include <algorithm>
#include <queue>

#include "arch/plan_cache.hh"
#include "base/fault_injection.hh"
#include "base/thread_pool.hh"
#include "obs/trace.hh"

namespace s2ta {
namespace serve {

const char *
replicaEventKindName(ReplicaEvent::Kind kind)
{
    switch (kind) {
      case ReplicaEvent::Kind::Crash: return "crash";
      case ReplicaEvent::Kind::Restart: return "restart";
      case ReplicaEvent::Kind::BrownoutStart: return "brownout-start";
      case ReplicaEvent::Kind::BrownoutEnd: return "brownout-end";
      case ReplicaEvent::Kind::DrainStart: return "drain-start";
      case ReplicaEvent::Kind::DrainEnd: return "drain-end";
    }
    s2ta_panic("unknown replica event kind %d", int(kind));
}

std::vector<ReplicaEvent>
deriveReplicaSchedule(const FaultInjector &fi, int replicas,
                      double horizon_s, double slot_s,
                      double brownout_slowdown)
{
    s2ta_assert(replicas >= 1, "replicas=%d", replicas);
    s2ta_assert(slot_s > 0.0, "slot_s=%g", slot_s);
    s2ta_assert(brownout_slowdown >= 1.0, "brownout_slowdown=%g",
                brownout_slowdown);
    std::vector<ReplicaEvent> schedule;
    std::vector<bool> up(static_cast<size_t>(replicas), true);
    for (uint64_t slot = 0;
         static_cast<double>(slot) * slot_s < horizon_s; ++slot) {
        const double t = static_cast<double>(slot) * slot_s;
        for (int r = 0; r < replicas; ++r) {
            const uint64_t id = FaultInjector::combineId(
                static_cast<uint64_t>(r), slot);
            if (up[static_cast<size_t>(r)]) {
                if (fi.shouldFail(FaultSite::ReplicaCrash, id)) {
                    schedule.push_back(
                        {r, ReplicaEvent::Kind::Crash, t, 1.0});
                    up[static_cast<size_t>(r)] = false;
                    continue;
                }
                if (fi.shouldFail(FaultSite::ReplicaStall, id)) {
                    schedule.push_back(
                        {r, ReplicaEvent::Kind::BrownoutStart, t,
                         brownout_slowdown});
                    schedule.push_back(
                        {r, ReplicaEvent::Kind::BrownoutEnd,
                         t + slot_s, 1.0});
                }
            } else if (fi.shouldFail(FaultSite::ReplicaRestart,
                                     id)) {
                schedule.push_back(
                    {r, ReplicaEvent::Kind::Restart, t, 1.0});
                up[static_cast<size_t>(r)] = true;
            }
        }
    }
    return schedule;
}

FleetScheduler::FleetScheduler(std::vector<FleetReplica> replicas,
                               Options opts_)
    : fleet(std::move(replicas)), opts(std::move(opts_)),
      router(static_cast<int>(fleet.size()), opts.placement),
      tele(static_cast<int>(fleet.size()))
{
    s2ta_assert(!fleet.empty(), "fleet is empty");
    for (const FleetReplica &rep : fleet)
        s2ta_assert(rep.accel, "replica without an accelerator");
    s2ta_assert(opts.threads >= 0, "threads=%d", opts.threads);
    s2ta_assert(opts.clock.lanes >= 1, "clock.lanes=%d",
                opts.clock.lanes);
    s2ta_assert(opts.clock.clock_ghz > 0.0, "clock_ghz=%g",
                opts.clock.clock_ghz);
    s2ta_assert(opts.max_failovers >= 0, "max_failovers=%d",
                opts.max_failovers);
    s2ta_assert(opts.detect_delay_s >= 0.0, "detect_delay_s=%g",
                opts.detect_delay_s);
    s2ta_assert(opts.hedge_delay_s >= 0.0, "hedge_delay_s=%g",
                opts.hedge_delay_s);
    for (const ReplicaEvent &ev : opts.schedule) {
        s2ta_assert(ev.replica >= 0 &&
                        ev.replica < this->replicas(),
                    "scheduled event for replica %d of %d",
                    ev.replica, this->replicas());
        s2ta_assert(ev.at_s >= 0.0, "scheduled event at %g s",
                    ev.at_s);
    }
    if (opts.threads > 1)
        own_pool = std::make_unique<ThreadPool>(opts.threads - 1);
}

FleetScheduler::~FleetScheduler() = default;

ThreadPool *
FleetScheduler::pool() const
{
    if (opts.threads == 1)
        return nullptr;
    return own_pool ? own_pool.get() : &ThreadPool::global();
}

std::pair<std::string, int>
FleetScheduler::workloadKey(const ModelWorkload &mw)
{
    return {mw.spec.name,
            mw.layers.empty() ? 1 : mw.layers.front().batch};
}

uint64_t
FleetScheduler::submit(int stream, const ModelWorkload &mw,
                       double arrival_s, double deadline_s)
{
    s2ta_assert(stream >= 0, "stream=%d", stream);
    s2ta_assert(arrival_s >= 0.0, "arrival_s=%g", arrival_s);
    const uint64_t id = next_id++;
    queues[stream].push_back(
        Pending{id, stream, &mw, arrival_s, deadline_s});
    return id;
}

int64_t
FleetScheduler::pending() const
{
    int64_t n = 0;
    for (const auto &[stream, q] : queues)
        n += static_cast<int64_t>(q.size());
    return n;
}

namespace {

/** One dispatch attempt lineage of one request on one replica. */
struct Instance
{
    enum class St
    {
        /** Waiting in its replica's queue. */
        Queued,
        /** On a lane; a completion event is pending. */
        Running,
        /** Running on a replica that crashed — the scheduler has
         *  not noticed yet (the completion will never be believed). */
        LostRunning,
        /** No routable replica existed; waiting for a restart. */
        Stranded,
        /** Ran to its virtual finish (success or compute failure). */
        Finished,
        /** Removed before dispatch (hedge loser, infeasible shed). */
        Cancelled,
        /** Killed by a detected replica crash. */
        Lost,
    };

    size_t req = 0;
    int seq = 0;
    int replica = -1;
    St st = St::Queued;
    bool is_hedge = false;
    double start_s = 0.0;
    double finish_s = 0.0;
    int lane = -1;
    /** Filled at dispatch (attempts == 0 means never dispatched). */
    int attempts = 0;
    int faulted_attempts = 0;
    int fault_layer = -1;
    int64_t fault_count = 0;
    int64_t stall_events = 0;
    int64_t stall_cycles = 0;
    double extra_delay_s = 0.0;
    bool compute_failed = false;
};

/** Event-loop state of one admitted request. */
struct ReqState
{
    size_t widx = 0;
    uint64_t identity = 0;
    /** Instances in {Queued, Running, LostRunning, Stranded}. */
    int live = 0;
    int next_seq = 0;
    int failovers = 0;
    bool hedged = false;
    bool resolved = false;
    Outcome outcome = Outcome::Ok;
    ShedReason reason = ShedReason::None;
    /** Winning instance (Ok), or the last compute-failed one. */
    int final_inst = -1;
    double resolve_s = 0.0;
    bool hedge_won = false;
    bool lost_to_crash = false;
    std::vector<int> members;
};

/** Event-loop state of one replica. */
struct Rep
{
    bool up = true;
    bool detected_down = false;
    bool draining = false;
    double slowdown = 1.0;
    int crash_epoch = 0;
    std::vector<double> lane_free;
    /** Queued instance indices, enqueue order. */
    std::vector<int> queue;
    /** Queued + running instances (the router's load signal). */
    int64_t outstanding = 0;
};

/** One discrete event. Priority within an instant: completions
 *  land before lifecycle transitions, which land before
 *  detections, arrivals, and hedge timers — so a request finishing
 *  exactly when its replica crashes still completes, and a restart
 *  at the detection instant still recovers the lost work first. */
struct Ev
{
    double t = 0.0;
    int prio = 0;
    uint64_t seq = 0;
    int a = 0;
    int b = 0;
};

struct EvAfter
{
    bool
    operator()(const Ev &l, const Ev &r) const
    {
        if (l.t != r.t)
            return l.t > r.t;
        if (l.prio != r.prio)
            return l.prio > r.prio;
        return l.seq > r.seq;
    }
};

constexpr int kEvCompletion = 0;
constexpr int kEvLifecycle = 1;
constexpr int kEvDetection = 2;
constexpr int kEvArrival = 3;
constexpr int kEvHedge = 4;

} // anonymous namespace

std::vector<std::vector<FleetCompletion>>
FleetScheduler::drain()
{
    const int R = replicas();
    const size_t nR = static_cast<size_t>(R);

    // Admission: identical to StreamScheduler — round-robin across
    // streams in ascending stream id, one request per stream per
    // round; deterministic in the submission sequence alone.
    std::vector<Pending> admitted;
    admitted.reserve(static_cast<size_t>(pending()));
    for (size_t round = 0; true; ++round) {
        bool any = false;
        for (const auto &[stream, q] : queues) {
            if (round < q.size()) {
                admitted.push_back(q[round]);
                any = true;
            }
        }
        if (!any)
            break;
    }

    // Distinct workloads, first-seen in admission order. Requests
    // carrying the same (model, batch) are the same simulation, so
    // phase 1 simulates (workload x replica) pairs, not requests.
    std::map<std::pair<std::string, int>, size_t> widx_of;
    std::vector<const ModelWorkload *> workloads;
    std::vector<size_t> req_widx(admitted.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
        const auto key = workloadKey(*admitted[i].model);
        auto it = widx_of.find(key);
        if (it == widx_of.end()) {
            it = widx_of.emplace(key, workloads.size()).first;
            workloads.push_back(admitted[i].model);
        }
        req_widx[i] = it->second;
    }
    const size_t W = workloads.size();

    // Phase 1 — simulate every (workload, replica) pair across the
    // thread pool, each against its replica's own accelerator and
    // PlanCache. Clean runs: per-attempt fault sites are rolled in
    // phase 2 without re-simulating (a surviving attempt's result
    // IS the clean result; a faulted attempt aborts before
    // simulating), so the pair results are fault-, policy-, and
    // routing-independent — and bitwise identical to a
    // single-accelerator run of the same workload on the same
    // config.
    std::vector<NetworkRun> pair_runs(W * nR);
    const auto sim_one = [&](int64_t p) {
        const size_t w = static_cast<size_t>(p) / nR;
        const size_t r = static_cast<size_t>(p) % nR;
        NetworkRunOptions ro = opts.run;
        ro.fault = nullptr;
        ro.fault_id = 0;
        ro.plan_cache = fleet[r].cache;
        pair_runs[static_cast<size_t>(p)] =
            fleet[r].accel->runNetwork(workloads[w]->layers, ro);
    };
    ThreadPool *tp = pool();
    if (tp && W * nR > 1) {
        tp->parallelFor(static_cast<int64_t>(W * nR), sim_one);
    } else {
        for (size_t p = 0; p < W * nR; ++p)
            sim_one(static_cast<int64_t>(p));
    }
    const auto pair_cycles = [&](size_t w, size_t r) {
        return pair_runs[w * nR + r].total.cycles;
    };

    // Phase 2 — the serial fleet event loop over virtual time.
    tele = FleetTelemetry(R);
    std::vector<ReqState> rstate(admitted.size());
    std::vector<Instance> insts;
    std::vector<Rep> reps(nR);
    for (Rep &rep : reps)
        rep.lane_free.assign(
            static_cast<size_t>(opts.clock.lanes), 0.0);
    std::vector<int> stranded;
    int64_t global_queued = 0;
    std::map<int, int64_t> stream_queued;
    const AdmissionPolicy &policy =
        opts.policy ? *opts.policy
                    : policyFor(PolicyKind::RoundRobin);
    const bool inject = opts.run.fault != nullptr;
    const int max_attempts =
        1 + std::max(0, opts.overload.max_retries);

    // The policy's view of the admitted requests. est_cycles pins
    // at the primary placement's service cycles (SJF ordering and
    // the infeasibility judgment both want one stable estimate per
    // request, even on a heterogeneous fleet).
    std::vector<TimedRequest> timed(admitted.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
        timed[i].arrival_s = admitted[i].arrival_s;
        timed[i].deadline_s = admitted[i].deadline_s;
        timed[i].stream = admitted[i].stream;
        timed[i].id = admitted[i].id;
        rstate[i].widx = req_widx[i];
        rstate[i].identity = workloadIdentity(
            workloads[req_widx[i]]->spec.name,
            workloads[req_widx[i]]->layers.empty()
                ? 1
                : workloads[req_widx[i]]->layers.front().batch);
    }

    std::priority_queue<Ev, std::vector<Ev>, EvAfter> pq;
    uint64_t evseq = 0;
    for (size_t i = 0; i < admitted.size(); ++i)
        pq.push(Ev{admitted[i].arrival_s, kEvArrival, evseq++,
                   static_cast<int>(i), 0});
    for (size_t k = 0; k < opts.schedule.size(); ++k)
        pq.push(Ev{opts.schedule[k].at_s, kEvLifecycle, evseq++,
                   static_cast<int>(k), 0});

    const auto routableSet = [&]() {
        std::vector<bool> routable(nR);
        for (size_t r = 0; r < nR; ++r)
            routable[r] =
                !reps[r].detected_down && !reps[r].draining;
        return routable;
    };
    const auto outstandingVec = [&]() {
        std::vector<int64_t> out(nR);
        for (size_t r = 0; r < nR; ++r)
            out[r] = reps[r].outstanding;
        return out;
    };

    const auto resolve = [&](size_t i, Outcome outcome,
                             ShedReason reason, int final_inst,
                             double t) {
        ReqState &rq = rstate[i];
        rq.resolved = true;
        rq.outcome = outcome;
        rq.reason = reason;
        rq.final_inst = final_inst;
        rq.resolve_s = t;
    };

    /** Detach a queued instance from its replica's queue and the
     *  cap accounting (dispatch, cancellation, or crash loss). */
    const auto unqueue = [&](int ii) {
        Instance &in = insts[static_cast<size_t>(ii)];
        std::vector<int> &q =
            reps[static_cast<size_t>(in.replica)].queue;
        q.erase(std::find(q.begin(), q.end(), ii));
        global_queued -= 1;
        stream_queued[admitted[in.req].stream] -= 1;
    };

    /** Create an instance of request @p i on replica @p r (or
     *  stranded when r < 0) at instant @p t. */
    const auto newInstance = [&](size_t i, int r, double t,
                                 bool is_hedge) {
        ReqState &rq = rstate[i];
        Instance in;
        in.req = i;
        in.seq = rq.next_seq++;
        in.replica = r;
        in.is_hedge = is_hedge;
        const int ii = static_cast<int>(insts.size());
        rq.members.push_back(ii);
        rq.live += 1;
        totals.instances += 1;
        if (r < 0) {
            in.st = Instance::St::Stranded;
            insts.push_back(in);
            stranded.push_back(ii);
            return ii;
        }
        in.st = Instance::St::Queued;
        insts.push_back(in);
        Rep &rep = reps[static_cast<size_t>(r)];
        rep.queue.push_back(ii);
        rep.outstanding += 1;
        global_queued += 1;
        stream_queued[admitted[i].stream] += 1;
        totals.max_queue_depth =
            std::max(totals.max_queue_depth, global_queued);
        tele.replica(r).routed += 1;
        (void)t;
        return ii;
    };

    /** Route a fresh instance of request @p i (arrival, failover,
     *  or hedge), stranding it when nothing is routable. */
    const auto routeInstance = [&](size_t i, double t, int exclude,
                                   bool is_hedge) {
        const int target =
            router.route(rstate[i].identity, routableSet(),
                         outstandingVec(), exclude);
        S2TA_TRACE_INSTANT("fleet", "place", target);
        return newInstance(i, target, t, is_hedge);
    };

    /** Dispatch instance @p ii on lane @p l of its replica: roll
     *  the attempt fault series (PR 6 identities, per instance),
     *  fold retries + backoff + stalls + brownout inflation into
     *  the lane occupancy, and schedule the completion. */
    const auto dispatch = [&](int ii, int l, double t) {
        Instance &in = insts[static_cast<size_t>(ii)];
        ReqState &rq = rstate[in.req];
        Rep &rep = reps[static_cast<size_t>(in.replica)];
        unqueue(ii);
        in.st = Instance::St::Running;
        in.lane = l;
        in.start_s = t;
        if (inject) {
            const uint64_t inst_id = FaultInjector::combineId(
                admitted[in.req].id,
                static_cast<uint64_t>(in.seq));
            const size_t n_layers =
                workloads[rq.widx]->layers.size();
            for (int a = 0; a < max_attempts; ++a) {
                const AttemptFaults af = evaluateAttemptFaults(
                    *opts.run.fault,
                    FaultInjector::combineId(
                        inst_id, static_cast<uint64_t>(a)),
                    n_layers);
                in.attempts = a + 1;
                in.fault_count += af.fault_count;
                in.stall_events += af.stall_events;
                in.stall_cycles += af.stall_cycles;
                if (!af.faulted()) {
                    in.compute_failed = false;
                    in.fault_layer = -1;
                    break;
                }
                in.faulted_attempts += 1;
                in.compute_failed = true;
                in.fault_layer = af.fault_layer;
            }
        } else {
            in.attempts = 1;
        }
        const double service_s =
            opts.clock.cyclesToSeconds(pair_cycles(
                rq.widx, static_cast<size_t>(in.replica))) *
            rep.slowdown;
        const int failed_attempts =
            in.attempts - (in.compute_failed ? 0 : 1);
        double extra =
            opts.clock.cyclesToSeconds(in.stall_cycles);
        for (int a = 0; a < failed_attempts; ++a) {
            extra += service_s;
            extra += opts.overload.retry_backoff_s *
                     static_cast<double>(int64_t{1}
                                         << std::min(a, 20));
        }
        in.extra_delay_s = extra;
        in.finish_s =
            t + (in.compute_failed ? 0.0 : service_s) + extra;
        rep.lane_free[static_cast<size_t>(l)] = in.finish_s;
        pq.push(Ev{in.finish_s, kEvCompletion, evseq++, ii, 0});
    };

    /** Work-conserving dispatch sweep: on every replica that is up,
     *  fill free lanes from the queue per the admission policy. */
    const auto dispatchAll = [&](double t) {
        for (size_t r = 0; r < nR; ++r) {
            Rep &rep = reps[r];
            if (!rep.up)
                continue;
            while (!rep.queue.empty()) {
                int lane = -1;
                for (size_t l = 0; l < rep.lane_free.size(); ++l) {
                    if (rep.lane_free[l] <= t) {
                        lane = static_cast<int>(l);
                        break;
                    }
                }
                if (lane < 0)
                    break;
                // The policy sees admission indices, as in the
                // single-accelerator event loop; each request has
                // at most one live instance per replica, so the
                // mapping back is unambiguous.
                std::vector<size_t> ready;
                std::map<size_t, int> inst_of;
                ready.reserve(rep.queue.size());
                for (const int ii : rep.queue) {
                    ready.push_back(
                        insts[static_cast<size_t>(ii)].req);
                    inst_of[insts[static_cast<size_t>(ii)].req] =
                        ii;
                }
                std::sort(ready.begin(), ready.end());
                const size_t picked = policy.pick(timed, ready);
                const int ii = inst_of.at(picked);
                Instance &in = insts[static_cast<size_t>(ii)];
                ReqState &rq = rstate[in.req];
                if (opts.overload.shed_infeasible &&
                    timed[picked].deadline_s != kNoDeadline &&
                    rq.live == 1 &&
                    t + opts.clock.cyclesToSeconds(
                            timed[picked].est_cycles) >
                        timed[picked].deadline_s) {
                    // Infeasible at dispatch time: shed instead of
                    // running hopelessly late (sole-instance
                    // requests only — a hedged request already has
                    // capacity invested). The lane stays free for
                    // the next pick.
                    unqueue(ii);
                    in.st = Instance::St::Cancelled;
                    reps[static_cast<size_t>(in.replica)]
                        .outstanding -= 1;
                    rq.live -= 1;
                    resolve(in.req, Outcome::Shed,
                            ShedReason::DeadlineInfeasible, -1, t);
                    continue;
                }
                dispatch(ii, lane, t);
            }
        }
    };

    /** The scheduler notices replica @p r is gone: every queued
     *  and silently-killed-running instance on it is lost; sole
     *  instances fail over (bounded) or fail typed. */
    const auto detectDown = [&](size_t r, double t) {
        Rep &rep = reps[r];
        rep.detected_down = true;
        for (size_t ii = 0; ii < insts.size(); ++ii) {
            Instance &in = insts[ii];
            if (in.replica != static_cast<int>(r))
                continue;
            if (in.st == Instance::St::Queued)
                unqueue(static_cast<int>(ii));
            else if (in.st != Instance::St::LostRunning)
                continue;
            in.st = Instance::St::Lost;
            rep.outstanding -= 1;
            totals.lost_instances += 1;
            ReqState &rq = rstate[in.req];
            // A discarded hedge loser's live count was already
            // settled at resolution; only unresolved requests
            // still carry this instance as live.
            if (rq.resolved)
                continue;
            rq.live -= 1;
            if (rq.live > 0)
                continue;
            if (rq.failovers < opts.max_failovers) {
                rq.failovers += 1;
                totals.failovers += 1;
                S2TA_TRACE_INSTANT("fleet", "failover", in.req);
                routeInstance(in.req, t, static_cast<int>(r),
                              false);
            } else {
                rstate[in.req].lost_to_crash = true;
                resolve(in.req, Outcome::Failed, ShedReason::None,
                        -1, t);
                if (rq.hedged)
                    tele.recordHedgeFailed();
            }
        }
    };

    const auto handleLifecycle = [&](const ReplicaEvent &ev,
                                     double t) {
        Rep &rep = reps[static_cast<size_t>(ev.replica)];
        S2TA_TRACE_INSTANT("fleet", replicaEventKindName(ev.kind),
                           ev.replica);
        switch (ev.kind) {
          case ReplicaEvent::Kind::Crash: {
            if (!rep.up)
                break;
            rep.up = false;
            rep.slowdown = 1.0;
            rep.crash_epoch += 1;
            totals.crashes += 1;
            // Failure detection from missed completions: the
            // heartbeat bounds detection at crash + detect_delay_s,
            // but the first *expected* completion that never
            // arrives tells the scheduler sooner.
            double detect_at = t + opts.detect_delay_s;
            for (Instance &in : insts) {
                if (in.replica == ev.replica &&
                    in.st == Instance::St::Running) {
                    in.st = Instance::St::LostRunning;
                    detect_at = std::min(detect_at, in.finish_s);
                }
            }
            pq.push(Ev{detect_at, kEvDetection, evseq++,
                       ev.replica, rep.crash_epoch});
            break;
          }
          case ReplicaEvent::Kind::Restart: {
            if (rep.up)
                break;
            // A restart observed before the crash was detected
            // forces the detection first: the lost instances are
            // not on the revived lanes.
            if (!rep.detected_down)
                detectDown(static_cast<size_t>(ev.replica), t);
            rep.up = true;
            rep.detected_down = false;
            rep.slowdown = 1.0;
            std::fill(rep.lane_free.begin(), rep.lane_free.end(),
                      t);
            totals.restarts += 1;
            // Stranded instances waited exactly for this.
            std::vector<int> still;
            for (const int ii : stranded) {
                Instance &in = insts[static_cast<size_t>(ii)];
                const int target = router.route(
                    rstate[in.req].identity, routableSet(),
                    outstandingVec(), -1);
                if (target < 0) {
                    still.push_back(ii);
                    continue;
                }
                in.replica = target;
                in.st = Instance::St::Queued;
                Rep &dst = reps[static_cast<size_t>(target)];
                dst.queue.push_back(ii);
                dst.outstanding += 1;
                global_queued += 1;
                stream_queued[admitted[in.req].stream] += 1;
                totals.max_queue_depth = std::max(
                    totals.max_queue_depth, global_queued);
                tele.replica(target).routed += 1;
            }
            stranded = std::move(still);
            break;
          }
          case ReplicaEvent::Kind::BrownoutStart:
            if (rep.up) {
                rep.slowdown = std::max(1.0, ev.slowdown);
                totals.brownouts += 1;
            }
            break;
          case ReplicaEvent::Kind::BrownoutEnd:
            rep.slowdown = 1.0;
            break;
          case ReplicaEvent::Kind::DrainStart:
            if (!rep.draining) {
                rep.draining = true;
                totals.drains += 1;
            }
            break;
          case ReplicaEvent::Kind::DrainEnd:
            rep.draining = false;
            break;
        }
    };

    /** First completion wins: settle the hedge and discard the
     *  loser (cancelled if still queued, run to waste if on a lane
     *  — non-preemptive, stranded losers are simply dropped). */
    const auto settleHedge = [&](size_t i, int winner, double t) {
        ReqState &rq = rstate[i];
        if (insts[static_cast<size_t>(winner)].is_hedge) {
            rq.hedge_won = true;
            tele.recordHedgeWin();
        } else {
            tele.recordHedgeLoss();
        }
        for (const int m : rq.members) {
            if (m == winner)
                continue;
            Instance &in = insts[static_cast<size_t>(m)];
            switch (in.st) {
              case Instance::St::Queued:
                unqueue(m);
                in.st = Instance::St::Cancelled;
                reps[static_cast<size_t>(in.replica)].outstanding -=
                    1;
                rq.live -= 1;
                break;
              case Instance::St::Running:
              case Instance::St::LostRunning:
                rq.live -= 1;
                break;
              case Instance::St::Stranded:
                stranded.erase(std::find(stranded.begin(),
                                         stranded.end(), m));
                in.st = Instance::St::Cancelled;
                rq.live -= 1;
                break;
              default:
                break;
            }
        }
        (void)t;
    };

    const auto handleCompletion = [&](int ii, double t) {
        Instance &in = insts[static_cast<size_t>(ii)];
        if (in.st != Instance::St::Running)
            return; // Killed by a crash; nobody is listening.
        in.st = Instance::St::Finished;
        reps[static_cast<size_t>(in.replica)].outstanding -= 1;
        ReqState &rq = rstate[in.req];
        if (rq.resolved)
            return; // A wasted hedge loser ran out the clock.
        if (in.compute_failed) {
            rq.live -= 1;
            rq.final_inst = ii;
            if (rq.live == 0) {
                resolve(in.req, Outcome::Failed, ShedReason::None,
                        ii, t);
                if (rq.hedged)
                    tele.recordHedgeFailed();
            }
            return;
        }
        rq.live -= 1;
        resolve(in.req, Outcome::Ok, ShedReason::None, ii, t);
        if (rq.hedged)
            settleHedge(in.req, ii, t);
    };

    const auto handleArrival = [&](size_t i, double t) {
        const int stream = admitted[i].stream;
        if (opts.overload.global_queue_cap > 0 &&
            global_queued >= opts.overload.global_queue_cap) {
            resolve(i, Outcome::Shed, ShedReason::QueueFull, -1,
                    t);
            return;
        }
        if (opts.overload.stream_queue_cap > 0 &&
            stream_queued[stream] >=
                opts.overload.stream_queue_cap) {
            resolve(i, Outcome::Shed, ShedReason::StreamQueueFull,
                    -1, t);
            return;
        }
        const int ii = routeInstance(i, t, -1, false);
        timed[i].est_cycles = pair_cycles(
            rstate[i].widx,
            static_cast<size_t>(std::max(
                0, insts[static_cast<size_t>(ii)].replica)));
        timed[i].service_cycles = timed[i].est_cycles;
        if (opts.hedge_delay_s > 0.0 && R > 1)
            pq.push(Ev{t + opts.hedge_delay_s, kEvHedge, evseq++,
                       static_cast<int>(i), 0});
    };

    const auto handleHedge = [&](size_t i, double t) {
        ReqState &rq = rstate[i];
        if (rq.resolved || rq.hedged || rq.live != 1)
            return;
        int cur = -1;
        for (const int m : rq.members) {
            const Instance::St st =
                insts[static_cast<size_t>(m)].st;
            if (st == Instance::St::Queued ||
                st == Instance::St::Running ||
                st == Instance::St::LostRunning ||
                st == Instance::St::Stranded)
                cur = m;
        }
        if (cur < 0)
            return;
        const int exclude = insts[static_cast<size_t>(cur)].replica;
        const int target =
            router.route(rq.identity, routableSet(),
                         outstandingVec(), exclude);
        if (target < 0)
            return; // Nowhere to hedge to; not counted as launched.
        rq.hedged = true;
        tele.recordHedgeLaunched();
        S2TA_TRACE_INSTANT("fleet", "hedge", i);
        newInstance(i, target, t, true);
    };

    double t_last = 0.0;
    while (!pq.empty()) {
        const Ev e = pq.top();
        pq.pop();
        t_last = std::max(t_last, e.t);
        switch (e.prio) {
          case kEvCompletion:
            handleCompletion(e.a, e.t);
            break;
          case kEvLifecycle:
            handleLifecycle(opts.schedule[static_cast<size_t>(e.a)],
                            e.t);
            break;
          case kEvDetection: {
            Rep &rep = reps[static_cast<size_t>(e.a)];
            if (!rep.up && !rep.detected_down &&
                e.b == rep.crash_epoch)
                detectDown(static_cast<size_t>(e.a), e.t);
            break;
          }
          case kEvArrival:
            handleArrival(static_cast<size_t>(e.a), e.t);
            break;
          case kEvHedge:
            handleHedge(static_cast<size_t>(e.a), e.t);
            break;
          default:
            s2ta_panic("unknown event priority %d", e.prio);
        }
        dispatchAll(e.t);
    }

    // Requests still stranded when the trace ends (no replica ever
    // came back) fail typed — never silently dropped.
    for (size_t i = 0; i < admitted.size(); ++i) {
        if (rstate[i].resolved)
            continue;
        rstate[i].lost_to_crash = true;
        resolve(i, Outcome::Failed, ShedReason::None, -1, t_last);
        if (rstate[i].hedged)
            tele.recordHedgeFailed();
    }

    // Instance-level ledger (every dispatched instance, including
    // wasted hedge losers and crash-killed runs, so the counters
    // reconcile exactly with the injector's per-site totals).
    for (const Instance &in : insts) {
        if (in.attempts == 0)
            continue;
        totals.retries += in.attempts - 1;
        totals.faulted_attempts += in.faulted_attempts;
        if (in.compute_failed)
            totals.failed_instances += 1;
        totals.layer_faults += in.fault_count;
        totals.stall_events += in.stall_events;
        totals.stall_cycles += in.stall_cycles;
    }

    // Reduction: walk admission order and group completions by
    // stream, exactly like the single-accelerator scheduler.
    std::vector<std::vector<FleetCompletion>> by_stream(
        queues.size());
    std::map<int, size_t> stream_slot;
    for (const auto &[stream, q] : queues)
        stream_slot.emplace(stream, stream_slot.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
        const Pending &p = admitted[i];
        const ReqState &rq = rstate[i];
        FleetCompletion c;
        c.id = p.id;
        c.stream = p.stream;
        c.model = p.model->spec.name;
        c.batch = p.model->layers.empty()
                      ? 1
                      : p.model->layers.front().batch;
        c.gemms = StreamScheduler::gemmCount(*p.model);
        c.arrival_s = p.arrival_s;
        c.deadline_s = p.deadline_s;
        c.outcome = rq.outcome;
        c.shed_reason = rq.reason;
        c.failovers = rq.failovers;
        c.instances = std::max<int>(
            1, static_cast<int>(rq.members.size()));
        c.hedged = rq.hedged;
        c.hedge_won = rq.hedge_won;
        c.lost_to_crash = rq.lost_to_crash;
        int att = 0;
        for (const int m : rq.members) {
            const Instance &in = insts[static_cast<size_t>(m)];
            att += in.attempts;
            c.fault_count += in.fault_count;
            c.stall_cycles += in.stall_cycles;
        }
        c.attempts = std::max(1, att);
        if (rq.final_inst >= 0) {
            const Instance &in =
                insts[static_cast<size_t>(rq.final_inst)];
            c.replica = in.replica;
            c.lane = in.lane;
            c.start_s = in.start_s;
            c.finish_s = in.finish_s;
            c.retry_delay_s = in.extra_delay_s;
            c.fault_layer = in.fault_layer;
            if (rq.outcome == Outcome::Ok) {
                c.service_cycles = pair_cycles(
                    rq.widx, static_cast<size_t>(in.replica));
                c.run = pair_runs[rq.widx * nR +
                                  static_cast<size_t>(in.replica)];
            }
        } else {
            c.replica = -1;
            c.lane = -1;
            c.start_s = rq.resolve_s;
            c.finish_s = rq.resolve_s;
        }

        totals.requests += 1;
        switch (rq.outcome) {
          case Outcome::Ok:
            totals.completed += 1;
            totals.layers +=
                static_cast<int64_t>(p.model->layers.size());
            totals.gemms += c.gemms;
            totals.dense_macs += c.run.dense_macs;
            break;
          case Outcome::Failed:
            totals.failed += 1;
            if (rq.lost_to_crash)
                totals.failed_crash += 1;
            else
                totals.failed_compute += 1;
            break;
          case Outcome::Shed:
            switch (rq.reason) {
              case ShedReason::QueueFull:
                totals.shed_queue_full += 1;
                break;
              case ShedReason::StreamQueueFull:
                totals.shed_stream_full += 1;
                break;
              case ShedReason::DeadlineInfeasible:
                totals.shed_infeasible += 1;
                break;
              case ShedReason::None:
                s2ta_panic("Shed without a reason");
            }
            break;
        }
        totals.makespan_s =
            std::max(totals.makespan_s, c.finish_s);

        if (opts.on_complete)
            opts.on_complete(c);
        by_stream[stream_slot.at(p.stream)].push_back(
            std::move(c));
    }

    // Per-replica cache snapshot for the fleet telemetry's
    // cache-hit variance.
    for (int r = 0; r < R; ++r) {
        if (!fleet[static_cast<size_t>(r)].cache)
            continue;
        const PlanCache::Stats cs =
            fleet[static_cast<size_t>(r)].cache->stats();
        tele.replica(r).cache_hits = cs.hits;
        tele.replica(r).cache_misses = cs.misses;
    }

    queues.clear();
    return by_stream;
}

} // namespace serve
} // namespace s2ta
