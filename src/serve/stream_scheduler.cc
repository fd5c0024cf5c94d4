#include "serve/stream_scheduler.hh"

#include <algorithm>

#include "base/fault_injection.hh"
#include "base/thread_pool.hh"
#include "obs/trace.hh"

namespace s2ta {
namespace serve {

StreamScheduler::StreamScheduler(const Accelerator &acc_,
                                 Options opts_)
    : acc(acc_), opts(std::move(opts_))
{
    s2ta_assert(opts.threads >= 0, "threads=%d", opts.threads);
    s2ta_assert(opts.clock.lanes >= 1, "clock.lanes=%d",
                opts.clock.lanes);
    s2ta_assert(opts.clock.clock_ghz > 0.0, "clock_ghz=%g",
                opts.clock.clock_ghz);
    if (opts.threads > 1)
        own_pool = std::make_unique<ThreadPool>(opts.threads - 1);
}

StreamScheduler::~StreamScheduler() = default;

ThreadPool *
StreamScheduler::pool() const
{
    if (opts.threads == 1)
        return nullptr;
    return own_pool ? own_pool.get() : &ThreadPool::global();
}

uint64_t
StreamScheduler::submit(int stream, const ModelWorkload &mw,
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
StreamScheduler::pending() const
{
    int64_t n = 0;
    for (const auto &[stream, q] : queues)
        n += static_cast<int64_t>(q.size());
    return n;
}

int64_t
StreamScheduler::gemmCount(const ModelWorkload &mw)
{
    int64_t gemms = 0;
    for (const LayerWorkload &wl : mw.layers)
        gemms += wl.shape.groups;
    return gemms;
}

std::pair<std::string, int>
StreamScheduler::workloadKey(const ModelWorkload &mw)
{
    return {mw.spec.name,
            mw.layers.empty() ? 1 : mw.layers.front().batch};
}

int64_t
StreamScheduler::estimatedCycles(const ModelWorkload &mw) const
{
    const auto it = cycle_estimates.find(workloadKey(mw));
    return it != cycle_estimates.end() ? it->second : 0;
}

std::vector<std::vector<Completion>>
StreamScheduler::drain()
{
    // Admission: round-robin across streams in ascending stream id
    // (std::map iteration order), one request per stream per round.
    // This is the order a fair serving frontend would admit mixed
    // tenants in, and it is deterministic in the submission
    // sequence alone.
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
    // Observation only: spans/instants/counters record wall-clock
    // truth about this drain and never feed back into simulation
    // or timing (tests/obs/test_trace.cc gates the bits).
    S2TA_TRACE_COUNTER("serve", "serve.admitted", admitted.size());
    for ([[maybe_unused]] const Pending &p : admitted)
        S2TA_TRACE_INSTANT("serve", "admit", p.id);

    // Simulation: whole requests fan out across the lanes; the
    // accelerator's internal layer/group parallelFor runs inline
    // inside a lane (nested-parallelism rule of ThreadPool), so
    // request-level parallelism composes with the layer fan-out.
    // Each lane writes only its own slot; no cross-request state
    // beyond the mutex-guarded PlanCache. The admission policy
    // plays no part here: every request is simulated regardless,
    // so NetworkRuns are policy-independent by construction.
    //
    // With a fault injector attached, each request retries up to
    // max_retries times after a transient compute fault. Fault
    // identities are combineId(request id, attempt) — pure
    // functions of the submission sequence, never of thread
    // interleaving — so the set of faulted attempts, and therefore
    // every retry and failure, is identical at every thread count.
    // A faulted attempt aborts before simulating (the accelerator
    // returns a cleanly failed run), so a request that eventually
    // succeeds simulates exactly once and its NetworkRun is bitwise
    // identical to the fault-free run.
    struct SimResult
    {
        NetworkRun run;
        int attempts = 1;
        int faulted_attempts = 0;
        int fault_layer = -1;
        int64_t fault_count = 0;
        int64_t stall_events = 0;
        int64_t stall_cycles = 0;
        bool failed = false;
    };
    std::vector<SimResult> sims(admitted.size());
    const bool inject = opts.run.fault != nullptr;
    const int max_attempts =
        1 + std::max(0, opts.overload.max_retries);
    const auto run_one = [&](int64_t idx) {
        SimResult &sr = sims[static_cast<size_t>(idx)];
        const Pending &p = admitted[static_cast<size_t>(idx)];
        S2TA_TRACE_SPAN_ID("serve", "simulate", p.id);
        for (int a = 0; a < max_attempts; ++a) {
            NetworkRunOptions ro = opts.run;
            if (inject) {
                ro.fault_id = FaultInjector::combineId(
                    p.id, static_cast<uint64_t>(a));
            }
            NetworkRun nr = acc.runNetwork(p.model->layers, ro);
            sr.attempts = a + 1;
            sr.fault_count += nr.fault_count;
            sr.stall_events += nr.stall_events;
            sr.stall_cycles += nr.stall_cycles;
            if (!nr.faulted()) {
                sr.run = std::move(nr);
                sr.failed = false;
                sr.fault_layer = -1;
                return;
            }
            ++sr.faulted_attempts;
            sr.failed = true;
            sr.fault_layer = nr.fault_layer;
        }
    };
    ThreadPool *tp = pool();
    if (tp) {
        tp->parallelFor(static_cast<int64_t>(admitted.size()),
                        run_one);
    } else {
        for (size_t i = 0; i < admitted.size(); ++i)
            run_one(static_cast<int64_t>(i));
    }

    // Timing: replay the virtual clock over the simulated cycle
    // totals on the draining thread. Service estimates are pinned
    // per workload by the first *successfully* simulated request
    // (walked in admission order, so the memo is deterministic);
    // SJF orders by the estimate, EDF by deadline, both tie-broken
    // on admission index inside the event loop.
    //
    // Retry timing is inline on the lane: every failed attempt
    // occupies its service time (the eventual run's cycles, or the
    // workload estimate when no attempt ever succeeded) plus an
    // exponentially growing backoff, all folded into the request's
    // extra_delay_s — the overload a flaky request inflicts on the
    // requests queued behind it. Injected stalls land there too:
    // timing only, never results.
    std::vector<TimedRequest> timed(admitted.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
        const Pending &p = admitted[i];
        const SimResult &sr = sims[i];
        const int64_t cycles =
            sr.failed ? 0 : sr.run.total.cycles;
        auto it = cycle_estimates.find(workloadKey(*p.model));
        if (it == cycle_estimates.end() && !sr.failed) {
            it = cycle_estimates
                     .emplace(workloadKey(*p.model), cycles)
                     .first;
        }
        const int64_t est =
            it != cycle_estimates.end() ? it->second : 0;
        const int failed_attempts =
            sr.attempts - (sr.failed ? 0 : 1);
        const int64_t attempt_cost = sr.failed ? est : cycles;
        double extra = opts.clock.cyclesToSeconds(sr.stall_cycles);
        for (int a = 0; a < failed_attempts; ++a) {
            extra += opts.clock.cyclesToSeconds(attempt_cost);
            extra += opts.overload.retry_backoff_s *
                     static_cast<double>(int64_t{1}
                                         << std::min(a, 20));
        }
        timed[i].arrival_s = p.arrival_s;
        timed[i].deadline_s = p.deadline_s;
        timed[i].service_cycles = cycles;
        timed[i].est_cycles = est;
        timed[i].extra_delay_s = extra;
        timed[i].stream = p.stream;
        timed[i].id = p.id;
        S2TA_TRACE_INSTANT("serve", "queue", p.id);
    }
    const AdmissionPolicy &policy =
        opts.policy ? *opts.policy
                    : policyFor(PolicyKind::RoundRobin);
    ScheduleStats sched_stats;
    const std::vector<LaneAssignment> lanes = scheduleOnLanes(
        opts.clock, timed, policy, opts.overload, &sched_stats);

    // Reduction: walk admission order (which preserves per-stream
    // submission order) and group completions by stream, so every
    // stream observes its requests complete strictly in the order
    // it issued them, independent of execution interleaving and of
    // the policy's dispatch order.
    std::vector<std::vector<Completion>> by_stream(queues.size());
    std::map<int, size_t> stream_slot;
    for (const auto &[stream, q] : queues)
        stream_slot.emplace(stream, stream_slot.size());
    for (size_t i = 0; i < admitted.size(); ++i) {
        const Pending &p = admitted[i];
        SimResult &sr = sims[i];
        Completion c;
        c.id = p.id;
        c.stream = p.stream;
        c.model = p.model->spec.name;
        c.batch = p.model->layers.empty()
                      ? 1
                      : p.model->layers.front().batch;
        c.gemms = gemmCount(*p.model);
        c.arrival_s = p.arrival_s;
        c.start_s = lanes[i].start_s;
        c.finish_s = lanes[i].finish_s;
        c.deadline_s = p.deadline_s;
        c.attempts = sr.attempts;
        c.fault_count = sr.fault_count;
        c.stall_cycles = sr.stall_cycles;
        c.retry_delay_s = timed[i].extra_delay_s;
        if (lanes[i].shed != ShedReason::None)
            S2TA_TRACE_INSTANT("serve", "shed", p.id);
        else
            S2TA_TRACE_INSTANT("serve", "dispatch", lanes[i].lane);
        S2TA_TRACE_INSTANT("serve", "complete", p.id);
        if (lanes[i].shed != ShedReason::None) {
            // Shed wins over a simulation failure: the request was
            // never dispatched, so no result — good or failed —
            // was ever owed.
            c.outcome = Outcome::Shed;
            c.shed_reason = lanes[i].shed;
            c.lane = -1;
        } else if (sr.failed) {
            c.outcome = Outcome::Failed;
            c.fault_layer = sr.fault_layer;
            c.lane = lanes[i].lane;
        } else {
            c.lane = lanes[i].lane;
            c.service_cycles = timed[i].service_cycles;
            c.run = std::move(sr.run);
        }

        totals.requests += 1;
        totals.retries += sr.attempts - 1;
        totals.faulted_attempts += sr.faulted_attempts;
        totals.layer_faults += sr.fault_count;
        totals.stall_events += sr.stall_events;
        totals.stall_cycles += sr.stall_cycles;
        if (sr.failed)
            totals.failed += 1;
        switch (c.shed_reason) {
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
            break;
        }
        if (c.ok()) {
            totals.completed += 1;
            totals.layers +=
                static_cast<int64_t>(p.model->layers.size());
            totals.gemms += c.gemms;
            totals.dense_macs += c.run.dense_macs;
        }

        if (opts.on_complete)
            opts.on_complete(c);
        by_stream[stream_slot.at(p.stream)].push_back(std::move(c));
    }
    totals.max_queue_depth = std::max(totals.max_queue_depth,
                                      sched_stats.max_queue_depth);
    queues.clear();
    return by_stream;
}

} // namespace serve
} // namespace s2ta
