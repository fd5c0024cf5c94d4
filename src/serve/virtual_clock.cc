#include "serve/virtual_clock.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace s2ta {
namespace serve {

std::vector<LaneAssignment>
scheduleOnLanes(const VirtualClockConfig &cfg,
                const std::vector<TimedRequest> &reqs,
                const AdmissionPolicy &policy)
{
    return scheduleOnLanes(cfg, reqs, policy, OverloadConfig{},
                           nullptr);
}

std::vector<LaneAssignment>
scheduleOnLanes(const VirtualClockConfig &cfg,
                const std::vector<TimedRequest> &reqs,
                const AdmissionPolicy &policy,
                const OverloadConfig &overload,
                ScheduleStats *stats)
{
    s2ta_assert(cfg.lanes >= 1, "lanes=%d", cfg.lanes);
    s2ta_assert(cfg.clock_ghz > 0.0, "clock_ghz=%g", cfg.clock_ghz);
    const size_t n = reqs.size();
    for (const TimedRequest &r : reqs) {
        s2ta_assert(r.arrival_s >= 0.0, "arrival %g < 0",
                    r.arrival_s);
        s2ta_assert(r.service_cycles >= 0, "service %lld < 0",
                    static_cast<long long>(r.service_cycles));
        s2ta_assert(r.extra_delay_s >= 0.0, "extra delay %g < 0",
                    r.extra_delay_s);
    }

    // Admission indices in arrival order; stable_sort keeps equal
    // arrivals in admission order, so the ready set below is always
    // built deterministically.
    std::vector<size_t> by_arrival(n);
    std::iota(by_arrival.begin(), by_arrival.end(), size_t{0});
    std::stable_sort(by_arrival.begin(), by_arrival.end(),
                     [&](size_t a, size_t b) {
                         return reqs[a].arrival_s <
                                reqs[b].arrival_s;
                     });

    std::vector<LaneAssignment> out(n);
    std::vector<double> lane_free(static_cast<size_t>(cfg.lanes),
                                  0.0);
    // Requests arrived by the current horizon and not yet
    // dispatched, kept in ascending admission order (the contract
    // AdmissionPolicy::pick relies on for tie-breaking).
    std::vector<size_t> ready;
    std::vector<int64_t> stream_depth;
    size_t next_arrival = 0; // cursor into by_arrival
    size_t done = 0;         // dispatched + shed
    ScheduleStats st;

    const auto depthSlot = [&](int stream) -> int64_t & {
        s2ta_assert(stream >= 0, "stream %d < 0", stream);
        if (static_cast<size_t>(stream) >= stream_depth.size())
            stream_depth.resize(static_cast<size_t>(stream) + 1, 0);
        return stream_depth[static_cast<size_t>(stream)];
    };

    const auto shed = [&](size_t idx, ShedReason why, double at) {
        out[idx].lane = -1;
        out[idx].start_s = at;
        out[idx].finish_s = at;
        out[idx].shed = why;
        ++done;
        s2ta_assert(why != ShedReason::None,
                    "shed with ShedReason::None");
    };

    const auto admit_until = [&](double horizon) {
        bool added = false;
        while (next_arrival < n &&
               reqs[by_arrival[next_arrival]].arrival_s <=
                   horizon) {
            const size_t idx = by_arrival[next_arrival++];
            const TimedRequest &r = reqs[idx];
            // Queue caps apply the instant a request arrives: an
            // arrival over a full queue is shed immediately, even
            // if the queue drains a virtual instant later. Both
            // checks run over deterministic virtual-time state, so
            // the shed set is thread-count independent.
            if (overload.global_queue_cap > 0 &&
                static_cast<int64_t>(ready.size()) >=
                    overload.global_queue_cap) {
                shed(idx, ShedReason::QueueFull, r.arrival_s);
                continue;
            }
            if (overload.stream_queue_cap > 0 &&
                depthSlot(r.stream) >= overload.stream_queue_cap) {
                shed(idx, ShedReason::StreamQueueFull, r.arrival_s);
                continue;
            }
            ready.push_back(idx);
            ++depthSlot(r.stream);
            st.max_queue_depth = std::max(
                st.max_queue_depth,
                static_cast<int64_t>(ready.size()));
            added = true;
        }
        if (added)
            std::sort(ready.begin(), ready.end());
    };

    while (done < n) {
        // Earliest-free lane, lowest index on ties.
        size_t lane = 0;
        for (size_t l = 1; l < lane_free.size(); ++l) {
            if (lane_free[l] < lane_free[lane])
                lane = l;
        }
        double t = lane_free[lane];
        admit_until(t);
        while (ready.empty() && done < n) {
            // Work conservation: the lane idles only until the next
            // arrival (which must exist — not everything is done
            // and nothing is ready).
            t = reqs[by_arrival[next_arrival]].arrival_s;
            admit_until(t);
        }
        if (ready.empty())
            break; // everything remaining was shed at admission

        if (overload.shed_infeasible) {
            // Late shedding: a waiting request that cannot meet its
            // deadline even if dispatched *right now* only wastes
            // lane time; drop it before the policy sees it.
            for (auto it = ready.begin(); it != ready.end();) {
                const TimedRequest &r = reqs[*it];
                const double fin =
                    t + cfg.cyclesToSeconds(r.est_cycles) +
                    r.extra_delay_s;
                if (fin > r.deadline_s) {
                    --depthSlot(r.stream);
                    shed(*it, ShedReason::DeadlineInfeasible, t);
                    it = ready.erase(it);
                } else {
                    ++it;
                }
            }
            if (ready.empty())
                continue; // advance time / admit more
        }

        const size_t i = policy.pick(reqs, ready);
        const auto it =
            std::find(ready.begin(), ready.end(), i);
        s2ta_assert(it != ready.end(),
                    "policy '%s' picked index %zu outside the "
                    "ready set", policy.name(), i);
        ready.erase(it);
        --depthSlot(reqs[i].stream);

        out[i].lane = static_cast<int>(lane);
        out[i].start_s = t;
        out[i].finish_s =
            t + cfg.cyclesToSeconds(reqs[i].service_cycles) +
            reqs[i].extra_delay_s;
        lane_free[lane] = out[i].finish_s;
        ++done;
    }
    if (stats != nullptr)
        *stats = st;
    return out;
}

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
