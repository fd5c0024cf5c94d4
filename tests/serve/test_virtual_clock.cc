/** @file Virtual-clock contract: Poisson traces are seeded and
 *  ascending, the serving loop run over caller timings
 *  (scheduleOnLanes) is work-conserving and non-preemptive with
 *  deterministic tie-breaks, and the built-in policies dispatch
 *  exactly per their ordering contracts (admission order / earliest
 *  deadline / shortest estimated job, all tie-broken on admission
 *  index) among every request arrived by the dispatch instant. */

#include <gtest/gtest.h>

#include <algorithm>

#include "serve/fleet.hh"

namespace s2ta {
namespace serve {
namespace {

/** Requests with integer-second service times (exact doubles at a
 *  1 GHz clock: k seconds = k * 1e9 cycles). */
TimedRequest
req(double arrival_s, double service_seconds,
    double deadline_s = kNoDeadline, int64_t est_cycles = -1)
{
    TimedRequest r;
    r.arrival_s = arrival_s;
    r.deadline_s = deadline_s;
    r.service_cycles =
        static_cast<int64_t>(service_seconds * 1e9);
    r.est_cycles = est_cycles >= 0 ? est_cycles : r.service_cycles;
    return r;
}

VirtualClockConfig
oneLane()
{
    return VirtualClockConfig{1, 1.0};
}

/** Dispatch order implied by assignments: ascending start time,
 *  ties by admission index (starts are distinct on one lane). */
std::vector<size_t>
dispatchOrder(const std::vector<LaneAssignment> &la)
{
    std::vector<size_t> order(la.size());
    for (size_t i = 0; i < la.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return la[a].start_s < la[b].start_s;
                     });
    return order;
}

TEST(PoissonArrivals, SeededAscendingAndRateScaled)
{
    Rng a(42), b(42), c(43);
    const auto t1 = poissonArrivals(200, 10.0, a);
    const auto t2 = poissonArrivals(200, 10.0, b);
    const auto t3 = poissonArrivals(200, 10.0, c);
    ASSERT_EQ(t1.size(), 200u);
    EXPECT_EQ(t1, t2); // pure function of the seed
    EXPECT_NE(t1, t3);
    EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
    EXPECT_GT(t1.front(), 0.0);
    // Mean inter-arrival ~ 1/rate (loose statistical sanity).
    const double mean = t1.back() / 200.0;
    EXPECT_GT(mean, 0.5 / 10.0);
    EXPECT_LT(mean, 2.0 / 10.0);
}

TEST(VirtualClock, SingleLaneFifoBackToBack)
{
    // Everything arrives at 0: one lane runs admission order back
    // to back under round-robin.
    const std::vector<TimedRequest> reqs = {req(0, 2), req(0, 3),
                                            req(0, 1)};
    const auto la = scheduleOnLanes(
        oneLane(), reqs, policyFor(PolicyKind::RoundRobin), {});
    EXPECT_DOUBLE_EQ(la[0].start_s, 0.0);
    EXPECT_DOUBLE_EQ(la[0].finish_s, 2.0);
    EXPECT_DOUBLE_EQ(la[1].start_s, 2.0);
    EXPECT_DOUBLE_EQ(la[1].finish_s, 5.0);
    EXPECT_DOUBLE_EQ(la[2].start_s, 5.0);
    EXPECT_DOUBLE_EQ(la[2].finish_s, 6.0);
    for (const LaneAssignment &a : la)
        EXPECT_EQ(a.lane, 0);
}

TEST(VirtualClock, WorkConservingIdleUntilNextArrival)
{
    // A gap in arrivals: the lane idles exactly until the next
    // arrival, never longer.
    const std::vector<TimedRequest> reqs = {req(0, 1), req(5, 1)};
    const auto la = scheduleOnLanes(
        oneLane(), reqs, policyFor(PolicyKind::RoundRobin), {});
    EXPECT_DOUBLE_EQ(la[0].finish_s, 1.0);
    EXPECT_DOUBLE_EQ(la[1].start_s, 5.0);
    EXPECT_DOUBLE_EQ(la[1].finish_s, 6.0);
}

TEST(VirtualClock, TwoLanesRunConcurrently)
{
    const std::vector<TimedRequest> reqs = {req(0, 4), req(0, 1),
                                            req(0, 1)};
    const auto la = scheduleOnLanes(
        VirtualClockConfig{2, 1.0}, reqs,
        policyFor(PolicyKind::RoundRobin), {});
    // Request 0 occupies lane 0; requests 1 and 2 share lane 1.
    EXPECT_DOUBLE_EQ(la[0].start_s, 0.0);
    EXPECT_EQ(la[0].lane, 0);
    EXPECT_DOUBLE_EQ(la[1].start_s, 0.0);
    EXPECT_EQ(la[1].lane, 1);
    EXPECT_DOUBLE_EQ(la[2].start_s, 1.0);
    EXPECT_EQ(la[2].lane, 1);
}

TEST(VirtualClock, ClockScalesServiceTime)
{
    const std::vector<TimedRequest> reqs = {req(0, 2)};
    const auto la = scheduleOnLanes(
        VirtualClockConfig{1, 2.0}, reqs,
        policyFor(PolicyKind::RoundRobin), {});
    // 2e9 cycles at 2 GHz = 1 virtual second.
    EXPECT_DOUBLE_EQ(la[0].finish_s, 1.0);
}

TEST(VirtualClock, EdfPicksEarliestDeadlineAmongArrived)
{
    // Request 0 occupies the lane; 1..3 arrive while it runs. At
    // t=4 EDF dispatches by deadline (2 before 1), and a
    // no-deadline request always goes last.
    const std::vector<TimedRequest> reqs = {
        req(0, 4, 100.0),
        req(1, 1, 50.0),
        req(2, 1, 10.0),
        req(3, 1), // kNoDeadline
    };
    const auto la = scheduleOnLanes(
        oneLane(), reqs,
        policyFor(PolicyKind::EarliestDeadlineFirst), {});
    const auto order = dispatchOrder(la);
    EXPECT_EQ(order, (std::vector<size_t>{0, 2, 1, 3}));
}

TEST(VirtualClock, EdfCannotPreempt)
{
    // An urgent request arriving mid-service waits: dispatch is
    // non-preemptive.
    const std::vector<TimedRequest> reqs = {req(0, 10, 100.0),
                                            req(1, 1, 2.0)};
    const auto la = scheduleOnLanes(
        oneLane(), reqs,
        policyFor(PolicyKind::EarliestDeadlineFirst), {});
    EXPECT_DOUBLE_EQ(la[1].start_s, 10.0);
    EXPECT_GT(la[1].finish_s, reqs[1].deadline_s); // missed
}

TEST(VirtualClock, SjfPicksShortestEstimate)
{
    // Estimates (not exact service) drive SJF: request 2 carries a
    // small estimate despite a long true service time.
    const std::vector<TimedRequest> reqs = {
        req(0, 4),
        req(1, 2, kNoDeadline, 3'000'000'000),
        req(2, 9, kNoDeadline, 1'000'000'000),
        req(3, 1, kNoDeadline, 2'000'000'000),
    };
    const auto la = scheduleOnLanes(
        oneLane(), reqs, policyFor(PolicyKind::ShortestJobFirst), {});
    const auto order = dispatchOrder(la);
    EXPECT_EQ(order, (std::vector<size_t>{0, 2, 3, 1}));

    // A closed batch: every event at t = 0 is handled before the
    // one dispatch at t = 0, so SJF picks among all four requests,
    // not just the first admitted.
    const std::vector<TimedRequest> batch = {req(0, 4), req(0, 1),
                                             req(0, 4), req(0, 1)};
    EXPECT_EQ(dispatchOrder(scheduleOnLanes(
                  oneLane(), batch,
                  policyFor(PolicyKind::ShortestJobFirst), {})),
              (std::vector<size_t>{1, 3, 0, 2}));
}

TEST(VirtualClock, TiesBreakOnAdmissionIndex)
{
    // Identical deadlines and estimates: every policy degrades to
    // admission order.
    const std::vector<TimedRequest> reqs = {req(0, 5, 30.0),
                                            req(1, 1, 20.0),
                                            req(2, 1, 20.0)};
    for (const PolicyKind kind :
         {PolicyKind::RoundRobin, PolicyKind::EarliestDeadlineFirst,
          PolicyKind::ShortestJobFirst}) {
        const auto la =
            scheduleOnLanes(oneLane(), reqs, policyFor(kind), {});
        const auto order = dispatchOrder(la);
        EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}))
            << policyName(kind);
    }
}

TEST(VirtualClock, InfeasibleIsJudgedWhenPicked)
{
    // Request 1 cannot meet its deadline once request 0 holds the
    // lane, but it is shed only when SJF picks it (t = 8); until
    // then it holds a slot of the cap-2 queue, so request 4 is
    // shed as queue-full at its arrival.
    OverloadConfig overload;
    overload.global_queue_cap = 2;
    overload.shed_infeasible = true;
    const std::vector<TimedRequest> reqs = {
        req(0, 5), req(1, 3, 2.0), req(2, 1), req(5.5, 2),
        req(5.5, 2)};
    const auto la = scheduleOnLanes(
        oneLane(), reqs, policyFor(PolicyKind::ShortestJobFirst),
        overload);
    EXPECT_DOUBLE_EQ(la[2].start_s, 5.0);
    EXPECT_DOUBLE_EQ(la[3].start_s, 6.0);
    EXPECT_EQ(la[4].shed, ShedReason::QueueFull);
    EXPECT_DOUBLE_EQ(la[4].start_s, 5.5);
    EXPECT_EQ(la[1].shed, ShedReason::DeadlineInfeasible);
    EXPECT_DOUBLE_EQ(la[1].start_s, 8.0);
    EXPECT_EQ(la[1].lane, -1);
}

TEST(VirtualClock, PolicyNeverChangesTotalBusyTime)
{
    // Work conservation: on one lane the makespan from the first
    // dispatch is identical under every policy.
    Rng rng(7);
    std::vector<TimedRequest> reqs;
    const auto arrivals = poissonArrivals(40, 4.0, rng);
    for (size_t i = 0; i < arrivals.size(); ++i) {
        reqs.push_back(req(arrivals[i],
                           0.1 * (1 + rng.uniformInt(1, 9)),
                           arrivals[i] + 2.0));
    }
    double makespan = -1.0;
    for (const PolicyKind kind :
         {PolicyKind::RoundRobin, PolicyKind::EarliestDeadlineFirst,
          PolicyKind::ShortestJobFirst}) {
        const auto la =
            scheduleOnLanes(oneLane(), reqs, policyFor(kind), {});
        double finish = 0.0;
        for (const LaneAssignment &a : la)
            finish = std::max(finish, a.finish_s);
        if (makespan < 0.0)
            makespan = finish;
        else
            EXPECT_DOUBLE_EQ(finish, makespan)
                << policyName(kind);
    }
}

TEST(PolicyNames, ArtifactNamesAreStable)
{
    // Artifact keys (rr_p50_ms, ...) are built from these names.
    EXPECT_STREQ(policyName(PolicyKind::RoundRobin), "rr");
    EXPECT_STREQ(policyName(PolicyKind::EarliestDeadlineFirst),
                 "edf");
    EXPECT_STREQ(policyName(PolicyKind::ShortestJobFirst), "sjf");
}

} // anonymous namespace
} // namespace serve
} // namespace s2ta
