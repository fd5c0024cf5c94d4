/** @file Fleet-scheduler contract: clean fleet serving is bitwise
 *  identical to the single-accelerator scheduler, a StreamScheduler
 *  is field for field a one-replica fleet (faults, caps, shedding
 *  and retries included), same-instant arrivals all reach the
 *  admission policy before the instant's dispatch, crashes lose
 *  instances but never requests (failover re-dispatches, exhausted
 *  budgets fail typed), draining stops placements without dropping
 *  work, hedges launch against a slow replica and reconcile, the
 *  derived replica schedule is a seed-pure alternating lifecycle
 *  that matches the injector's counters, and the whole drain is
 *  identical at every simulation thread count. */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "base/fault_injection.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"

namespace s2ta {
namespace serve {
namespace {

NetworkRunOptions
serveRunOptions()
{
    NetworkRunOptions opt;
    opt.validate_operands = false;
    opt.compute_output = true;
    return opt;
}

bool
sameRun(const NetworkRun &a, const NetworkRun &b)
{
    if (!(a.total == b.total) || a.dense_macs != b.dense_macs ||
        a.layers.size() != b.layers.size())
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        if (!(a.layers[i].events == b.layers[i].events) ||
            !(a.layers[i].output == b.layers[i].output))
            return false;
    }
    return true;
}

/** Everything observable about one fleet completion except the
 *  run, for cross-thread-count determinism comparisons. */
using Observed =
    std::tuple<int, int, int, double, double, double, int, int,
               int, bool, bool, bool>;

Observed
observe(const Completion &c)
{
    return Observed{static_cast<int>(c.outcome),
                    static_cast<int>(c.shed_reason),
                    c.attempts,
                    c.start_s,
                    c.finish_s,
                    c.retry_delay_s,
                    c.lane,
                    c.replica,
                    c.failovers,
                    c.hedged,
                    c.hedge_won,
                    c.lost_to_crash};
}

/** Every scalar field of a completion (the run is compared with
 *  sameRun). */
using Fields =
    std::tuple<uint64_t, int, std::string, int, int64_t, double,
               double, double, double, int, int64_t, int, int, int,
               int, int64_t, int64_t, double, int, int, int, bool,
               bool, bool>;

Fields
fields(const Completion &c)
{
    return Fields{c.id,          c.stream,
                  c.model,       c.batch,
                  c.gemms,       c.arrival_s,
                  c.start_s,     c.finish_s,
                  c.deadline_s,  c.lane,
                  c.service_cycles,
                  static_cast<int>(c.outcome),
                  static_cast<int>(c.shed_reason),
                  c.attempts,    c.fault_layer,
                  c.fault_count, c.stall_cycles,
                  c.retry_delay_s, c.replica,
                  c.failovers,   c.instances,
                  c.hedged,      c.hedge_won,
                  c.lost_to_crash};
}

class FleetTest : public ::testing::Test
{
  protected:
    FleetTest()
    {
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::s2taAw(4);
        cfg.sim_threads = 1;
        acc = std::make_unique<Accelerator>(cfg);
        const ModelWorkload &mw = registry.workload("lenet5", 1);
        const NetworkRun nr =
            acc->runNetwork(mw.layers, serveRunOptions());
        service_s = VirtualClockConfig{}.cyclesToSeconds(
            nr.total.cycles);
    }

    /** A homogeneous fleet of @p n replicas over the one test
     *  accelerator (caches off: cache behavior is covered by the
     *  plan-cache tests; fleet semantics are cache-independent). */
    std::vector<FleetReplica>
    fleetOf(int n) const
    {
        std::vector<FleetReplica> fleet;
        for (int r = 0; r < n; ++r)
            fleet.push_back(FleetReplica{acc.get(), nullptr});
        return fleet;
    }

    FleetScheduler::Options
    baseOptions() const
    {
        FleetScheduler::Options o;
        o.run = serveRunOptions();
        o.threads = 1;
        return o;
    }

    ModelRegistry registry;
    std::unique_ptr<Accelerator> acc;
    /** Virtual service seconds of one lenet5 batch-1 request. */
    double service_s = 0.0;
};

TEST_F(FleetTest, CleanFleetMatchesSingleAcceleratorBitwise)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);

    // Single-accelerator baseline, keyed by request id (both
    // schedulers assign ids in submission order).
    std::map<uint64_t, NetworkRun> baseline;
    {
        StreamScheduler::Options o;
        o.run = serveRunOptions();
        o.threads = 1;
        StreamScheduler sched(*acc, o);
        for (int i = 0; i < 8; ++i)
            sched.submit(i % 3, mw, 0.1 * i);
        for (auto &stream : sched.drain())
            for (auto &c : stream)
                baseline.emplace(c.id, std::move(c.run));
    }

    FleetScheduler sched(fleetOf(3), baseOptions());
    for (int i = 0; i < 8; ++i)
        sched.submit(i % 3, mw, 0.1 * i);
    int served = 0;
    for (const auto &stream : sched.drain()) {
        for (const auto &c : stream) {
            ASSERT_TRUE(c.ok());
            EXPECT_GE(c.replica, 0);
            EXPECT_LT(c.replica, 3);
            EXPECT_EQ(c.failovers, 0);
            EXPECT_EQ(c.instances, 1);
            EXPECT_TRUE(sameRun(c.run, baseline.at(c.id)));
            ++served;
        }
    }
    EXPECT_EQ(served, 8);
    const FleetStats &st = sched.stats();
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(st.requests, 8);
    EXPECT_EQ(st.completed, 8);
    EXPECT_EQ(st.crashes, 0);
    EXPECT_EQ(st.failovers, 0);

    // A StreamScheduler is a one-replica fleet, field for field and
    // ledger for ledger — also with an armed injector, queue caps,
    // infeasible shedding and retries under a backlog.
    const ModelWorkload &mw2 = registry.workload("lenet5", 2);
    const auto serve = [&](bool stream_scheduler) {
        FaultInjector fi(0x0F417);
        fi.setRate(FaultSite::LayerCompute, 0.1);
        fi.setRate(FaultSite::LayerStall, 0.1);
        fi.setStallCycles(1000, 50000);
        FleetScheduler::Options o = baseOptions();
        o.clock.lanes = 2;
        o.policy = &policyFor(PolicyKind::EarliestDeadlineFirst);
        o.fault = &fi;
        o.overload.global_queue_cap = 4;
        o.overload.stream_queue_cap = 2;
        o.overload.shed_infeasible = true;
        o.overload.max_retries = 3;
        o.overload.retry_backoff_s = 0.5 * service_s;
        std::unique_ptr<FleetScheduler> sched =
            stream_scheduler
                ? std::make_unique<StreamScheduler>(*acc, o)
                : std::make_unique<FleetScheduler>(fleetOf(1), o);
        for (int i = 0; i < 24; ++i) {
            const double arrival = 0.3 * service_s * i;
            sched->submit(i % 3, i % 2 ? mw2 : mw, arrival,
                          arrival + (1 + i % 5) * service_s);
        }
        auto by_stream = sched->drain();
        return std::make_pair(std::move(by_stream), sched->stats());
    };
    const auto [fleet_out, fleet_st] = serve(false);
    const auto [stream_out, stream_st] = serve(true);
    EXPECT_TRUE(stream_st == fleet_st);
    EXPECT_TRUE(stream_st.reconciles());
    EXPECT_GT(stream_st.shed_queue_full + stream_st.shed_stream_full,
              0);
    EXPECT_GT(stream_st.shed_infeasible, 0);
    EXPECT_GT(stream_st.retries, 0);
    EXPECT_GT(stream_st.completed, 0);
    ASSERT_EQ(stream_out.size(), fleet_out.size());
    for (size_t s = 0; s < fleet_out.size(); ++s) {
        ASSERT_EQ(stream_out[s].size(), fleet_out[s].size());
        for (size_t i = 0; i < fleet_out[s].size(); ++i) {
            EXPECT_EQ(fields(stream_out[s][i]), fields(fleet_out[s][i]));
            EXPECT_TRUE(
                sameRun(stream_out[s][i].run, fleet_out[s][i].run));
        }
    }
}

TEST_F(FleetTest, ClosedBatchReachesThePolicyBeforeDispatch)
{
    // LeNet-5 at batch 4, 1, 4, 1 on four streams, all at t = 0, one
    // lane, SJF: the instant's one dispatch sees all four requests,
    // so both batch-1 requests run first — on a StreamScheduler and
    // on a one-replica fleet alike.
    const ModelWorkload &b1 = registry.workload("lenet5", 1);
    const ModelWorkload &b4 = registry.workload("lenet5", 4);
    const auto serve = [&](bool stream_scheduler) {
        FleetScheduler::Options o = baseOptions();
        o.policy = &policyFor(PolicyKind::ShortestJobFirst);
        std::unique_ptr<FleetScheduler> sched =
            stream_scheduler
                ? std::make_unique<StreamScheduler>(*acc, o)
                : std::make_unique<FleetScheduler>(fleetOf(1), o);
        for (int s = 0; s < 4; ++s)
            sched->submit(s, s % 2 ? b1 : b4);
        std::vector<Completion> out;
        for (auto &stream : sched->drain())
            out.push_back(std::move(stream.at(0)));
        return out;
    };
    for (const bool stream_scheduler : {false, true}) {
        const std::vector<Completion> c = serve(stream_scheduler);
        ASSERT_EQ(c.size(), 4u);
        EXPECT_DOUBLE_EQ(c[1].start_s, 0.0) << stream_scheduler;
        EXPECT_DOUBLE_EQ(c[3].start_s, c[1].finish_s)
            << stream_scheduler;
        EXPECT_DOUBLE_EQ(c[0].start_s, c[3].finish_s)
            << stream_scheduler;
        EXPECT_DOUBLE_EQ(c[2].start_s, c[0].finish_s)
            << stream_scheduler;
    }
    const std::vector<Completion> fleet = serve(false);
    const std::vector<Completion> stream = serve(true);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(stream[i].start_s, fleet[i].start_s);
        EXPECT_DOUBLE_EQ(stream[i].finish_s, fleet[i].finish_s);
        EXPECT_EQ(stream[i].lane, fleet[i].lane);
    }
}

TEST_F(FleetTest, CrashFailsOverWithoutLosingRequests)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    const auto run_with = [&](int threads) {
        FleetScheduler::Options o = baseOptions();
        o.threads = threads;
        // Replica 0 dies mid-backlog and comes back later; its
        // queued and running instances must fail over to replica 1
        // the instant the loss is detected (detect_delay 0).
        o.schedule = {
            {0, ReplicaEvent::Kind::Crash, 1.5 * service_s, 1.0},
            {0, ReplicaEvent::Kind::Restart, 6.0 * service_s,
             1.0},
        };
        FleetScheduler sched(fleetOf(2), o);
        for (int i = 0; i < 8; ++i)
            sched.submit(i % 4, mw, /*arrival_s=*/0.0);
        std::map<uint64_t, Observed> observed;
        std::map<uint64_t, NetworkRun> runs;
        for (auto &stream : sched.drain()) {
            for (auto &c : stream) {
                observed.emplace(c.id, observe(c));
                if (c.ok())
                    runs.emplace(c.id, std::move(c.run));
            }
        }
        return std::make_tuple(std::move(observed),
                               std::move(runs), sched.stats());
    };

    const auto [observed, runs, st] = run_with(1);
    EXPECT_EQ(st.requests, 8);
    EXPECT_EQ(st.completed, 8) << "a crash with a live peer loses "
                                  "no requests";
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(st.crashes, 1);
    EXPECT_EQ(st.restarts, 1);
    EXPECT_GT(st.lost_instances, 0);
    EXPECT_EQ(st.failovers, st.lost_instances)
        << "every lost instance was re-dispatched exactly once";
    const double crash_s = 1.5 * service_s;
    int failed_over = 0;
    for (const auto &[id, ob] : observed) {
        failed_over += std::get<8>(ob) > 0 ? 1 : 0;
        // Work the dead replica finished before the crash stands;
        // everything after the crash instant must have completed
        // on the survivor.
        if (std::get<4>(ob) > crash_s) {
            EXPECT_EQ(std::get<7>(ob), 1)
                << "request " << id << " finished after the crash "
                << "and must be on the surviving replica";
        }
    }
    EXPECT_GT(failed_over, 0);

    // Identical outcome map, runs, and stats at any thread count.
    for (const int threads : {2, 4}) {
        const auto [ob2, runs2, st2] = run_with(threads);
        EXPECT_EQ(ob2, observed) << "threads " << threads;
        ASSERT_EQ(runs2.size(), runs.size());
        for (const auto &[id, run] : runs)
            EXPECT_TRUE(sameRun(runs2.at(id), run));
        EXPECT_EQ(st2.requests, st.requests);
        EXPECT_EQ(st2.failovers, st.failovers);
        EXPECT_EQ(st2.makespan_s, st.makespan_s);
    }
}

TEST_F(FleetTest, ExhaustedFailoverFailsTypedNotSilently)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    FleetScheduler::Options o = baseOptions();
    // The only replica dies and never returns: requests cannot be
    // re-placed, so they resolve Failed with the crash-typed
    // reason — never vanish.
    o.schedule = {
        {0, ReplicaEvent::Kind::Crash, 0.5 * service_s, 1.0},
    };
    FleetScheduler sched(fleetOf(1), o);
    sched.submit(0, mw, 0.0);
    sched.submit(1, mw, 0.0);
    const auto by_stream = sched.drain();
    int failed_crash = 0;
    for (const auto &stream : by_stream) {
        for (const auto &c : stream) {
            if (c.failed()) {
                EXPECT_TRUE(c.lost_to_crash);
                EXPECT_TRUE(c.run.layers.empty());
                ++failed_crash;
            }
        }
    }
    const FleetStats &st = sched.stats();
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(st.requests, 2);
    EXPECT_EQ(st.completed + st.failed, 2);
    EXPECT_EQ(st.failed_crash, failed_crash);
    EXPECT_GT(failed_crash, 0);
    EXPECT_EQ(st.failed_compute, 0);
}

TEST_F(FleetTest, DrainingReplicaTakesNoNewPlacements)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    FleetScheduler::Options o = baseOptions();
    // Replica 0 drains before any arrival and undrains long after
    // the trace: every placement must land on replica 1, and
    // nothing is lost or failed.
    o.schedule = {
        {0, ReplicaEvent::Kind::DrainStart, 0.0, 1.0},
        {0, ReplicaEvent::Kind::DrainEnd, 1000.0, 1.0},
    };
    FleetScheduler sched(fleetOf(2), o);
    for (int i = 0; i < 6; ++i)
        sched.submit(i % 2, mw, 0.05 * i);
    for (const auto &stream : sched.drain())
        for (const auto &c : stream) {
            ASSERT_TRUE(c.ok());
            EXPECT_EQ(c.replica, 1);
        }
    const FleetStats &st = sched.stats();
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(st.completed, 6);
    EXPECT_EQ(st.drains, 1);
    const FleetTelemetry &ft = sched.telemetry();
    EXPECT_EQ(ft.replica(0).routed, 0);
    EXPECT_EQ(ft.replica(1).routed, 6);
}

TEST_F(FleetTest, HedgesLaunchAgainstASlowReplicaAndReconcile)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    FleetScheduler::Options o = baseOptions();
    // Replica 0 browns out 10x slow for the whole trace; hedges
    // arm shortly after placement, so requests stuck on it launch
    // a duplicate on replica 1 and the duplicate wins.
    o.schedule = {
        {0, ReplicaEvent::Kind::BrownoutStart, 0.0, 10.0},
        {0, ReplicaEvent::Kind::BrownoutEnd, 1000.0, 1.0},
    };
    o.hedge_delay_s = 0.5 * service_s;
    FleetScheduler sched(fleetOf(2), o);
    for (int i = 0; i < 6; ++i)
        sched.submit(i % 2, mw, 0.0);
    int hedged = 0, hedge_won = 0;
    for (const auto &stream : sched.drain()) {
        for (const auto &c : stream) {
            ASSERT_TRUE(c.ok());
            hedged += c.hedged ? 1 : 0;
            hedge_won += c.hedge_won ? 1 : 0;
            if (c.hedged) {
                EXPECT_EQ(c.instances, 2);
            }
        }
    }
    const FleetStats &st = sched.stats();
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(st.completed, 6);
    EXPECT_EQ(st.brownouts, 1);
    const FleetTelemetry &ft = sched.telemetry();
    EXPECT_TRUE(ft.hedgesReconcile());
    EXPECT_GT(ft.hedgesLaunched(), 0);
    EXPECT_EQ(hedged, static_cast<int>(ft.hedgesLaunched()));
    EXPECT_GT(hedge_won, 0) << "a 10x brownout must lose to its "
                               "hedge at least once";
    EXPECT_EQ(ft.hedgeWins(), hedge_won);
}

TEST_F(FleetTest, DerivedScheduleIsSeedPureAndReconciles)
{
    const auto derive = [](uint64_t seed) {
        FaultInjector fi(seed);
        fi.setRate(FaultSite::ReplicaCrash, 0.2);
        fi.setRate(FaultSite::ReplicaRestart, 0.5);
        fi.setRate(FaultSite::ReplicaStall, 0.15);
        const std::vector<ReplicaEvent> schedule =
            deriveReplicaSchedule(fi, 3, /*horizon_s=*/40.0,
                                  /*slot_s=*/1.0,
                                  /*brownout_slowdown=*/2.5);
        return std::make_tuple(
            schedule, fi.injected(FaultSite::ReplicaCrash),
            fi.injected(FaultSite::ReplicaRestart),
            fi.injected(FaultSite::ReplicaStall));
    };
    const auto [schedule, crashes, restarts, brownouts] =
        derive(0xF1EE7);

    // Per-replica lifecycle invariants: crash only while up,
    // restart only while down, brownouts are paired one-slot
    // windows at the requested slowdown, times never regress.
    std::vector<bool> up(3, true);
    std::vector<double> last(3, 0.0);
    int64_t n_crash = 0, n_restart = 0, n_brownout = 0;
    for (const ReplicaEvent &ev : schedule) {
        ASSERT_GE(ev.replica, 0);
        ASSERT_LT(ev.replica, 3);
        EXPECT_GE(ev.at_s, last[ev.replica])
            << "per-replica event times must not regress";
        last[ev.replica] = ev.at_s;
        switch (ev.kind) {
          case ReplicaEvent::Kind::Crash:
            EXPECT_TRUE(up[ev.replica]);
            up[ev.replica] = false;
            ++n_crash;
            break;
          case ReplicaEvent::Kind::Restart:
            EXPECT_FALSE(up[ev.replica]);
            up[ev.replica] = true;
            ++n_restart;
            break;
          case ReplicaEvent::Kind::BrownoutStart:
            EXPECT_TRUE(up[ev.replica]);
            EXPECT_DOUBLE_EQ(ev.slowdown, 2.5);
            ++n_brownout;
            break;
          case ReplicaEvent::Kind::BrownoutEnd:
            break;
          default:
            FAIL() << "derived schedules carry only fault-driven "
                      "lifecycle kinds";
        }
    }
    EXPECT_EQ(n_crash, crashes);
    EXPECT_EQ(n_restart, restarts);
    EXPECT_EQ(n_brownout, brownouts);
    EXPECT_GT(n_crash, 0) << "rate 0.2 over 120 slots";
    EXPECT_GT(n_brownout, 0);

    // Seed-pure: same seed regenerates the identical timeline (the
    // property the serial-determinism bench gate rests on).
    const auto [again, c2, r2, b2] = derive(0xF1EE7);
    ASSERT_EQ(again.size(), schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
        EXPECT_EQ(again[i].replica, schedule[i].replica);
        EXPECT_EQ(static_cast<int>(again[i].kind),
                  static_cast<int>(schedule[i].kind));
        EXPECT_DOUBLE_EQ(again[i].at_s, schedule[i].at_s);
    }
    (void)c2;
    (void)r2;
    (void)b2;
}

TEST_F(FleetTest, ReplicaEventKindNamesAreStable)
{
    EXPECT_STREQ(replicaEventKindName(ReplicaEvent::Kind::Crash),
                 "crash");
    EXPECT_STREQ(replicaEventKindName(ReplicaEvent::Kind::Restart),
                 "restart");
    EXPECT_STREQ(
        replicaEventKindName(ReplicaEvent::Kind::BrownoutStart),
        "brownout-start");
    EXPECT_STREQ(
        replicaEventKindName(ReplicaEvent::Kind::BrownoutEnd),
        "brownout-end");
    EXPECT_STREQ(
        replicaEventKindName(ReplicaEvent::Kind::DrainStart),
        "drain-start");
    EXPECT_STREQ(replicaEventKindName(ReplicaEvent::Kind::DrainEnd),
                 "drain-end");
}

} // anonymous namespace
} // namespace serve
} // namespace s2ta
