/** @file Overload + fault robustness of the stream scheduler:
 *  queue caps shed deterministically (same seed -> same shed set at
 *  every thread count), per-stream caps isolate the flooding
 *  stream, infeasible-deadline shedding is opt-in, transient
 *  compute faults retry to bitwise-identical results, exhausted
 *  retry budgets fail only the owning request with a typed error,
 *  injected stalls move virtual time but never results, and every
 *  counter reconciles exactly with the injection plan. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <tuple>

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

/** Everything observable about one completion except the run. */
using Observed = std::tuple<int, int, int, int, int64_t, int64_t,
                            double, double, double, int>;

Observed
observe(const Completion &c)
{
    return {static_cast<int>(c.outcome),
            static_cast<int>(c.shed_reason),
            c.attempts,
            c.fault_layer,
            c.fault_count,
            c.stall_cycles,
            c.start_s,
            c.finish_s,
            c.retry_delay_s,
            c.lane};
}

class OverloadTest : public ::testing::Test
{
  protected:
    OverloadTest()
    {
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::s2taAw(4);
        cfg.sim_threads = 1;
        acc = std::make_unique<Accelerator>(cfg);
    }

    ModelRegistry registry;
    std::unique_ptr<Accelerator> acc;
};

TEST_F(OverloadTest, GlobalQueueCapShedsDeterministically)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);

    const auto run_with = [&](int threads) {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.threads = threads;
        opts.overload.global_queue_cap = 4;
        StreamScheduler sched(*acc, opts);
        // 12 simultaneous arrivals over 3 streams into a cap-4
        // queue on one lane: the first four admitted survive, the
        // rest shed the instant they arrive.
        for (int i = 0; i < 12; ++i)
            sched.submit(i % 3, mw);
        std::map<uint64_t, Observed> seen;
        for (const auto &stream : sched.drain())
            for (const auto &c : stream)
                seen.emplace(c.id, observe(c));
        return std::make_pair(seen, sched.stats());
    };

    const auto [serial, serial_stats] = run_with(1);
    ASSERT_EQ(serial.size(), 12u);
    EXPECT_EQ(serial_stats.completed, 4);
    EXPECT_EQ(serial_stats.shed_queue_full, 8);
    EXPECT_EQ(serial_stats.max_queue_depth, 4);

    // The shed set and every timing are identical at every
    // simulation thread count.
    for (const int threads : {2, 4}) {
        const auto [parallel, stats] = run_with(threads);
        EXPECT_EQ(parallel, serial) << "threads " << threads;
        EXPECT_EQ(stats.shed_queue_full,
                  serial_stats.shed_queue_full);
        EXPECT_EQ(stats.max_queue_depth,
                  serial_stats.max_queue_depth);
    }
}

TEST_F(OverloadTest, ShedCompletionsCarryNoResult)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.threads = 1;
    opts.overload.global_queue_cap = 1;
    int64_t streamed = 0, streamed_ok = 0, streamed_shed = 0;
    opts.on_complete = [&](const Completion &c) {
        streamed += 1;
        streamed_ok += c.ok() ? 1 : 0;
        streamed_shed += c.shed() ? 1 : 0;
    };
    StreamScheduler sched(*acc, opts);
    for (int i = 0; i < 3; ++i)
        sched.submit(0, mw);
    const auto by_stream = sched.drain();
    ASSERT_EQ(by_stream[0].size(), 3u);
    EXPECT_TRUE(by_stream[0][0].ok());
    for (int i = 1; i < 3; ++i) {
        const Completion &c = by_stream[0][static_cast<size_t>(i)];
        EXPECT_TRUE(c.shed());
        EXPECT_EQ(c.shed_reason, ShedReason::QueueFull);
        EXPECT_EQ(c.lane, -1);
        EXPECT_EQ(c.service_cycles, 0);
        EXPECT_DOUBLE_EQ(c.start_s, c.finish_s);
        EXPECT_TRUE(c.run.layers.empty());
    }
    // The completion stream reconciles with the scheduler's own
    // accounting.
    const FleetStats &st = sched.stats();
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(streamed, st.requests);
    EXPECT_EQ(streamed_ok, st.completed);
    EXPECT_EQ(streamed_shed, st.shedTotal());
    EXPECT_EQ(st.shedTotal(), 2);
}

TEST_F(OverloadTest, StreamQueueCapShedsOnlyTheFloodingStream)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.threads = 1;
    opts.overload.stream_queue_cap = 2;
    StreamScheduler sched(*acc, opts);
    // Stream 0 floods with five requests; stream 1 stays modest.
    for (int i = 0; i < 5; ++i)
        sched.submit(0, mw);
    sched.submit(1, mw);
    sched.submit(1, mw);
    const auto by_stream = sched.drain();

    int shed0 = 0;
    for (const auto &c : by_stream[0]) {
        if (c.shed()) {
            EXPECT_EQ(c.shed_reason, ShedReason::StreamQueueFull);
            ++shed0;
        }
    }
    EXPECT_EQ(shed0, 3);
    for (const auto &c : by_stream[1])
        EXPECT_TRUE(c.ok()) << "the modest stream must not pay for "
                               "its neighbor's flood";
    EXPECT_EQ(sched.stats().shed_stream_full, 3);
    EXPECT_EQ(sched.stats().shed_queue_full, 0);
}

TEST_F(OverloadTest, InfeasibleDeadlineShedIsOptIn)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    const auto run_with = [&](bool shed_infeasible) {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.threads = 1;
        opts.overload.shed_infeasible = shed_infeasible;
        StreamScheduler sched(*acc, opts);
        // Deadline at the arrival instant: no positive service
        // time can ever meet it.
        for (int i = 0; i < 3; ++i)
            sched.submit(i, mw, 0.0, 0.0);
        return sched.drain();
    };

    for (const auto &stream : run_with(false)) {
        for (const auto &c : stream) {
            EXPECT_TRUE(c.ok());
            EXPECT_TRUE(c.missedDeadline());
        }
    }
    for (const auto &stream : run_with(true)) {
        for (const auto &c : stream) {
            EXPECT_TRUE(c.shed());
            EXPECT_EQ(c.shed_reason,
                      ShedReason::DeadlineInfeasible);
        }
    }
}

TEST_F(OverloadTest, TransientFaultsRetryToIdenticalResults)
{
    const ModelWorkload &w1 = registry.workload("lenet5", 1);
    const ModelWorkload &w2 = registry.workload("lenet5", 2);
    const std::array<const ModelWorkload *, 2> models = {&w1, &w2};

    // Fault-free baseline runs, keyed by request id (ids restart
    // per scheduler, so submission order aligns them).
    std::map<uint64_t, NetworkRun> baseline;
    {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.run.compute_output = true;
        opts.threads = 1;
        StreamScheduler sched(*acc, opts);
        for (int i = 0; i < 8; ++i)
            sched.submit(i % 3, *models[i % 2]);
        for (auto &stream : sched.drain())
            for (auto &c : stream)
                baseline.emplace(c.id, std::move(c.run));
    }

    const auto run_with = [&](int threads, FaultInjector &fi) {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.run.compute_output = true;
        opts.fault = &fi;
        opts.threads = threads;
        opts.overload.max_retries = 8;
        StreamScheduler sched(*acc, opts);
        for (int i = 0; i < 8; ++i)
            sched.submit(i % 3, *models[i % 2]);
        return sched.drain();
    };

    std::map<uint64_t, Observed> serial;
    int64_t serial_faulted = 0;
    {
        FaultInjector fi(0x0F417);
        fi.setRate(FaultSite::LayerCompute, 0.1);
        const auto by_stream = run_with(1, fi);
        int64_t ok = 0, retried = 0;
        for (const auto &stream : by_stream) {
            for (const auto &c : stream) {
                serial.emplace(c.id, observe(c));
                if (c.ok()) {
                    ++ok;
                    retried += c.attempts > 1 ? 1 : 0;
                    // The recovered result is bitwise identical to
                    // the fault-free run: a fault can delay a
                    // result, never corrupt one.
                    EXPECT_TRUE(
                        sameRun(c.run, baseline.at(c.id)));
                }
            }
        }
        // The chosen seed faults at least one attempt and recovers
        // at least one request (deterministic, not luck: the fault
        // set is a pure function of the seed).
        EXPECT_GT(ok, 0);
        EXPECT_GT(retried, 0);
        serial_faulted = fi.injected(FaultSite::LayerCompute);
        EXPECT_GT(serial_faulted, 0);
    }

    // The full outcome map — timings, attempts, fault layers — is
    // identical at every thread count under the same seed.
    for (const int threads : {2, 4}) {
        FaultInjector fi(0x0F417);
        fi.setRate(FaultSite::LayerCompute, 0.1);
        std::map<uint64_t, Observed> parallel;
        for (const auto &stream : run_with(threads, fi))
            for (const auto &c : stream)
                parallel.emplace(c.id, observe(c));
        EXPECT_EQ(parallel, serial) << "threads " << threads;
    }
}

TEST_F(OverloadTest, FaultCountersReconcileExactly)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    FaultInjector fi(0xBEEF);
    fi.setRate(FaultSite::LayerCompute, 0.1);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.fault = &fi;
    opts.threads = 1;
    opts.overload.max_retries = 8;
    StreamScheduler sched(*acc, opts);
    for (int i = 0; i < 10; ++i)
        sched.submit(i % 2, mw);
    sched.drain();

    const FleetStats &st = sched.stats();
    EXPECT_EQ(st.layer_faults, fi.injected(FaultSite::LayerCompute));
    EXPECT_TRUE(st.reconciles());
    EXPECT_EQ(st.faulted_attempts, st.retries + st.failed)
        << "every faulted attempt either retried or terminally "
           "failed its request";
    EXPECT_GT(st.faulted_attempts, 0);
}

TEST_F(OverloadTest, ExhaustedRetriesFailOnlyTheOwningRequest)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    FaultInjector fi(0x42);
    fi.setRate(FaultSite::LayerCompute, 1.0);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.fault = &fi;
    opts.threads = 1;
    opts.overload.max_retries = 1;
    StreamScheduler sched(*acc, opts);
    sched.submit(0, mw);
    sched.submit(1, mw);
    const auto by_stream = sched.drain();
    for (const auto &stream : by_stream) {
        ASSERT_EQ(stream.size(), 1u);
        const Completion &c = stream[0];
        EXPECT_TRUE(c.failed());
        EXPECT_EQ(c.attempts, 2);
        EXPECT_GE(c.fault_layer, 0) << "a typed error names the "
                                       "layer that faulted";
        EXPECT_EQ(c.service_cycles, 0);
        EXPECT_TRUE(c.run.layers.empty());
    }
    EXPECT_EQ(sched.stats().failed, 2);
    EXPECT_EQ(sched.stats().retries, 2);
    EXPECT_EQ(sched.stats().completed, 0);

    // The scheduler itself survives: with the fault cleared, the
    // same instance serves the next batch normally.
    fi.setRate(FaultSite::LayerCompute, 0.0);
    sched.submit(0, mw);
    const auto healthy = sched.drain();
    ASSERT_EQ(healthy[0].size(), 1u);
    EXPECT_TRUE(healthy[0][0].ok());
    EXPECT_EQ(healthy[0][0].attempts, 1);
}

TEST_F(OverloadTest, StallsMoveTimeButNeverResults)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);

    std::map<uint64_t, NetworkRun> baseline;
    std::map<uint64_t, double> baseline_finish;
    {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.run.compute_output = true;
        opts.threads = 1;
        StreamScheduler sched(*acc, opts);
        for (int i = 0; i < 6; ++i)
            sched.submit(i % 2, mw);
        for (auto &stream : sched.drain()) {
            for (auto &c : stream) {
                baseline_finish.emplace(c.id, c.finish_s);
                baseline.emplace(c.id, std::move(c.run));
            }
        }
    }

    FaultInjector fi(0x57A11);
    fi.setRate(FaultSite::LayerStall, 0.5);
    fi.setStallCycles(1000, 50000);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.run.compute_output = true;
    opts.fault = &fi;
    opts.threads = 1;
    StreamScheduler sched(*acc, opts);
    for (int i = 0; i < 6; ++i)
        sched.submit(i % 2, mw);
    int64_t stalled = 0;
    for (const auto &stream : sched.drain()) {
        for (const auto &c : stream) {
            ASSERT_TRUE(c.ok());
            EXPECT_TRUE(sameRun(c.run, baseline.at(c.id)))
                << "stalls are timing-only";
            EXPECT_GE(c.finish_s, baseline_finish.at(c.id));
            if (c.stall_cycles > 0) {
                ++stalled;
                EXPECT_GT(c.retry_delay_s, 0.0);
                EXPECT_GT(c.finish_s, baseline_finish.at(c.id));
            }
        }
    }
    EXPECT_GT(stalled, 0);
    EXPECT_EQ(sched.stats().stall_events,
              fi.injected(FaultSite::LayerStall));
    EXPECT_EQ(sched.stats().failed, 0);
}

TEST_F(OverloadTest, RetryDelayIsTheExactExponentialSeries)
{
    // The documented accrual contract, checked term by term:
    // retry_delay_s == stall seconds + per failed attempt
    // (the attempt's service seconds + backoff * 2^min(a, 20)),
    // summed in attempt order. The oracle mirrors the accumulation
    // order exactly, so EXPECT_DOUBLE_EQ holds bit for bit.
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    const double backoff = 0.125;
    FaultInjector fi(0x0F417);
    fi.setRate(FaultSite::LayerCompute, 0.1);
    fi.setRate(FaultSite::LayerStall, 0.05);
    fi.setStallCycles(1000, 50000);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.fault = &fi;
    opts.threads = 1;
    opts.overload.max_retries = 8;
    opts.overload.retry_backoff_s = backoff;
    StreamScheduler sched(*acc, opts);
    for (int i = 0; i < 12; ++i)
        sched.submit(i % 3, mw);
    int64_t retried = 0;
    for (const auto &stream : sched.drain()) {
        for (const auto &c : stream) {
            ASSERT_TRUE(c.ok());
            const double service_s =
                opts.clock.cyclesToSeconds(c.service_cycles);
            double expected =
                opts.clock.cyclesToSeconds(c.stall_cycles);
            for (int a = 0; a < c.attempts - 1; ++a) {
                expected += service_s;
                expected += backoff *
                            static_cast<double>(
                                int64_t{1} << std::min(a, 20));
            }
            EXPECT_DOUBLE_EQ(c.retry_delay_s, expected)
                << "request " << c.id << " attempts "
                << c.attempts;
            retried += c.attempts > 1 ? 1 : 0;
        }
    }
    // The seed retries at least one request, so the exponential
    // terms above were actually exercised.
    EXPECT_GT(retried, 0);
}

TEST_F(OverloadTest, BackoffAccruesOnlyOnTheOwningLane)
{
    // Two always-faulting requests on two lanes: each exhausts its
    // retry budget on its *own* lane, so both start at t = 0 —
    // backoff never serializes unrelated lanes. A third request
    // then waits exactly one full retry series, no more: each of
    // the three failed attempts costs the request's service time,
    // plus backoff * (1 + 2 + 4) = 3.5 virtual seconds.
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    FaultInjector fi(0x42);
    fi.setRate(FaultSite::LayerCompute, 1.0);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.fault = &fi;
    opts.threads = 1;
    opts.clock.lanes = 2;
    opts.overload.max_retries = 2;
    opts.overload.retry_backoff_s = 0.5;
    StreamScheduler sched(*acc, opts);
    sched.submit(0, mw, /*arrival_s=*/0.0);
    sched.submit(1, mw, /*arrival_s=*/0.0);
    sched.submit(2, mw, /*arrival_s=*/0.0);
    const auto by_stream = sched.drain();
    ASSERT_EQ(by_stream.size(), 3u);
    const double service_s = opts.clock.cyclesToSeconds(
        acc->runNetwork(mw.layers, opts.run).total.cycles);
    double series = 0.0;
    for (int a = 0; a < 3; ++a)
        series += service_s + 0.5 * static_cast<double>(1 << a);
    for (const auto &stream : by_stream) {
        ASSERT_EQ(stream.size(), 1u);
        const Completion &c = stream[0];
        EXPECT_TRUE(c.failed());
        EXPECT_EQ(c.attempts, 3);
        EXPECT_DOUBLE_EQ(c.retry_delay_s, series);
        // A failed request delivers no service: the lane was
        // occupied purely by the accrued series.
        EXPECT_DOUBLE_EQ(c.finish_s - c.start_s, series);
    }
    const Completion &first = by_stream[0][0];
    const Completion &second = by_stream[1][0];
    const Completion &third = by_stream[2][0];
    EXPECT_EQ(first.lane, 0);
    EXPECT_EQ(second.lane, 1);
    EXPECT_DOUBLE_EQ(first.start_s, 0.0);
    EXPECT_DOUBLE_EQ(second.start_s, 0.0)
        << "lane 1 must not inherit lane 0's backoff";
    EXPECT_EQ(third.lane, 0) << "free lanes tie-break low";
    EXPECT_DOUBLE_EQ(third.start_s, series);
}

} // anonymous namespace
} // namespace serve
} // namespace s2ta
