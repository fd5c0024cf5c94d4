/** @file Scheduler contract: per-stream completions arrive strictly
 *  in submission order, results are bitwise identical at every lane
 *  count and with the cross-stream PlanCache on or off, the
 *  on_complete callback fires in deterministic admission order, and
 *  cache sharing across streams actually hits. QoS contract: the
 *  virtual-clock timing is deterministic at every thread count and
 *  for every policy/seed permutation, policies never change
 *  simulation results, deadline misses are accounted exactly, and
 *  the default options preserve the pre-QoS round-robin behavior
 *  bit for bit. */

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "arch/plan_cache.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"

namespace s2ta {
namespace serve {
namespace {

/** Events-only runs, generator structure trusted (test speed). */
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

class StreamSchedulerTest : public ::testing::Test
{
  protected:
    StreamSchedulerTest()
    {
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::s2taAw(4);
        cfg.sim_threads = 1;
        acc = std::make_unique<Accelerator>(cfg);
    }

    ModelRegistry registry;
    std::unique_ptr<Accelerator> acc;
};

TEST_F(StreamSchedulerTest, PerStreamCompletionIsInSubmissionOrder)
{
    const ModelWorkload &small = registry.workload("lenet5", 1);
    const ModelWorkload &big = registry.workload("lenet5", 2);

    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.threads = 0; // hardware-sized fan-out
    StreamScheduler sched(*acc, opts);

    // Interleave submissions across two streams; stream 7 gets a
    // slow (batched) request first so an out-of-order scheduler
    // would complete its second request earlier.
    const uint64_t a0 = sched.submit(7, big);
    const uint64_t b0 = sched.submit(2, small);
    const uint64_t a1 = sched.submit(7, small);
    const uint64_t b1 = sched.submit(2, big);
    EXPECT_EQ(sched.pending(), 4);

    const auto by_stream = sched.drain();
    EXPECT_EQ(sched.pending(), 0);
    ASSERT_EQ(by_stream.size(), 2u);
    // Groups come back in ascending stream id: stream 2 first.
    ASSERT_EQ(by_stream[0].size(), 2u);
    ASSERT_EQ(by_stream[1].size(), 2u);
    EXPECT_EQ(by_stream[0][0].id, b0);
    EXPECT_EQ(by_stream[0][1].id, b1);
    EXPECT_EQ(by_stream[1][0].id, a0);
    EXPECT_EQ(by_stream[1][1].id, a1);
    EXPECT_EQ(by_stream[1][0].batch, 2);
    EXPECT_EQ(by_stream[1][1].batch, 1);
    EXPECT_EQ(by_stream[0][0].model, "LeNet-5");
}

TEST_F(StreamSchedulerTest, ResultsIdenticalAtEveryLaneCount)
{
    const ModelWorkload &w1 = registry.workload("lenet5", 1);
    const ModelWorkload &w2 = registry.workload("lenet5", 3);

    const auto run_with = [&](int threads) {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.run.compute_output = true; // strongest check
        opts.threads = threads;
        StreamScheduler sched(*acc, opts);
        for (int r = 0; r < 3; ++r) {
            sched.submit(0, w1);
            sched.submit(1, w2);
        }
        return sched.drain();
    };

    const auto serial = run_with(1);
    for (int threads : {0, 2, 4}) {
        const auto parallel = run_with(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (size_t s = 0; s < serial.size(); ++s) {
            ASSERT_EQ(parallel[s].size(), serial[s].size());
            for (size_t i = 0; i < serial[s].size(); ++i) {
                EXPECT_TRUE(sameRun(parallel[s][i].run,
                                    serial[s][i].run))
                    << "threads " << threads << " stream " << s
                    << " request " << i;
            }
        }
    }
}

TEST_F(StreamSchedulerTest, SharedPlanCacheHitsAcrossStreams)
{
    const ModelWorkload &mw = registry.workload("lenet5", 2);

    PlanCache cache;
    StreamScheduler::Options cached;
    cached.run = serveRunOptions();
    cached.run.plan_cache = &cache;
    cached.threads = 1;
    StreamScheduler sched(*acc, cached);
    // Four streams all serving the same model: every stream after
    // the first re-hits the encodings the first one built.
    for (int stream = 0; stream < 4; ++stream)
        sched.submit(stream, mw);
    const auto cached_runs = sched.drain();
    EXPECT_GT(cache.stats().hits, 0);

    // And the shared cache is invisible in the results.
    StreamScheduler::Options plain;
    plain.run = serveRunOptions();
    plain.threads = 1;
    StreamScheduler ref(*acc, plain);
    ref.submit(0, mw);
    const auto ref_runs = ref.drain();
    for (const auto &stream : cached_runs) {
        for (const auto &c : stream)
            EXPECT_TRUE(sameRun(c.run, ref_runs[0][0].run));
    }
}

TEST_F(StreamSchedulerTest, CallbackFiresInAdmissionOrderAndStats)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    const int64_t gemms = StreamScheduler::gemmCount(mw);
    // LeNet-5 is ungrouped: one GEMM per layer.
    EXPECT_EQ(gemms, static_cast<int64_t>(mw.layers.size()));

    std::vector<uint64_t> completed;
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.threads = 0;
    opts.on_complete = [&](const Completion &c) {
        completed.push_back(c.id);
    };
    StreamScheduler sched(*acc, opts);
    const uint64_t s0r0 = sched.submit(0, mw);
    const uint64_t s0r1 = sched.submit(0, mw);
    const uint64_t s1r0 = sched.submit(1, mw);
    sched.drain();

    // Round-robin admission: stream 0, stream 1, stream 0.
    ASSERT_EQ(completed.size(), 3u);
    EXPECT_EQ(completed[0], s0r0);
    EXPECT_EQ(completed[1], s1r0);
    EXPECT_EQ(completed[2], s0r1);

    const FleetStats &st = sched.stats();
    EXPECT_EQ(st.requests, 3);
    EXPECT_EQ(st.gemms, 3 * gemms);
    EXPECT_EQ(st.layers,
              3 * static_cast<int64_t>(mw.layers.size()));
    EXPECT_GT(st.dense_macs, 0);
}

// ---- QoS: virtual-clock timing through the scheduler ------------

TEST_F(StreamSchedulerTest, DefaultTimingIsClosedLoopFifo)
{
    // Default submissions (arrival 0, no deadline, 1 lane): the
    // virtual clock runs requests back to back in admission order,
    // each service time being exactly the request's cycle total at
    // the 1 GHz default clock.
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.threads = 1;
    StreamScheduler sched(*acc, opts);
    sched.submit(0, mw);
    sched.submit(0, mw);
    const auto by_stream = sched.drain();
    ASSERT_EQ(by_stream.size(), 1u);
    ASSERT_EQ(by_stream[0].size(), 2u);
    const Completion &c0 = by_stream[0][0];
    const Completion &c1 = by_stream[0][1];
    EXPECT_EQ(c0.service_cycles, c0.run.total.cycles);
    EXPECT_DOUBLE_EQ(c0.arrival_s, 0.0);
    EXPECT_DOUBLE_EQ(c0.start_s, 0.0);
    EXPECT_DOUBLE_EQ(
        c0.finish_s,
        static_cast<double>(c0.service_cycles) / 1e9);
    EXPECT_DOUBLE_EQ(c1.start_s, c0.finish_s);
    EXPECT_EQ(c0.deadline_s, kNoDeadline);
    EXPECT_FALSE(c0.missedDeadline());
    EXPECT_EQ(c0.lane, 0);
}

TEST_F(StreamSchedulerTest, TimingDeterministicAcrossThreadCounts)
{
    // Virtual timings (and runs) must be bitwise identical at
    // every simulation lane count, for every policy and several
    // trace seeds.
    const ModelWorkload &w1 = registry.workload("lenet5", 1);
    const ModelWorkload &w2 = registry.workload("lenet5", 2);
    const std::array<const ModelWorkload *, 2> models = {&w1, &w2};

    for (const PolicyKind kind :
         {PolicyKind::RoundRobin, PolicyKind::EarliestDeadlineFirst,
          PolicyKind::ShortestJobFirst}) {
        for (const uint64_t seed : {1ull, 99ull}) {
            const auto run_with = [&](int threads) {
                Rng rng(seed);
                const auto arrivals =
                    poissonArrivals(6, 2000.0, rng);
                StreamScheduler::Options opts;
                opts.run = serveRunOptions();
                opts.threads = threads;
                opts.clock = VirtualClockConfig{2, 1.0};
                opts.policy = &policyFor(kind);
                StreamScheduler sched(*acc, opts);
                for (size_t i = 0; i < arrivals.size(); ++i) {
                    sched.submit(static_cast<int>(i) % 3,
                                 *models[i % models.size()],
                                 arrivals[i],
                                 arrivals[i] + 0.001);
                }
                std::map<uint64_t, std::array<double, 4>> timings;
                for (const auto &stream : sched.drain()) {
                    for (const auto &c : stream) {
                        timings.emplace(
                            c.id,
                            std::array<double, 4>{
                                c.arrival_s, c.start_s, c.finish_s,
                                c.deadline_s});
                    }
                }
                return timings;
            };
            const auto serial = run_with(1);
            for (const int threads : {0, 2, 4}) {
                EXPECT_EQ(run_with(threads), serial)
                    << policyName(kind) << " seed " << seed
                    << " threads " << threads;
            }
        }
    }
}

TEST_F(StreamSchedulerTest, PoliciesNeverChangeSimulationResults)
{
    const ModelWorkload &w1 = registry.workload("lenet5", 1);
    const ModelWorkload &w2 = registry.workload("lenet5", 2);

    const auto run_with = [&](const AdmissionPolicy *policy) {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.run.compute_output = true; // strongest check
        opts.threads = 1;
        opts.clock = VirtualClockConfig{2, 1.0};
        opts.policy = policy;
        StreamScheduler sched(*acc, opts);
        // Arrivals all at 0 with distinct deadlines/sizes so the
        // policies genuinely dispatch in different orders.
        sched.submit(0, w2, 0.0, 0.010);
        sched.submit(1, w1, 0.0, 0.001);
        sched.submit(2, w2, 0.0, 0.005);
        sched.submit(3, w1, 0.0, 0.002);
        return sched.drain();
    };

    const auto base = run_with(nullptr);
    for (const PolicyKind kind :
         {PolicyKind::RoundRobin, PolicyKind::EarliestDeadlineFirst,
          PolicyKind::ShortestJobFirst}) {
        const auto got = run_with(&policyFor(kind));
        ASSERT_EQ(got.size(), base.size()) << policyName(kind);
        for (size_t s = 0; s < base.size(); ++s) {
            ASSERT_EQ(got[s].size(), base[s].size());
            for (size_t i = 0; i < base[s].size(); ++i) {
                // Identity, grouping, callback order, and the
                // simulation itself are policy-independent...
                EXPECT_EQ(got[s][i].id, base[s][i].id);
                EXPECT_TRUE(
                    sameRun(got[s][i].run, base[s][i].run))
                    << policyName(kind) << " stream " << s;
            }
        }
    }
}

TEST_F(StreamSchedulerTest, NullPolicyMatchesRoundRobinBitForBit)
{
    // The default (no policy) is the round-robin policy: identical
    // timings, not just identical results.
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    const auto timings = [&](const AdmissionPolicy *policy) {
        StreamScheduler::Options opts;
        opts.run = serveRunOptions();
        opts.threads = 1;
        opts.policy = policy;
        StreamScheduler sched(*acc, opts);
        for (int i = 0; i < 4; ++i)
            sched.submit(i % 2, mw, 0.0001 * i);
        std::vector<std::array<double, 2>> out;
        for (const auto &stream : sched.drain())
            for (const auto &c : stream)
                out.push_back({c.start_s, c.finish_s});
        return out;
    };
    EXPECT_EQ(timings(nullptr),
              timings(&policyFor(PolicyKind::RoundRobin)));
}

TEST_F(StreamSchedulerTest, DeadlineMissAccountingIsExact)
{
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    // Pin the service time first so deadlines can bracket it.
    StreamScheduler::Options opts;
    opts.run = serveRunOptions();
    opts.threads = 1;
    StreamScheduler probe(*acc, opts);
    probe.submit(0, mw);
    const double service_s =
        probe.drain()[0][0].finish_s;
    ASSERT_GT(service_s, 0.0);

    LatencyTelemetry telemetry;
    opts.on_complete = [&](const Completion &c) {
        telemetry.record(c.sample());
    };
    StreamScheduler sched(*acc, opts);
    // One lane, both arrive at 0: the second queues behind the
    // first. Generous deadline on the first (met), one service
    // time on the second (missed: it finishes at 2x service).
    sched.submit(0, mw, 0.0, 10.0 * service_s);
    sched.submit(1, mw, 0.0, 1.0 * service_s);
    const auto by_stream = sched.drain();
    EXPECT_FALSE(by_stream[0][0].missedDeadline());
    EXPECT_TRUE(by_stream[1][0].missedDeadline());
    EXPECT_EQ(telemetry.deadlineRequests(), 2);
    EXPECT_EQ(telemetry.deadlineMisses(), 1);
    EXPECT_EQ(telemetry.byStream().at(1).deadline_misses, 1);
}

} // anonymous namespace
} // namespace serve
} // namespace s2ta
