/** @file Telemetry contract: quantiles are exact nearest-rank
 *  values (checked against a sorted-reference oracle), per-stream
 *  queueing breakdowns and deadline-miss accounting are exact, the
 *  histogram partitions every sample, and clear() resets. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "base/random.hh"
#include "serve/telemetry.hh"

namespace s2ta {
namespace serve {
namespace {

LatencySample
sample(int stream, double arrival, double start, double finish,
       double deadline = kNoDeadline)
{
    return LatencySample{stream, arrival, start, finish, deadline};
}

/** Independent nearest-rank oracle over the raw latency list. */
double
oracleQuantile(std::vector<double> latencies, double q)
{
    std::sort(latencies.begin(), latencies.end());
    const size_t n = latencies.size();
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    return latencies[rank - 1];
}

TEST(LatencyTelemetry, QuantilesMatchSortedOracle)
{
    Rng rng(0xDECAF);
    for (const int n : {1, 2, 3, 7, 100, 1777}) {
        LatencyTelemetry t;
        std::vector<double> latencies;
        for (int i = 0; i < n; ++i) {
            // Arrival 0 so the recorded latency is exactly `lat`
            // (an offset would perturb the low bits of the
            // finish - arrival difference).
            const double lat = rng.uniformReal(1e-6, 5.0);
            latencies.push_back(lat);
            t.record(sample(i % 4, 0.0, 0.0, lat));
        }
        ASSERT_EQ(t.count(), n);
        for (const double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99,
                               1.0}) {
            EXPECT_DOUBLE_EQ(t.quantile(q),
                             oracleQuantile(latencies, q))
                << "n=" << n << " q=" << q;
        }
        const LatencyQuantiles lq = t.quantiles();
        EXPECT_DOUBLE_EQ(lq.p50_s, oracleQuantile(latencies, 0.5));
        EXPECT_DOUBLE_EQ(lq.p95_s,
                         oracleQuantile(latencies, 0.95));
        EXPECT_DOUBLE_EQ(lq.p99_s,
                         oracleQuantile(latencies, 0.99));
    }
}

TEST(LatencyTelemetry, QuantileIsRecordOrderIndependent)
{
    const std::vector<double> latencies = {0.5, 0.1, 0.9, 0.3,
                                           0.7};
    LatencyTelemetry fwd, rev;
    for (const double lat : latencies)
        fwd.record(sample(0, 0.0, 0.0, lat));
    for (auto it = latencies.rbegin(); it != latencies.rend(); ++it)
        rev.record(sample(0, 0.0, 0.0, *it));
    for (const double q : {0.2, 0.5, 0.95})
        EXPECT_DOUBLE_EQ(fwd.quantile(q), rev.quantile(q));
}

TEST(LatencyTelemetry, PerStreamQueueingBreakdown)
{
    LatencyTelemetry t;
    // Stream 3: queues of 1 and 3; stream 8: queue of 0.
    t.record(sample(3, 0.0, 1.0, 2.0));
    t.record(sample(3, 2.0, 5.0, 6.0));
    t.record(sample(8, 0.0, 0.0, 4.0));
    const auto &by = t.byStream();
    ASSERT_EQ(by.size(), 2u);
    const StreamDelay &s3 = by.at(3);
    EXPECT_EQ(s3.requests, 2);
    EXPECT_DOUBLE_EQ(s3.queue_sum_s, 4.0);
    EXPECT_DOUBLE_EQ(s3.meanQueue(), 2.0);
    EXPECT_DOUBLE_EQ(s3.queue_max_s, 3.0);
    const StreamDelay &s8 = by.at(8);
    EXPECT_EQ(s8.requests, 1);
    EXPECT_DOUBLE_EQ(s8.meanQueue(), 0.0);
}

TEST(LatencyTelemetry, DeadlineAccounting)
{
    LatencyTelemetry t;
    t.record(sample(0, 0.0, 0.0, 1.0));           // no deadline
    t.record(sample(0, 0.0, 0.0, 1.0, 2.0));      // met
    t.record(sample(1, 0.0, 0.0, 3.0, 2.0));      // missed
    t.record(sample(1, 0.0, 0.0, 2.0, 2.0));      // met (exact)
    EXPECT_EQ(t.count(), 4);
    EXPECT_EQ(t.deadlineRequests(), 3);
    EXPECT_EQ(t.deadlineMisses(), 1);
    EXPECT_DOUBLE_EQ(t.missRate(), 1.0 / 3.0);
    EXPECT_EQ(t.byStream().at(0).deadline_misses, 0);
    EXPECT_EQ(t.byStream().at(1).deadline_misses, 1);

    LatencyTelemetry none;
    none.record(sample(0, 0.0, 0.0, 1.0));
    EXPECT_DOUBLE_EQ(none.missRate(), 0.0);
}

TEST(LatencyTelemetry, HistogramPartitionsEverySample)
{
    LatencyTelemetry t;
    Rng rng(0xB1A5);
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        // Latencies spanning sub-us to tens of seconds.
        const double lat = std::pow(
            10.0, rng.uniformReal(-7.0, 1.5));
        t.record(sample(0, 0.0, 0.0, lat));
    }
    const auto bins = t.histogram();
    int64_t total = 0;
    for (size_t i = 0; i < bins.size(); ++i) {
        EXPECT_GT(bins[i].count, 0); // only populated bins
        EXPECT_LT(bins[i].lo_s, bins[i].hi_s);
        if (i > 0) {
            EXPECT_GE(bins[i].lo_s, bins[i - 1].hi_s - 1e-12);
        }
        total += bins[i].count;
    }
    EXPECT_EQ(total, n);
}

TEST(LatencyTelemetry, MeanMaxAndClear)
{
    LatencyTelemetry t;
    t.record(sample(0, 0.0, 0.0, 1.0));
    t.record(sample(1, 0.0, 1.0, 3.0, 0.5));
    EXPECT_DOUBLE_EQ(t.meanLatency(), 2.0);
    EXPECT_DOUBLE_EQ(t.maxLatency(), 3.0);
    t.clear();
    EXPECT_EQ(t.count(), 0);
    EXPECT_EQ(t.deadlineRequests(), 0);
    EXPECT_EQ(t.deadlineMisses(), 0);
    EXPECT_TRUE(t.byStream().empty());
    EXPECT_TRUE(t.histogram().empty());
    EXPECT_DOUBLE_EQ(t.meanLatency(), 0.0);
}

TEST(LatencyTelemetry, EmptyStreamQuantilePanicsInsteadOfLying)
{
    // The degenerate-stream contract: quantile() on an empty
    // telemetry is a caller bug and panics — the old silent 0.0
    // masqueraded as a perfect latency in dashboards. Callers for
    // whom emptiness is legitimate use quantiles() (defined on
    // every size: all zeros when empty, because harnesses emit
    // quantile columns unconditionally).
    LatencyTelemetry t;
    EXPECT_EQ(t.count(), 0);
    EXPECT_DEATH(t.quantile(0.5), "empty");
    const LatencyQuantiles lq = t.quantiles();
    EXPECT_DOUBLE_EQ(lq.p50_s, 0.0);
    EXPECT_DOUBLE_EQ(lq.p95_s, 0.0);
    EXPECT_DOUBLE_EQ(lq.p99_s, 0.0);
    EXPECT_DOUBLE_EQ(t.meanLatency(), 0.0);
    EXPECT_DOUBLE_EQ(t.maxLatency(), 0.0);
}

TEST(LatencyTelemetry, SingleSampleStreamIsItsOwnQuantile)
{
    // One sample: every quantile — including q = 0.01, whose
    // nearest-rank index would naively round to rank 0 — is that
    // sample.
    LatencyTelemetry t;
    t.record(sample(0, 0.0, 0.25, 1.75));
    for (const double q : {0.01, 0.5, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(t.quantile(q), 1.75) << "q=" << q;
    const LatencyQuantiles lq = t.quantiles();
    EXPECT_DOUBLE_EQ(lq.p50_s, 1.75);
    EXPECT_DOUBLE_EQ(lq.p95_s, 1.75);
    EXPECT_DOUBLE_EQ(lq.p99_s, 1.75);
    EXPECT_DOUBLE_EQ(t.meanLatency(), 1.75);
    EXPECT_DOUBLE_EQ(t.maxLatency(), 1.75);
    // And after clear() the empty-stream contract applies again.
    t.clear();
    EXPECT_DEATH(t.quantile(0.5), "empty");
}

TEST(LatencyTelemetry, TwoSampleNearestRankBoundaries)
{
    // Two samples pin the nearest-rank boundary arithmetic: p50 is
    // the *lower* sample (rank ceil(0.5 * 2) = 1) and everything
    // above q = 0.5 is the upper one (rank 2).
    LatencyTelemetry t;
    t.record(sample(0, 0.0, 0.0, 3.0));
    t.record(sample(1, 0.0, 0.0, 1.0));
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.51), 3.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.95), 3.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.99), 3.0);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 3.0);
    const LatencyQuantiles lq = t.quantiles();
    EXPECT_DOUBLE_EQ(lq.p50_s, 1.0);
    EXPECT_DOUBLE_EQ(lq.p95_s, 3.0);
    EXPECT_DOUBLE_EQ(lq.p99_s, 3.0);
}

TEST(FleetTelemetry, HedgeLedgerReconciles)
{
    FleetTelemetry ft(3);
    EXPECT_TRUE(ft.hedgesReconcile());
    ft.recordHedgeLaunched();
    EXPECT_FALSE(ft.hedgesReconcile()); // in flight, unresolved
    ft.recordHedgeWin();
    EXPECT_TRUE(ft.hedgesReconcile());
    ft.recordHedgeLaunched();
    ft.recordHedgeLoss();
    ft.recordHedgeLaunched();
    ft.recordHedgeFailed();
    EXPECT_TRUE(ft.hedgesReconcile());
    EXPECT_EQ(ft.hedgesLaunched(), 3);
    EXPECT_EQ(ft.hedgeWins(), 1);
    EXPECT_EQ(ft.hedgeLosses(), 1);
    EXPECT_EQ(ft.hedgeFailed(), 1);
}

TEST(FleetTelemetry, RoutingSkewIsPeakOverMean)
{
    FleetTelemetry ft(2);
    // No traffic routed anywhere: skew degenerates to 0.
    EXPECT_DOUBLE_EQ(ft.routingSkew(), 0.0);
    ft.replica(0).routed = 3;
    ft.replica(1).routed = 1;
    // Peak 3 over mean 2.
    EXPECT_DOUBLE_EQ(ft.routingSkew(), 1.5);
}

TEST(FleetTelemetry, CacheHitVarianceIsPopulationVariance)
{
    FleetTelemetry ft(2);
    // Hit rates 1.0 and 0.0: mean 0.5, population variance 0.25.
    ft.replica(0).cache_hits = 4;
    ft.replica(1).cache_misses = 4;
    EXPECT_DOUBLE_EQ(ft.cacheHitVariance(), 0.25);
    // Identical replicas: zero variance.
    FleetTelemetry even(3);
    for (int r = 0; r < 3; ++r) {
        even.replica(r).cache_hits = 2;
        even.replica(r).cache_misses = 2;
    }
    EXPECT_DOUBLE_EQ(even.cacheHitVariance(), 0.0);
}

TEST(LatencySample, Helpers)
{
    const LatencySample s = sample(2, 1.0, 3.0, 7.0, 6.0);
    EXPECT_DOUBLE_EQ(s.latency(), 6.0);
    EXPECT_DOUBLE_EQ(s.queueing(), 2.0);
    EXPECT_TRUE(s.hasDeadline());
    EXPECT_TRUE(s.missedDeadline());
    const LatencySample open = sample(2, 1.0, 3.0, 7.0);
    EXPECT_FALSE(open.hasDeadline());
    EXPECT_FALSE(open.missedDeadline());
}

} // anonymous namespace
} // namespace serve
} // namespace s2ta
