#include "serve/telemetry.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace s2ta {
namespace serve {

double
FleetTelemetry::routingSkew() const
{
    if (usage_.empty())
        return 0.0;
    int64_t total = 0, peak = 0;
    for (const ReplicaUsage &u : usage_) {
        total += u.routed;
        peak = std::max(peak, u.routed);
    }
    if (total == 0)
        return 0.0;
    const double mean = static_cast<double>(total) /
                        static_cast<double>(usage_.size());
    return static_cast<double>(peak) / mean;
}

double
FleetTelemetry::cacheHitVariance() const
{
    if (usage_.empty())
        return 0.0;
    double mean = 0.0;
    for (const ReplicaUsage &u : usage_)
        mean += u.hitRate();
    mean /= static_cast<double>(usage_.size());
    double var = 0.0;
    for (const ReplicaUsage &u : usage_) {
        const double d = u.hitRate() - mean;
        var += d * d;
    }
    return var / static_cast<double>(usage_.size());
}

void
LatencyTelemetry::record(const LatencySample &s)
{
    const double latency = s.latency();
    const double queue = s.queueing();
    s2ta_assert(latency >= 0.0, "negative latency %g", latency);
    s2ta_assert(queue >= 0.0, "negative queueing delay %g", queue);

    latencies_s.push_back(latency);
    bucket_counts[bucketOf(latency)] += 1;
    total += 1;
    latency_sum_s += latency;
    latency_max_s = std::max(latency_max_s, latency);

    StreamDelay &sd = streams[s.stream];
    sd.requests += 1;
    sd.queue_sum_s += queue;
    sd.queue_max_s = std::max(sd.queue_max_s, queue);

    if (s.hasDeadline()) {
        with_deadline += 1;
        if (s.missedDeadline()) {
            misses += 1;
            sd.deadline_misses += 1;
        }
    }
}

namespace {

/**
 * Nearest rank over a non-empty ascending sample list: ceil(q*n),
 * 1-based. A single sample is every quantile of its stream. The
 * 0-sample case is the *caller's* decision — quantile() panics,
 * quantiles() reports zeros — rather than relying on rank clamping
 * to paper over it here.
 */
double
rankOf(const std::vector<double> &sorted, double q)
{
    const size_t n = sorted.size();
    s2ta_assert(n > 0, "rankOf on an empty sample list");
    if (n == 1)
        return sorted[0];
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::min(std::max<size_t>(rank, 1), n);
    return sorted[rank - 1];
}

} // anonymous namespace

double
LatencyTelemetry::quantile(double q) const
{
    s2ta_assert(q > 0.0 && q <= 1.0, "quantile %g out of (0, 1]",
                q);
    s2ta_assert(total > 0,
                "quantile(%g) on empty telemetry — a 0.0 here "
                "would report a perfect latency",
                q);
    std::vector<double> sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    return rankOf(sorted, q);
}

LatencyQuantiles
LatencyTelemetry::quantiles() const
{
    if (total == 0)
        return {};
    std::vector<double> sorted = latencies_s;
    std::sort(sorted.begin(), sorted.end());
    return {rankOf(sorted, 0.50), rankOf(sorted, 0.95),
            rankOf(sorted, 0.99)};
}

size_t
LatencyTelemetry::bucketOf(double latency_s)
{
    const double us = latency_s * 1e6;
    if (us < 2.0)
        return 0;
    const size_t k =
        static_cast<size_t>(std::floor(std::log2(us)));
    return std::min(k, kBuckets - 1);
}

std::vector<HistogramBin>
LatencyTelemetry::histogram() const
{
    std::vector<HistogramBin> bins;
    for (size_t k = 0; k < kBuckets; ++k) {
        if (bucket_counts[k] == 0)
            continue;
        HistogramBin bin;
        bin.lo_s = k == 0 ? 0.0 : std::ldexp(1e-6, static_cast<int>(k));
        bin.hi_s = std::ldexp(1e-6, static_cast<int>(k) + 1);
        bin.count = bucket_counts[k];
        bins.push_back(bin);
    }
    return bins;
}

void
LatencyTelemetry::clear()
{
    latencies_s.clear();
    std::fill(std::begin(bucket_counts), std::end(bucket_counts),
              0);
    streams.clear();
    total = 0;
    with_deadline = 0;
    misses = 0;
    latency_sum_s = 0.0;
    latency_max_s = 0.0;
}

} // namespace serve
} // namespace s2ta
