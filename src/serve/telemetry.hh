/**
 * @file
 * Streaming latency telemetry for the serving QoS layer.
 *
 * A LatencyTelemetry accumulates one LatencySample per completed
 * request as completions stream out of a drain: end-to-end latency
 * (finish - arrival) feeds an exact quantile store plus a
 * log2-bucketed histogram, queueing delay (start - arrival) feeds a
 * per-stream breakdown, and deadline outcomes feed miss counters.
 *
 * Everything is computed from virtual-time instants, so two
 * telemetry objects fed the same completions agree bit for bit —
 * the quantiles are *exact* (nearest-rank over the full sample set,
 * not an approximation sketch) and deterministic at every thread
 * count. Accumulation is O(1) per sample (amortized); quantiles()
 * sorts a copy on demand.
 *
 * Not thread-safe: record from the draining thread (the scheduler's
 * on_complete callback runs there) or guard externally.
 */

#ifndef S2TA_SERVE_TELEMETRY_HH
#define S2TA_SERVE_TELEMETRY_HH

#include <cstdint>
#include <map>
#include <vector>

#include "serve/qos.hh"

namespace s2ta {
namespace serve {

/** The timing of one completed request, in virtual seconds. */
struct LatencySample
{
    int stream = 0;
    double arrival_s = 0.0;
    double start_s = 0.0;
    double finish_s = 0.0;
    double deadline_s = kNoDeadline;

    /** End-to-end latency: queueing + service. */
    double latency() const { return finish_s - arrival_s; }
    /** Time spent queued before a lane picked the request up. */
    double queueing() const { return start_s - arrival_s; }
    /** True when the request carried a deadline at all. */
    bool hasDeadline() const { return deadline_s != kNoDeadline; }
    /** True when a carried deadline was missed. */
    bool
    missedDeadline() const
    {
        return hasDeadline() && finish_s > deadline_s;
    }
};

/** Exact nearest-rank latency quantiles, in virtual seconds. */
struct LatencyQuantiles
{
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
};

/** Queueing-delay breakdown of one stream. */
struct StreamDelay
{
    int64_t requests = 0;
    double queue_sum_s = 0.0;
    double queue_max_s = 0.0;
    int64_t deadline_misses = 0;

    double
    meanQueue() const
    {
        return requests > 0
                   ? queue_sum_s / static_cast<double>(requests)
                   : 0.0;
    }
};

/** One populated histogram bucket. */
struct HistogramBin
{
    /** Latency range [lo_s, hi_s) the bucket covers. */
    double lo_s = 0.0;
    double hi_s = 0.0;
    int64_t count = 0;
};

/** Per-replica serving counters for fleet telemetry. */
struct ReplicaUsage
{
    /** Request instances routed here (original placements,
     *  failover re-dispatches, and hedges all count). */
    int64_t routed = 0;
    /** Snapshot of the replica's PlanCache hits/misses across both
     *  in-RAM tiers. */
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;

    double
    hitRate() const
    {
        const int64_t lookups = cache_hits + cache_misses;
        return lookups > 0 ? static_cast<double>(cache_hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
    }
};

/**
 * Fleet-level telemetry: routing skew, hedge outcomes, and
 * cache-hit variance across replicas.
 * Deterministic inputs (the fleet event loop runs serially on the
 * draining thread); not thread-safe.
 */
class FleetTelemetry
{
  public:
    explicit FleetTelemetry(int replicas = 0)
        : usage_(static_cast<size_t>(replicas))
    {
    }

    int replicas() const { return static_cast<int>(usage_.size()); }
    ReplicaUsage &replica(int r) { return usage_.at(size_t(r)); }
    const ReplicaUsage &
    replica(int r) const
    {
        return usage_.at(static_cast<size_t>(r));
    }

    void recordHedgeLaunched() { hedges_launched_ += 1; }
    void recordHedgeWin() { hedge_wins_ += 1; }
    void recordHedgeLoss() { hedge_losses_ += 1; }
    /** A hedged request where neither instance delivered. */
    void recordHedgeFailed() { hedge_failed_ += 1; }

    int64_t hedgesLaunched() const { return hedges_launched_; }
    int64_t hedgeWins() const { return hedge_wins_; }
    int64_t hedgeLosses() const { return hedge_losses_; }
    int64_t hedgeFailed() const { return hedge_failed_; }

    /** Every launched hedge resolved exactly one way. */
    bool
    hedgesReconcile() const
    {
        return hedges_launched_ ==
               hedge_wins_ + hedge_losses_ + hedge_failed_;
    }

    /** Max-over-mean routed instances across replicas (1.0 =
     *  perfectly even; 0 when nothing was routed). */
    double routingSkew() const;

    /** Population variance of per-replica cache hit rates. */
    double cacheHitVariance() const;

  private:
    std::vector<ReplicaUsage> usage_;
    int64_t hedges_launched_ = 0;
    int64_t hedge_wins_ = 0;
    int64_t hedge_losses_ = 0;
    int64_t hedge_failed_ = 0;
};

class LatencyTelemetry
{
  public:
    void record(const LatencySample &s);

    int64_t count() const { return total; }
    /** Requests that carried a deadline. */
    int64_t deadlineRequests() const { return with_deadline; }
    int64_t deadlineMisses() const { return misses; }
    /** Misses over deadline-carrying requests (0 when none). */
    double
    missRate() const
    {
        return with_deadline > 0
                   ? static_cast<double>(misses) /
                         static_cast<double>(with_deadline)
                   : 0.0;
    }

    double
    meanLatency() const
    {
        return total > 0
                   ? latency_sum_s / static_cast<double>(total)
                   : 0.0;
    }
    double maxLatency() const { return latency_max_s; }

    /**
     * Exact nearest-rank quantile: the smallest recorded latency x
     * such that at least ceil(q * n) samples are <= x. A
     * single-sample stream reports that sample for every quantile.
     * Asking an *empty* telemetry for a quantile is a caller bug
     * and panics — a silent 0.0 would masquerade as a perfect
     * latency. @p q must be in (0, 1].
     */
    double quantile(double q) const;

    /** The standard p50/p95/p99 triple from one sort pass. Defined
     *  on every size — harnesses emit quantile columns
     *  unconditionally, so an empty telemetry reports all zeros
     *  (and a single sample is every quantile of its stream). */
    LatencyQuantiles quantiles() const;

    /** Per-stream queueing-delay breakdown, ascending stream id. */
    const std::map<int, StreamDelay> &
    byStream() const
    {
        return streams;
    }

    /**
     * The populated log2 latency buckets, ascending. Bucket 0
     * covers [0, 2) microseconds; bucket k >= 1 covers
     * [2^k, 2^(k+1)) microseconds.
     */
    std::vector<HistogramBin> histogram() const;

    /** Drop every sample and counter. */
    void clear();

  private:
    /** log2 bucket index of a latency (0 = below 2 us). */
    static size_t bucketOf(double latency_s);

    /** 64 log2 buckets (2 us, 4 us, ...) cover any finite latency. */
    static constexpr size_t kBuckets = 64;

    std::vector<double> latencies_s;
    int64_t bucket_counts[kBuckets] = {};
    std::map<int, StreamDelay> streams;
    int64_t total = 0;
    int64_t with_deadline = 0;
    int64_t misses = 0;
    double latency_sum_s = 0.0;
    double latency_max_s = 0.0;
};

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_TELEMETRY_HH
