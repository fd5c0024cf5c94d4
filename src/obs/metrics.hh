/**
 * @file
 * Process-wide named metrics: counters, gauges, and log2 histograms.
 *
 * MetricsRegistry complements the Tracer (obs/trace.hh): where the
 * tracer answers "what happened when", the registry answers "how
 * much, in total" — cumulative counts (plan-cache hits, requests
 * shed), last-value gauges (time-scale factors, queue high-water
 * marks), and value distributions (per-request latencies) that
 * survive the whole process and dump as one text or JSON snapshot.
 *
 * Instruments are created on first use by name and live for the
 * registry's lifetime, so hooks cache the returned reference once
 * (`static Counter &c = MetricsRegistry::global().counter(...)`)
 * and updates are a single relaxed atomic op — safe and cheap from
 * any thread, including simulation hot paths. The S2TA_METRIC_*
 * macros below do exactly that, and compile to nothing under
 * S2TA_OBS_DISABLE just like the trace hooks.
 *
 * Naming convention: lowercase dotted `<layer>.<what>[_<unit>]` —
 * e.g. `plan_cache.hits`, `fleet.failovers`, `serve.shed`,
 * `replay.latency_us`. The layer prefix groups related metrics in
 * snapshots; units are spelled out in the suffix when the value is
 * not a plain count.
 *
 * Histogram reuses the bucketing of LatencyTelemetry::histogram()
 * (src/serve/telemetry.hh): 64 log2 buckets where bucket 0 covers
 * [0, 2) and bucket k covers [2^k, 2^(k+1)) in the caller's unit.
 */

#ifndef S2TA_OBS_METRICS_HH
#define S2TA_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace s2ta {
namespace obs {

/** Monotonically increasing count. */
class Counter
{
  public:
    void
    add(int64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> value_{0};
};

/** Last-written value. */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        set(0.0);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Distribution of non-negative values over 64 log2 buckets
 * (telemetry shape: bucket 0 = [0, 2), bucket k = [2^k, 2^(k+1))).
 * Units are the caller's; negative values clamp into bucket 0.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    void record(double v);

    int64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** One populated bucket: count of values in [lo, hi). */
    struct Bin
    {
        double lo = 0.0;
        double hi = 0.0;
        int64_t count = 0;
    };

    /** Populated buckets in ascending value order. */
    std::vector<Bin> bins() const;

    void reset();

  private:
    std::atomic<int64_t> buckets_[kBuckets] = {};
    std::atomic<int64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/**
 * Name -> instrument map. Lookups take a mutex; the returned
 * references stay valid and lock-free to update for the registry's
 * lifetime. A name is per-kind: "x" may exist as both a counter
 * and a gauge (snapshots section by kind, so they cannot collide).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** The process-wide registry the S2TA_METRIC_* hooks update.
     *  Intentionally leaked, like Tracer::global(). */
    static MetricsRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Human-readable snapshot: one `name value` line per
     *  instrument, sectioned and sorted by name. */
    std::string snapshotText() const;

    /** JSON snapshot: {"counters": {...}, "gauges": {...},
     *  "histograms": {name: {count, sum, bins: [[lo,hi,n],...]}}}. */
    std::string snapshotJson() const;

    /** Write snapshotJson() to @p path; fatal on I/O error. */
    void writeJson(const std::string &path) const;

    /** Zero every instrument; handles stay valid. */
    void reset();

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace obs
} // namespace s2ta

// ---- hook macros ----------------------------------------------------
//
// Cached-reference updates against MetricsRegistry::global(); the
// name must be a string literal. Compiled away with the trace hooks
// under S2TA_OBS_DISABLE.

#ifndef S2TA_OBS_DISABLE

/** Add @p n to the global counter @p name. */
#define S2TA_METRIC_ADD(name, n) \
    do { \
        static ::s2ta::obs::Counter &s2ta_obs_c_ = \
            ::s2ta::obs::MetricsRegistry::global().counter(name); \
        s2ta_obs_c_.add(static_cast<int64_t>(n)); \
    } while (0)

/** Increment the global counter @p name. */
#define S2TA_METRIC_INC(name) S2TA_METRIC_ADD(name, 1)

/** Set the global gauge @p name. */
#define S2TA_METRIC_SET(name, v) \
    do { \
        static ::s2ta::obs::Gauge &s2ta_obs_g_ = \
            ::s2ta::obs::MetricsRegistry::global().gauge(name); \
        s2ta_obs_g_.set(static_cast<double>(v)); \
    } while (0)

/** Record @p v into the global histogram @p name. */
#define S2TA_METRIC_RECORD(name, v) \
    do { \
        static ::s2ta::obs::Histogram &s2ta_obs_h_ = \
            ::s2ta::obs::MetricsRegistry::global().histogram(name); \
        s2ta_obs_h_.record(static_cast<double>(v)); \
    } while (0)

#else // S2TA_OBS_DISABLE

#define S2TA_METRIC_ADD(name, n) ((void)0)
#define S2TA_METRIC_INC(name) ((void)0)
#define S2TA_METRIC_SET(name, v) ((void)0)
#define S2TA_METRIC_RECORD(name, v) ((void)0)

#endif // S2TA_OBS_DISABLE

#endif // S2TA_OBS_METRICS_HH
