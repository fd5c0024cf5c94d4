/**
 * @file
 * Structured wall-clock tracing for the serving layer.
 *
 * A Tracer records three kinds of events against one monotonic
 * (steady_clock) epoch: *spans* (a named duration — a request's
 * simulation), *instants* (a point event — admit, failover,
 * crash), and *counter samples* (a named value over time — queue
 * depth, ready-queue length). Events land
 * in fixed-capacity per-thread ring buffers: the hot path performs
 * zero allocation (category and name must be string literals; the
 * record is a POD copied into a pre-allocated slot under the ring's
 * own uncontended mutex), and a full ring overwrites its oldest
 * events rather than blocking or growing, counting the drops.
 *
 * Export produces Chrome trace-event JSON (chromeTraceJson /
 * writeChromeTrace), so a serving run opens directly in
 * chrome://tracing or Perfetto; tools/trace_summarize.py gives a
 * terminal summary of the same file.
 *
 * Two off switches, for two costs:
 *
 *  - **Runtime**: a tracer starts disabled; every hook checks one
 *    relaxed atomic and does nothing else while it stays off (the
 *    default for every bench unless --trace-out is given).
 *  - **Compile time**: building with S2TA_OBS_DISABLE (CMake
 *    -DS2TA_OBS=OFF) expands every S2TA_TRACE_* hook to nothing,
 *    so instrumented translation units carry zero observability
 *    code. The Tracer class itself stays available (an explicitly
 *    driven exporter still compiles); only the macro hooks vanish.
 *
 * Tracing is observation only: hooks never touch simulation inputs,
 * so any NetworkRun is bitwise identical with tracing on, off, or
 * compiled out (enforced by tests/obs/test_trace.cc).
 *
 * Thread-safety: emitting is safe from any number of threads
 * concurrently (each writes its own ring); snapshot/export/clear
 * are safe concurrently with emitters (they lock each ring in
 * turn). Timestamps are a per-event steady_clock read, so events
 * from different threads order correctly in the exported trace.
 */

#ifndef S2TA_OBS_TRACE_HH
#define S2TA_OBS_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace s2ta {
namespace obs {

/** One recorded event. POD: the hot path copies it into a ring
 *  slot; cat/name must point at static-storage strings. */
struct TraceEvent
{
    enum class Phase : uint8_t
    {
        /** A span: [ts_ns, ts_ns + dur_ns) ("X" in Chrome). */
        Complete,
        /** A point event ("i" in Chrome). */
        Instant,
        /** A counter sample ("C" in Chrome); value carries it. */
        Counter,
    };

    const char *cat = "";
    const char *name = "";
    Phase phase = Phase::Instant;
    /** Registration-order thread id (1-based). */
    uint32_t tid = 0;
    /** Nanoseconds since the tracer's epoch. */
    int64_t ts_ns = 0;
    /** Span duration (Complete only). */
    int64_t dur_ns = 0;
    /** Counter value, or a numeric argument (request id, replica,
     *  lane) attached to spans and instants. */
    int64_t value = 0;
};

class Tracer
{
  public:
    /** @param ring_capacity events each thread's ring holds before
     *  overwriting its oldest (rounded up to a power of two). */
    explicit Tracer(size_t ring_capacity = size_t{1} << 16);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The process-wide tracer every S2TA_TRACE_* hook records
     *  into. Intentionally leaked (atexit exporters may run after
     *  static destructors). Starts disabled. */
    static Tracer &global();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Turn recording on or off; hooks are one relaxed atomic load
     *  while off. Safe from any thread. */
    void
    setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Monotonic nanoseconds since this tracer's construction. */
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    // Recording (no-ops while disabled; cat/name must be string
    // literals or otherwise outlive the tracer).
    void completeEvent(const char *cat, const char *name,
                       int64_t start_ns, int64_t dur_ns,
                       int64_t arg = 0);
    void instant(const char *cat, const char *name,
                 int64_t arg = 0);
    void counter(const char *cat, const char *name, int64_t value);

    /** Recording volume counters. */
    struct Stats
    {
        /** Events currently held across all rings. */
        int64_t recorded = 0;
        /** Events overwritten because a ring was full. */
        int64_t dropped = 0;
        /** Threads that have recorded at least one event. */
        int threads = 0;
    };
    Stats stats() const;

    /** Copy out every held event, oldest-first per thread, merged
     *  and sorted by timestamp. Safe concurrently with emitters. */
    std::vector<TraceEvent> snapshot() const;

    /** Drop every held event (rings and thread registrations stay
     *  allocated; drop counters reset). */
    void clear();

    /** The Chrome trace-event JSON document for the current
     *  snapshot ({"traceEvents": [...]}; timestamps in us). */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to @p path; fatal on I/O error. */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct ThreadBuffer;

    /** This thread's ring, registering it on first use. */
    ThreadBuffer &threadBuffer();
    void emit(const TraceEvent &ev);

    const std::chrono::steady_clock::time_point epoch_;
    const size_t ring_capacity_;
    /** Process-unique id; thread-local caches key on it so a
     *  stale cache entry can never match a new tracer. */
    const uint64_t id_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/**
 * RAII span: captures the start instant at construction and emits
 * one Complete event at destruction. When the tracer is disabled at
 * construction the span is inert (destruction emits nothing even if
 * tracing was enabled mid-span — a half-timed span would lie).
 */
class TraceSpan
{
  public:
    TraceSpan(Tracer &t, const char *cat, const char *name,
              int64_t arg = 0)
    {
        if (t.enabled()) {
            tracer_ = &t;
            cat_ = cat;
            name_ = name;
            arg_ = arg;
            start_ns_ = t.nowNs();
        }
    }

    ~TraceSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->completeEvent(cat_, name_, start_ns_,
                                   tracer_->nowNs() - start_ns_,
                                   arg_);
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    Tracer *tracer_ = nullptr;
    const char *cat_ = nullptr;
    const char *name_ = nullptr;
    int64_t arg_ = 0;
    int64_t start_ns_ = 0;
};

} // namespace obs
} // namespace s2ta

// ---- hook macros ----------------------------------------------------
//
// The only way instrumented layers should record: all of these
// compile to nothing under S2TA_OBS_DISABLE, and to one relaxed
// atomic load while the global tracer is disabled at runtime.

#ifndef S2TA_OBS_DISABLE

#define S2TA_OBS_CONCAT2(a, b) a##b
#define S2TA_OBS_CONCAT(a, b) S2TA_OBS_CONCAT2(a, b)

/** Time the enclosing scope as one span. */
#define S2TA_TRACE_SPAN(cat, name) \
    ::s2ta::obs::TraceSpan S2TA_OBS_CONCAT( \
        s2ta_trace_span_, __COUNTER__)( \
        ::s2ta::obs::Tracer::global(), cat, name)

/** Time the enclosing scope, attaching a numeric argument
 *  (request id, replica, lane). */
#define S2TA_TRACE_SPAN_ID(cat, name, id) \
    ::s2ta::obs::TraceSpan S2TA_OBS_CONCAT( \
        s2ta_trace_span_, __COUNTER__)( \
        ::s2ta::obs::Tracer::global(), cat, name, \
        static_cast<int64_t>(id))

/** Record a point event with a numeric argument. */
#define S2TA_TRACE_INSTANT(cat, name, id) \
    do { \
        ::s2ta::obs::Tracer &s2ta_obs_t_ = \
            ::s2ta::obs::Tracer::global(); \
        if (s2ta_obs_t_.enabled()) \
            s2ta_obs_t_.instant(cat, name, \
                                static_cast<int64_t>(id)); \
    } while (0)

/** Record one sample of a named counter series. */
#define S2TA_TRACE_COUNTER(cat, name, value) \
    do { \
        ::s2ta::obs::Tracer &s2ta_obs_t_ = \
            ::s2ta::obs::Tracer::global(); \
        if (s2ta_obs_t_.enabled()) \
            s2ta_obs_t_.counter(cat, name, \
                                static_cast<int64_t>(value)); \
    } while (0)

#else // S2TA_OBS_DISABLE

#define S2TA_TRACE_SPAN(cat, name) ((void)0)
#define S2TA_TRACE_SPAN_ID(cat, name, id) ((void)0)
#define S2TA_TRACE_INSTANT(cat, name, id) ((void)0)
#define S2TA_TRACE_COUNTER(cat, name, value) ((void)0)

#endif // S2TA_OBS_DISABLE

#endif // S2TA_OBS_TRACE_HH
