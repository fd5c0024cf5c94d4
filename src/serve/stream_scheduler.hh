/**
 * @file
 * Serving-style streaming driver: many concurrent inference streams
 * through one Accelerator instance, with virtual-clock QoS timing.
 *
 * A stream models one client connection issuing requests in order;
 * a request names a servable workload (any zoo model at any batch
 * size — see serve/model_registry.hh) plus, optionally, a virtual
 * arrival time and deadline. The scheduler pulls requests from the
 * per-stream FIFO queues in deterministic round-robin admission
 * order, fans the *simulations* out across a thread pool (each lane
 * simulates whole requests; the accelerator's own layer/group
 * fan-out runs inline inside that lane), assigns every request a
 * virtual start/finish instant by replaying the configured
 * AdmissionPolicy over the virtual lanes (serve/virtual_clock.hh),
 * and completes each stream's requests strictly in submission
 * order.
 *
 * Determinism contract: for a fixed submission sequence and fixed
 * options, drain() produces bitwise-identical NetworkRuns *and*
 * virtual timings at every thread count — requests are independent
 * simulations, results are written to per-request slots, the
 * virtual clock runs on the draining thread over deterministic
 * inputs, and the per-stream reduction walks admission order.
 * Sharing a PlanCache across streams never changes results either
 * (plans are content-fingerprinted), it only makes repeated
 * (model, batch) workloads skip the lowering + encoding.
 *
 * Policy contract: the admission policy reorders *dispatch timing*
 * only. Which simulations run, what they compute, the per-stream
 * completion grouping, and the on_complete order are all
 * policy-independent — every policy yields bitwise-identical
 * NetworkRuns (enforced by bench_latency_serving and the serve
 * tests).
 */

#ifndef S2TA_SERVE_STREAM_SCHEDULER_HH
#define S2TA_SERVE_STREAM_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "arch/accelerator.hh"
#include "serve/telemetry.hh"
#include "serve/virtual_clock.hh"
#include "workload/model_workloads.hh"

namespace s2ta {

class ThreadPool;

namespace serve {

/** One completed request, delivered in per-stream order. */
struct Completion
{
    /** Scheduler-assigned id, unique per StreamScheduler. */
    uint64_t id = 0;
    int stream = 0;
    /** Zoo name of the model the request ran. */
    std::string model;
    /** Samples the request carried. */
    int batch = 1;
    /** GEMM simulations the request issued (sum of layer groups). */
    int64_t gemms = 0;

    // Virtual-clock timing (seconds of simulated time; see
    // serve/virtual_clock.hh). With default submissions (arrival 0,
    // no deadline) these are still filled — a closed-loop trace is
    // just an open-loop one where everything arrives at t = 0.
    double arrival_s = 0.0;
    double start_s = 0.0;
    double finish_s = 0.0;
    /** Deadline the request carried, or kNoDeadline. */
    double deadline_s = kNoDeadline;
    /** Virtual lane the request was dispatched on; -1 when shed. */
    int lane = 0;
    /** Simulated cycles behind finish - start (0 for shed or
     *  failed requests). */
    int64_t service_cycles = 0;

    // Robustness outcome. Ok completions carry a run bitwise
    // identical to the fault-free baseline; Shed and Failed carry
    // an empty run — a fault or overload can delay or drop a
    // result, never corrupt one.
    Outcome outcome = Outcome::Ok;
    /** Why the request was shed (Shed outcome only). */
    ShedReason shed_reason = ShedReason::None;
    /** Simulation attempts consumed (retries = attempts - 1). */
    int attempts = 1;
    /** Typed error for Failed: the layer whose injected fault
     *  aborted the final attempt; -1 otherwise. */
    int fault_layer = -1;
    /** Injected layer faults observed across all attempts. */
    int64_t fault_count = 0;
    /** Injected stall cycles (virtual timing only, never results). */
    int64_t stall_cycles = 0;
    /** Virtual seconds of failed attempts + backoff + stalls,
     *  accrued on the request's lane. */
    double retry_delay_s = 0.0;

    bool ok() const { return outcome == Outcome::Ok; }
    bool shed() const { return outcome == Outcome::Shed; }
    bool failed() const { return outcome == Outcome::Failed; }

    /** The whole-network simulation outcome (Ok only). */
    NetworkRun run;

    /** This completion's timing, ready for LatencyTelemetry. */
    LatencySample
    sample() const
    {
        return LatencySample{stream, arrival_s, start_s, finish_s,
                             deadline_s};
    }

    bool
    missedDeadline() const
    {
        return sample().missedDeadline();
    }
};

/** Aggregate counters over everything a scheduler has drained. */
struct ServeStats
{
    int64_t requests = 0;
    /** Requests that completed Ok. Layer/gemm/mac totals below
     *  count served work only (shed and failed requests deliver no
     *  result). */
    int64_t completed = 0;
    int64_t layers = 0;
    /** GEMM simulations issued (one per layer group per request). */
    int64_t gemms = 0;
    /** Dense-equivalent MACs simulated (batch included). */
    int64_t dense_macs = 0;

    // Overload + fault accounting. Fault counters cover every
    // simulated attempt — including attempts of requests that were
    // later shed in virtual time — so they reconcile exactly with
    // the injector's per-site totals.
    int64_t shed_queue_full = 0;
    int64_t shed_stream_full = 0;
    int64_t shed_infeasible = 0;
    /** Requests whose retry budget was exhausted. Counted even
     *  when the request was *also* shed in virtual time (its
     *  Completion then reports Shed — it was never dispatched), so
     *  faulted_attempts == retries + failed holds exactly. */
    int64_t failed = 0;
    /** Re-simulation attempts after a transient fault. */
    int64_t retries = 0;
    /** Attempts that observed at least one injected layer fault
     *  (each such attempt either retried or terminally failed its
     *  request, so this equals retries + failed). */
    int64_t faulted_attempts = 0;
    /** Injected layer faults observed (>= faulted_attempts). */
    int64_t layer_faults = 0;
    /** Injected stalls (timing-only). */
    int64_t stall_events = 0;
    int64_t stall_cycles = 0;
    /** High-water arrived-but-undispatched virtual queue depth. */
    int64_t max_queue_depth = 0;

    int64_t
    shedTotal() const
    {
        return shed_queue_full + shed_stream_full + shed_infeasible;
    }
};

class StreamScheduler
{
  public:
    struct Options
    {
        /**
         * GEMM/network-level simulation knobs shared by every
         * request: engine, validation, compute_output, and — the
         * serving win — one PlanCache shared across streams and
         * models via run.plan_cache. Not owned.
         */
        NetworkRunOptions run;
        /**
         * Request-level fan-out lanes for the *simulation*: 0 = one
         * lane per hardware thread (the process-wide pool), 1 =
         * serial, N > 1 = a dedicated pool of N lanes. Results and
         * virtual timings are identical at any setting.
         */
        int threads = 0;
        /**
         * Virtual deployment the QoS timing is computed against:
         * accelerator lanes and clock. Independent of `threads`
         * (which only fans out the simulation work).
         */
        VirtualClockConfig clock;
        /**
         * Dispatch-order policy for the virtual clock; borrowed,
         * nullptr = round-robin (admission order, the pre-QoS
         * behavior, preserved bit for bit). Policies never change
         * simulation results, only start/finish instants.
         */
        const AdmissionPolicy *policy = nullptr;
        /**
         * Overload controls: queue caps and infeasible-deadline
         * shedding for the virtual clock, retry budget + backoff
         * for transiently faulted requests (run.fault must be set
         * for faults to exist at all). Defaults preserve the
         * pre-overload behavior exactly.
         */
        OverloadConfig overload;
        /**
         * Invoked once per completion during drain(), in
         * deterministic admission order (round-robin across
         * streams, submission order within a stream) — regardless
         * of the admission policy, which only affects the timing
         * fields. Runs on the draining thread after all simulation
         * and timing assignment finished.
         */
        std::function<void(const Completion &)> on_complete;
    };

    /**
     * @param acc the one accelerator instance every stream shares;
     *        borrowed, must outlive the scheduler.
     */
    StreamScheduler(const Accelerator &acc, Options opts);
    ~StreamScheduler();

    StreamScheduler(const StreamScheduler &) = delete;
    StreamScheduler &operator=(const StreamScheduler &) = delete;

    /**
     * Append a request for @p mw to @p stream's queue. The workload
     * is borrowed and must stay alive until drain() returns.
     * @param arrival_s virtual arrival instant (open-loop traces
     *        come from poissonArrivals; 0 = closed-loop).
     * @param deadline_s virtual completion deadline, or
     *        kNoDeadline.
     * @return the scheduler-assigned request id.
     * Not thread-safe (one driver thread submits and drains).
     */
    uint64_t submit(int stream, const ModelWorkload &mw,
                    double arrival_s = 0.0,
                    double deadline_s = kNoDeadline);

    /** Requests queued and not yet drained. */
    int64_t pending() const;

    /**
     * Run every queued request to completion and deliver results.
     * Admission interleaves the streams round-robin (ascending
     * stream id, one request per stream per round); simulation fans
     * out over the configured lanes; the virtual clock assigns
     * start/finish instants per the configured policy; completions
     * are reduced back into per-stream submission order.
     *
     * @return completions grouped by stream (ascending stream id),
     *         each group in submission order.
     */
    std::vector<std::vector<Completion>> drain();

    /** Counters accumulated over every drain() so far. */
    const ServeStats &stats() const { return totals; }

    /**
     * Cached service-cycle estimate for @p mw's servable identity
     * (zoo model name, batch): the cycle total of the first
     * simulated request carrying it (pinned for the scheduler's
     * lifetime — the estimate SJF orders by), or 0 before any
     * request for it drained.
     */
    int64_t estimatedCycles(const ModelWorkload &mw) const;

    /** GEMM simulations one request for @p mw issues. */
    static int64_t gemmCount(const ModelWorkload &mw);

  private:
    struct Pending
    {
        uint64_t id;
        int stream;
        const ModelWorkload *model;
        double arrival_s;
        double deadline_s;
    };

    ThreadPool *pool() const;

    const Accelerator &acc;
    Options opts;
    /** Dedicated pool when opts.threads > 1. */
    std::unique_ptr<ThreadPool> own_pool;
    /** Per-stream FIFO queues, keyed by stream id. */
    std::map<int, std::vector<Pending>> queues;
    /** Servable identity of a workload: (zoo model name, batch). */
    static std::pair<std::string, int>
    workloadKey(const ModelWorkload &mw);

    /**
     * Per-workload service-cycle estimates, pinned by the first
     * simulated request of each workload (in admission order, so
     * deterministic). Keyed by the servable identity — not the
     * workload's address, which submit() only requires to stay
     * valid until drain() returns.
     */
    std::map<std::pair<std::string, int>, int64_t> cycle_estimates;
    uint64_t next_id = 1;
    ServeStats totals;
};

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_STREAM_SCHEDULER_HH
