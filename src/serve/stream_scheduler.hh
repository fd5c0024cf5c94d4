/**
 * @file
 * Serving-style streaming driver: many concurrent inference streams
 * through one Accelerator instance, with virtual-clock QoS timing.
 *
 * A stream models one client connection issuing requests in order;
 * a request names a servable workload (any zoo model at any batch
 * size — see serve/model_registry.hh) plus, optionally, a virtual
 * arrival time and deadline. A StreamScheduler is the serving loop
 * (serve/fleet.hh) on one replica — the accelerator with
 * run.plan_cache as its cache — that simulates every admitted
 * request, not every distinct workload: the scheduler pulls
 * requests from the per-stream FIFO queues in deterministic
 * round-robin admission order, fans the simulations out across a
 * thread pool (the accelerator's own layer/group fan-out runs
 * inline inside a lane), replays the configured AdmissionPolicy
 * over the virtual lanes, and completes each stream's requests
 * strictly in submission order.
 *
 * Determinism contract: for a fixed submission sequence and fixed
 * options, drain() produces bitwise-identical NetworkRuns *and*
 * virtual timings at every thread count. Sharing a PlanCache across
 * streams never changes results either (plans are
 * content-fingerprinted), it only makes repeated (model, batch)
 * workloads skip the lowering + encoding.
 *
 * Policy contract: the admission policy reorders *dispatch timing*
 * only. Which simulations run, what they compute, the per-stream
 * completion grouping, and the on_complete order are all
 * policy-independent (enforced by bench_latency_serving and the
 * serve tests).
 */

#ifndef S2TA_SERVE_STREAM_SCHEDULER_HH
#define S2TA_SERVE_STREAM_SCHEDULER_HH

#include "serve/fleet.hh"

namespace s2ta {
namespace serve {

class StreamScheduler : public FleetScheduler
{
  public:
    /**
     * @param acc the one accelerator instance every stream shares;
     *        borrowed, must outlive the scheduler. opts.run's
     *        plan_cache (may be null) is its cache.
     */
    StreamScheduler(const Accelerator &acc, Options opts)
        : FleetScheduler(acc, std::move(opts))
    {
    }
};

} // namespace serve
} // namespace s2ta

#endif // S2TA_SERVE_STREAM_SCHEDULER_HH
