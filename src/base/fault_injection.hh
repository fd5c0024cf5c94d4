/**
 * @file
 * Deterministic, seeded fault-injection harness.
 *
 * Robustness claims are only testable if faults can be reproduced:
 * a fault that depends on wall-clock timing, thread interleaving,
 * or a global RNG stream makes every failure a heisenbug. This
 * harness therefore makes every injection decision a *pure
 * function* of (seed, site, identity):
 *
 *  - a **site** names the code path being perturbed (one layer of
 *    one request's execution, one replica's lifecycle);
 *  - the **identity** is a stable 64-bit id of the operation the
 *    caller supplies (a plan key, a (request id, attempt, layer)
 *    combination) — never a call counter, whose value would depend
 *    on thread interleaving;
 *  - the decision hashes (seed, site, identity) and compares
 *    against the site's configured rate.
 *
 * Consequences: the same seed injects the same fault set at every
 * thread count and on every rerun; a retried operation with a new
 * attempt number re-rolls independently (transient faults); and a
 * repeated operation with the *same* identity fails the same way
 * every time (persistent faults, e.g. a replica slot that always
 * crashes). Callers choose which behavior they model by what they
 * fold into the identity.
 *
 * Per-site evaluated/injected counters (relaxed atomics — totals
 * are exact, only the increment order is interleaving-dependent)
 * let harnesses reconcile observed failure counts against the
 * injection plan exactly: every injected fault must surface as a
 * counted degradation somewhere, or the recovery path is lying.
 *
 * An unconfigured injector (all rates zero) never fires; production
 * paths take a null injector pointer and skip evaluation entirely.
 */

#ifndef S2TA_BASE_FAULT_INJECTION_HH
#define S2TA_BASE_FAULT_INJECTION_HH

#include <atomic>
#include <cstdint>

#include "base/logging.hh"

namespace s2ta {

/** Named injection sites threaded through the stack. Values are
 *  explicit because the decision hash folds int(site) in (0-5 were
 *  deleted plan-cache sites; renumbering moves every fault
 *  stream). */
enum class FaultSite : int
{
    /** Serving loop, at dispatch: a transient per-layer compute
     *  fault fails the whole attempt (the result is withheld, never
     *  corrupted). */
    LayerCompute = 6,
    /** Serving loop, at dispatch: a modeled per-layer stall adds
     *  virtual-time cycles without touching any simulation result. */
    LayerStall = 7,
    /** Fleet: a whole replica crashes — every queued and running
     *  request instance on it is lost and must fail over. */
    ReplicaCrash = 8,
    /** Fleet: a replica browns out — it keeps serving, but every
     *  request dispatched while stalled runs slower (timing only,
     *  results untouched). */
    ReplicaStall = 9,
    /** Fleet: a crashed replica restarts (cold lanes, its
     *  PlanCache intact). */
    ReplicaRestart = 10,
};

constexpr int kFaultSiteCount = 5;
static_assert(int(FaultSite::ReplicaRestart) -
                      int(FaultSite::LayerCompute) + 1 ==
                  kFaultSiteCount,
              "fault-site values must stay contiguous");

/** Human-readable site name for logs and artifacts. */
const char *faultSiteName(FaultSite site);

class FaultInjector
{
  public:
    explicit FaultInjector(uint64_t seed) : seed_(seed) {}

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Injection probability for @p site, in [0, 1] (default 0). */
    void setRate(FaultSite site, double rate);

    /** Stall magnitude bounds (cycles) for LayerStall injections. */
    void setStallCycles(int64_t lo, int64_t hi);

    /**
     * Decide whether the operation identified by @p identity faults
     * at @p site: a pure function of (seed, site, identity), so the
     * decision is identical at every thread count and on every
     * rerun. Counts one evaluation (and one injection when true).
     */
    bool shouldFail(FaultSite site, uint64_t identity) const;

    /**
     * Stall cycles injected into the operation identified by
     * @p identity (0 when the LayerStall site does not fire).
     * Magnitude is drawn deterministically from the configured
     * [lo, hi] range.
     */
    int64_t stallCycles(uint64_t identity) const;

    /** Exact per-site counters (totals; order is unspecified). */
    struct SiteStats
    {
        int64_t evaluated = 0;
        int64_t injected = 0;
    };

    SiteStats stats(FaultSite site) const;
    int64_t injected(FaultSite site) const;
    int64_t evaluated(FaultSite site) const;

    uint64_t seed() const { return seed_; }

    /** Order-dependent mix of two ids into one (splitmix64-style);
     *  callers build composite identities with it, e.g.
     *  combineId(request_id, attempt). */
    static uint64_t combineId(uint64_t a, uint64_t b);

  private:
    /** Counter slot of @p site (the values start at LayerCompute). */
    static int
    slot(FaultSite site)
    {
        return int(site) - int(FaultSite::LayerCompute);
    }

    /** The decision hash behind shouldFail (pure function). */
    uint64_t mix(FaultSite site, uint64_t identity) const;

    const uint64_t seed_;
    double rates_[kFaultSiteCount] = {};
    int64_t stall_lo = 256;
    int64_t stall_hi = 4096;
    mutable std::atomic<int64_t> evaluated_[kFaultSiteCount] = {};
    mutable std::atomic<int64_t> injected_[kFaultSiteCount] = {};
};

} // namespace s2ta

#endif // S2TA_BASE_FAULT_INJECTION_HH
