#include "base/fault_injection.hh"

namespace s2ta {

namespace {

/** splitmix64 finalizer: full-avalanche 64-bit mix. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Map a 64-bit hash onto [0, 1) with 53 bits of precision. */
double
unitInterval(uint64_t x)
{
    return double(x >> 11) * 0x1.0p-53;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::SpillEncode: return "spill-encode";
      case FaultSite::SpillDecode: return "spill-decode";
      case FaultSite::LayerCompute: return "layer-compute";
      case FaultSite::LayerStall: return "layer-stall";
      case FaultSite::ReplicaCrash: return "replica-crash";
      case FaultSite::ReplicaStall: return "replica-stall";
      case FaultSite::ReplicaRestart: return "replica-restart";
    }
    s2ta_panic("unknown fault site %d", int(site));
}

void
FaultInjector::setRate(FaultSite site, double rate)
{
    s2ta_assert(rate >= 0.0 && rate <= 1.0,
                "fault rate for %s must be in [0, 1], got %f",
                faultSiteName(site), rate);
    rates_[slot(site)] = rate;
}

void
FaultInjector::setStallCycles(int64_t lo, int64_t hi)
{
    s2ta_assert(lo >= 0 && hi >= lo,
                "stall cycle range must satisfy 0 <= lo <= hi, got "
                "[%lld, %lld]", (long long)lo, (long long)hi);
    stall_lo = lo;
    stall_hi = hi;
}

uint64_t
FaultInjector::mix(FaultSite site, uint64_t identity) const
{
    return mix64(mix64(seed_ ^ mix64(uint64_t(int(site)) + 1)) ^
                 mix64(identity));
}

bool
FaultInjector::shouldFail(FaultSite site, uint64_t identity) const
{
    const int s = slot(site);
    evaluated_[s].fetch_add(1, std::memory_order_relaxed);
    const double rate = rates_[s];
    if (rate <= 0.0)
        return false;
    const bool fire = rate >= 1.0 || unitInterval(mix(site, identity)) < rate;
    if (fire)
        injected_[s].fetch_add(1, std::memory_order_relaxed);
    return fire;
}

int64_t
FaultInjector::stallCycles(uint64_t identity) const
{
    if (!shouldFail(FaultSite::LayerStall, identity))
        return 0;
    const uint64_t span = uint64_t(stall_hi - stall_lo) + 1;
    // Independent draw for the magnitude so it does not correlate
    // with the fire/no-fire decision.
    const uint64_t draw = mix64(mix(FaultSite::LayerStall, identity) ^
                                0xA5A5A5A5A5A5A5A5ull);
    return stall_lo + int64_t(draw % span);
}

FaultInjector::SiteStats
FaultInjector::stats(FaultSite site) const
{
    SiteStats s;
    s.evaluated = evaluated_[slot(site)].load(std::memory_order_relaxed);
    s.injected = injected_[slot(site)].load(std::memory_order_relaxed);
    return s;
}

int64_t
FaultInjector::injected(FaultSite site) const
{
    return injected_[slot(site)].load(std::memory_order_relaxed);
}

int64_t
FaultInjector::evaluated(FaultSite site) const
{
    return evaluated_[slot(site)].load(std::memory_order_relaxed);
}

uint64_t
FaultInjector::combineId(uint64_t a, uint64_t b)
{
    return mix64(a ^ mix64(b + 0x51ED270B9A3C65B5ull));
}

} // namespace s2ta
