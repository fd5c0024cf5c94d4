#include "serve/qos.hh"

#include "base/logging.hh"

namespace s2ta {
namespace serve {

namespace {

class RoundRobinPolicy final : public AdmissionPolicy
{
  public:
    const char *name() const override { return "rr"; }

    size_t
    pick(const std::vector<TimedRequest> &,
         const std::vector<size_t> &ready) const override
    {
        // Admission order is round-robin across streams by
        // construction, so FIFO over admission indices *is*
        // round-robin dispatch.
        return ready.front();
    }
};

class EarliestDeadlineFirstPolicy final : public AdmissionPolicy
{
  public:
    const char *name() const override { return "edf"; }

    size_t
    pick(const std::vector<TimedRequest> &all,
         const std::vector<size_t> &ready) const override
    {
        // kNoDeadline is +inf, so deadline-free requests lose to
        // any request with a real deadline; ready is ascending, so
        // strict < breaks ties on admission index.
        size_t best = ready.front();
        for (const size_t i : ready) {
            if (all[i].deadline_s < all[best].deadline_s)
                best = i;
        }
        return best;
    }
};

class ShortestJobFirstPolicy final : public AdmissionPolicy
{
  public:
    const char *name() const override { return "sjf"; }

    size_t
    pick(const std::vector<TimedRequest> &all,
         const std::vector<size_t> &ready) const override
    {
        size_t best = ready.front();
        for (const size_t i : ready) {
            if (all[i].est_cycles < all[best].est_cycles)
                best = i;
        }
        return best;
    }
};

} // anonymous namespace

const AdmissionPolicy &
policyFor(PolicyKind kind)
{
    static const RoundRobinPolicy rr;
    static const EarliestDeadlineFirstPolicy edf;
    static const ShortestJobFirstPolicy sjf;
    switch (kind) {
    case PolicyKind::RoundRobin:
        return rr;
    case PolicyKind::EarliestDeadlineFirst:
        return edf;
    case PolicyKind::ShortestJobFirst:
        return sjf;
    }
    s2ta_panic("unknown PolicyKind %d", static_cast<int>(kind));
}

const char *
policyName(PolicyKind kind)
{
    return policyFor(kind).name();
}

} // namespace serve
} // namespace s2ta
