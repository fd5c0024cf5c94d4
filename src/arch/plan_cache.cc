#include "arch/plan_cache.hh"

#include <cstring>

namespace s2ta {

CachedPlan::CachedPlan(const GemmProblem &p, const int8_t *w, int bz)
    : problem(p.withoutOperands()),
      // The permissive bz/bz spec, as GemmPlan::build encodes.
      plan(GemmPlan::fromMasks(
          problem, DbbMatrix::fromActivations(p, DbbSpec{bz, bz}),
          DbbMatrix::fromWeights(p, w, DbbSpec{bz, bz})))
{}

uint64_t
PlanCache::hashBytes(const void *data, size_t len, uint64_t seed)
{
    // FNV-1a, consumed in 8-byte strides: each stride is folded as
    // one 64-bit unit (xor + multiply), which keeps the single
    // sequential pass close to memory speed while remaining
    // deterministic across platforms of the same endianness.
    constexpr uint64_t kPrime = 0x100000001b3ull;
    const auto *p = static_cast<const uint8_t *>(data);
    uint64_t h = seed;
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t chunk;
        std::memcpy(&chunk, p + i, 8);
        h = (h ^ chunk) * kPrime;
    }
    for (; i < len; ++i)
        h = (h ^ p[i]) * kPrime;
    return h;
}

uint64_t
PlanCache::fingerprint(const GemmProblem &p)
{
    uint64_t key = 0x5157454550ull; // arbitrary domain tag
    for (const int dim : {p.m, p.k, p.n, p.groups, p.seg, p.seg_align})
        key = combine(key, static_cast<uint64_t>(dim));
    key = combine(key, hashBytes(p.a.data(), p.a.size()));
    key = combine(key, hashBytes(p.w.data(), p.w.size()));
    return key;
}

int64_t
PlanCache::entryBytes(const CachedPlan &e)
{
    // The operands a compute entry holds (an events-only entry holds
    // none), one mask byte per block, and the mirror (the weights
    // transposed) if built.
    const int64_t wgt = static_cast<int64_t>(e.problem.w.size());
    int64_t bytes = static_cast<int64_t>(e.problem.a.size()) + wgt;
    for (const DbbMatrix *m : {&e.plan.act(), &e.plan.wgt()})
        bytes += static_cast<int64_t>(m->vectors()) * m->blocksPerVector();
    if (e.plan.wgtDenseT() != nullptr)
        bytes += wgt;
    return bytes;
}

void
PlanCache::insertLocked(uint64_t key,
                        std::shared_ptr<const CachedPlan> entry)
{
    const auto it = slots.find(key);
    if (it != slots.end()) {
        // A racing thread built the same workload first; keep the
        // resident copy (contents are deterministic and identical).
        lru.splice(lru.begin(), lru, it->second.lru_it);
        return;
    }
    lru.push_front(key);
    counters.resident_bytes += entryBytes(*entry);
    ++counters.entries;
    slots.emplace(key, Slot{std::move(entry), lru.begin()});
    while (((max_entries > 0 && slots.size() > max_entries) ||
            (max_bytes > 0 &&
             counters.resident_bytes > max_bytes)) &&
           slots.size() > 1) {
        // Never evict the just-inserted entry (front of the LRU):
        // an over-budget single workload must still be usable. A
        // lane still simulating from the victim keeps it alive
        // through its shared_ptr.
        const uint64_t victim = lru.back();
        lru.pop_back();
        const auto vit = slots.find(victim);
        counters.resident_bytes -= entryBytes(*vit->second.entry);
        --counters.entries;
        slots.erase(vit);
        ++counters.evictions;
    }
}

std::shared_ptr<const CachedPlan>
PlanCache::acquire(const GemmProblem &p, int bz, bool dense_mirror)
{
    auto entry = acquireKeyed(
        fingerprint(p), bz, dense_mirror,
        [&]() -> std::shared_ptr<const CachedPlan> {
            if (dense_mirror)
                return std::make_shared<const CachedPlan>(p, bz);
            return std::make_shared<const CachedPlan>(p, p.w.data(), bz);
        });
    // Cross-check the geometry against the resident operands: a
    // 64-bit fingerprint collision between distinct workloads
    // would otherwise return a wrong plan silently. (Same-dims
    // content collisions remain theoretically possible at ~2^-64;
    // a full memcmp would cost as much as the hash itself.)
    s2ta_assert(entry->problem.m == p.m &&
                entry->problem.k == p.k &&
                entry->problem.n == p.n &&
                entry->problem.groups == p.groups,
                "plan cache fingerprint collision (%dx%dx%dx%d vs "
                "%dx%dx%dx%d)", p.m, p.k, p.n, p.groups,
                entry->problem.m, entry->problem.k, entry->problem.n,
                entry->problem.groups);
    return entry;
}

std::shared_ptr<const CachedPlan>
PlanCache::acquireKeyed(
    uint64_t key, int bz, bool dense_mirror,
    const std::function<std::shared_ptr<const CachedPlan>()> &build)
{
    key = combine(key, static_cast<uint64_t>(bz) |
                           (dense_mirror ? 0x100u : 0u));
    {
        std::lock_guard<std::mutex> lk(mu);
        const auto it = slots.find(key);
        if (it != slots.end()) {
            ++counters.hits;
            lru.splice(lru.begin(), lru, it->second.lru_it);
            return it->second.entry;
        }
        ++counters.misses;
    }
    // Lower and encode outside the lock: plan construction is the
    // expensive part and must not serialize concurrent sweep lanes.
    auto entry = build();
    s2ta_assert(entry->plan.bz() == bz &&
                    (entry->plan.wgtDenseT() != nullptr) == dense_mirror,
                "entry built at bz %d, mirror %d for a key of bz %d, "
                "mirror %d", entry->plan.bz(),
                entry->plan.wgtDenseT() != nullptr, bz, dense_mirror);
    {
        std::lock_guard<std::mutex> lk(mu);
        insertLocked(key, entry);
    }
    return entry;
}

DapStats
PlanCache::dapStats(uint64_t key,
                    const std::function<DapStats()> &compute)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        const auto it = dap_memo.find(key);
        if (it != dap_memo.end()) {
            ++counters.dap_hits;
            return it->second;
        }
        ++counters.dap_misses;
    }
    const DapStats st = compute();
    std::lock_guard<std::mutex> lk(mu);
    dap_memo.emplace(key, st);
    return st;
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu);
    return counters;
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lk(mu);
    slots.clear();
    lru.clear();
    dap_memo.clear();
    counters.entries = 0;
    counters.resident_bytes = 0;
}

} // namespace s2ta
