#include "arch/plan_cache.hh"

#include <cstring>

#include "arch/plan_store.hh"
#include "base/fault_injection.hh"

namespace s2ta {

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
    key = combine(key, static_cast<uint64_t>(p.m));
    key = combine(key, static_cast<uint64_t>(p.k));
    key = combine(key, static_cast<uint64_t>(p.n));
    key = combine(key, hashBytes(p.a.data(), p.a.size()));
    key = combine(key, hashBytes(p.w.data(), p.w.size()));
    return key;
}

int64_t
PlanCache::entryBytes(const CachedPlan &e)
{
    // Operands, one mask byte per block, and the mirror if built.
    int64_t bytes = static_cast<int64_t>(e.problem.a.size()) +
                    static_cast<int64_t>(e.problem.w.size());
    for (const DbbMatrix *m : {&e.plan.act(), &e.plan.wgt()})
        bytes += static_cast<int64_t>(m->vectors()) * m->blocksPerVector();
    if (e.plan.wgtDenseT() != nullptr)
        bytes += static_cast<int64_t>(e.problem.n) * e.problem.k;
    return bytes;
}

void
PlanCache::attachStore(PlanStore *s)
{
    std::lock_guard<std::mutex> lk(mu);
    store = s;
}

void
PlanCache::setFaultInjector(const FaultInjector *fi)
{
    std::lock_guard<std::mutex> lk(mu);
    fault = fi;
}

PlanCache::Lookup
PlanCache::lookupLocked(uint64_t key)
{
    Lookup l;
    const auto it = slots.find(key);
    if (it != slots.end()) {
        ++counters.hits;
        lru.splice(lru.begin(), lru, it->second.lru_it);
        l.entry = it->second.entry;
        return l;
    }
    const auto sit = spill_slots.find(key);
    if (sit != spill_slots.end()) {
        // Hand out a reference to the compact image; the caller
        // rehydrates outside the lock and re-inserts the entry
        // into the resident tier. The image stays parked here so
        // the entry's next eviction is an LRU touch, not a
        // re-encode.
        ++counters.spill_hits;
        spill_lru.splice(spill_lru.begin(), spill_lru,
                         sit->second.lru_it);
        l.spilled = sit->second.bytes;
    }
    return l;
}

void
PlanCache::parkLocked(
    uint64_t key, std::shared_ptr<const std::vector<uint8_t>> bytes)
{
    // A parked image can already exist (this entry's own earlier
    // rehydration, or a racing lane's encode); touch it and drop
    // the duplicate (contents are deterministic).
    const auto old = spill_slots.find(key);
    if (old != spill_slots.end()) {
        spill_lru.splice(spill_lru.begin(), spill_lru,
                         old->second.lru_it);
        return;
    }
    counters.spill_bytes += static_cast<int64_t>(bytes->size());
    ++counters.spill_entries;
    spill_lru.push_front(key);
    spill_slots.emplace(
        key, SpillSlot{std::move(bytes), spill_lru.begin()});
    // Hold the spill byte budget, but never drop the entry just
    // spilled (mirroring the resident tier: one over-budget
    // workload must still round-trip).
    while (counters.spill_bytes > spill_max_bytes &&
           spill_slots.size() > 1) {
        const uint64_t victim = spill_lru.back();
        spill_lru.pop_back();
        const auto vit = spill_slots.find(victim);
        counters.spill_bytes -=
            static_cast<int64_t>(vit->second.bytes->size());
        --counters.spill_entries;
        spill_slots.erase(vit);
        ++counters.spill_evictions;
    }
}

void
PlanCache::insertLocked(uint64_t key,
                        std::shared_ptr<const CachedPlan> entry,
                        std::vector<PendingSpill> *pending)
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
        // an over-budget single workload must still be usable.
        const uint64_t victim = lru.back();
        lru.pop_back();
        const auto vit = slots.find(victim);
        counters.resident_bytes -= entryBytes(*vit->second.entry);
        --counters.entries;
        if (spill_max_bytes > 0) {
            // Move the victim toward the spill tier. With an image
            // already parked (the rehydrate-use-re-evict cycle),
            // re-eviction is an LRU touch; otherwise the encode is
            // deferred to after the lock is released — an O(plan)
            // pass must not serialize concurrent lanes.
            const auto parked = spill_slots.find(victim);
            if (parked != spill_slots.end()) {
                spill_lru.splice(spill_lru.begin(), spill_lru,
                                 parked->second.lru_it);
            } else {
                pending->push_back(
                    PendingSpill{victim, vit->second.entry});
            }
        }
        slots.erase(vit);
        ++counters.evictions;
    }
}

void
PlanCache::insertAndSpill(uint64_t key,
                          std::shared_ptr<const CachedPlan> entry)
{
    std::vector<PendingSpill> pending;
    {
        std::lock_guard<std::mutex> lk(mu);
        insertLocked(key, std::move(entry), &pending);
    }
    for (PendingSpill &ps : pending) {
        {
            std::lock_guard<std::mutex> lk(mu);
            if (fault &&
                fault->shouldFail(FaultSite::SpillEncode, ps.key)) {
                // Injected encode failure: the victim is dropped
                // outright instead of parked. Degradation, not an
                // error — its next use hydrates from the store or
                // re-encodes cold.
                ++counters.spill_drops;
                continue;
            }
        }
        auto bytes = std::make_shared<const std::vector<uint8_t>>(
            spillEncode(*ps.entry));
        std::lock_guard<std::mutex> lk(mu);
        parkLocked(ps.key, std::move(bytes));
    }
}

void
PlanCache::dropSpillLocked(uint64_t key)
{
    const auto it = spill_slots.find(key);
    if (it == spill_slots.end())
        return;
    counters.spill_bytes -=
        static_cast<int64_t>(it->second.bytes->size());
    --counters.spill_entries;
    spill_lru.erase(it->second.lru_it);
    spill_slots.erase(it);
}

std::shared_ptr<const CachedPlan>
PlanCache::rehydrate(
    uint64_t key, std::shared_ptr<const std::vector<uint8_t>> bytes)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (fault &&
            fault->shouldFail(FaultSite::SpillDecode, key)) {
            // Injected decode failure: drop the (now suspect)
            // parked image and report a miss; the caller degrades
            // to the store / cold path. The lookup was not served
            // by the spill tier after all, so take back the
            // spill_hit the lookup optimistically counted.
            ++counters.spill_decode_faults;
            --counters.spill_hits;
            dropSpillLocked(key);
            return nullptr;
        }
    }
    // Rehydrate outside the lock (decode + operand reconstruction +
    // profile/mirror re-derivation) and promote back into the
    // resident tier.
    auto entry = spillDecode(bytes->data(), bytes->size());
    insertAndSpill(key, entry);
    return entry;
}

std::shared_ptr<const CachedPlan>
PlanCache::loadFromStore(uint64_t key)
{
    PlanStore *s;
    {
        std::lock_guard<std::mutex> lk(mu);
        s = store;
    }
    if (s == nullptr)
        return nullptr;
    // File I/O and hydration run outside the cache lock.
    PlanStore::LoadResult r = s->load(key);
    {
        std::lock_guard<std::mutex> lk(mu);
        if (r.entry) {
            ++counters.store_hits;
        } else if (r.rejected) {
            // Corrupt / truncated / stale-version file: treated as
            // a miss; the rebuild below overwrites it.
            ++counters.store_rejects;
        } else {
            ++counters.store_misses;
        }
    }
    if (r.entry)
        insertAndSpill(key, r.entry);
    return r.entry;
}

void
PlanCache::saveToStore(uint64_t key, const CachedPlan &entry)
{
    PlanStore *s;
    {
        std::lock_guard<std::mutex> lk(mu);
        s = store;
    }
    if (s == nullptr)
        return;
    if (s->save(key, entry)) {
        std::lock_guard<std::mutex> lk(mu);
        ++counters.store_saves;
    }
}

std::shared_ptr<const CachedPlan>
PlanCache::acquire(const GemmProblem &p, int bz, bool dense_mirror)
{
    auto entry = acquireKeyed(fingerprint(p), bz, dense_mirror,
                              [&p] { return p; });
    // Cross-check the geometry against the resident operands: a
    // 64-bit fingerprint collision between distinct workloads
    // would otherwise return a wrong plan silently. (Same-dims
    // content collisions remain theoretically possible at ~2^-64;
    // a full memcmp would cost as much as the hash itself.)
    s2ta_assert(entry->problem.m == p.m &&
                entry->problem.k == p.k &&
                entry->problem.n == p.n,
                "plan cache fingerprint collision (%dx%dx%d vs "
                "%dx%dx%d)", p.m, p.k, p.n, entry->problem.m,
                entry->problem.k, entry->problem.n);
    return entry;
}

std::shared_ptr<const CachedPlan>
PlanCache::acquireKeyed(uint64_t key, int bz, bool dense_mirror,
                        const std::function<GemmProblem()> &lower)
{
    key = combine(key, static_cast<uint64_t>(bz) |
                           (dense_mirror ? 0x100u : 0u));
    Lookup l;
    {
        std::lock_guard<std::mutex> lk(mu);
        l = lookupLocked(key);
    }
    if (l.entry)
        return l.entry;
    if (l.spilled) {
        if (auto entry = rehydrate(key, std::move(l.spilled)))
            return entry;
    }
    if (auto entry = loadFromStore(key))
        return entry;
    {
        std::lock_guard<std::mutex> lk(mu);
        ++counters.misses;
    }
    // Lower and encode outside the lock: plan construction is the
    // expensive part and must not serialize concurrent sweep lanes.
    auto entry =
        std::make_shared<const CachedPlan>(lower(), bz, dense_mirror);
    insertAndSpill(key, entry);
    saveToStore(key, *entry);
    return entry;
}

std::vector<std::shared_ptr<const CachedPlan>>
PlanCache::acquireLayer(
    uint64_t key, int groups, int bz, bool dense_mirror,
    const std::function<std::vector<GemmProblem>()> &lower_all,
    const std::function<GemmProblem(int)> &lower_one)
{
    s2ta_assert(groups >= 1, "groups %d", groups);
    const uint64_t base = combine(
        key, static_cast<uint64_t>(bz) |
                 (dense_mirror ? 0x100u : 0u));
    std::vector<std::shared_ptr<const CachedPlan>> out(
        static_cast<size_t>(groups));
    std::vector<uint64_t> keys(static_cast<size_t>(groups));
    for (int g = 0; g < groups; ++g)
        keys[static_cast<size_t>(g)] =
            combine(base, static_cast<uint64_t>(g));

    std::vector<Lookup> looks(static_cast<size_t>(groups));
    bool has_store;
    {
        std::lock_guard<std::mutex> lk(mu);
        has_store = store != nullptr;
        for (int g = 0; g < groups; ++g)
            looks[static_cast<size_t>(g)] =
                lookupLocked(keys[static_cast<size_t>(g)]);
    }
    int absent = 0;
    for (int g = 0; g < groups; ++g) {
        auto &l = looks[static_cast<size_t>(g)];
        auto &slot = out[static_cast<size_t>(g)];
        if (l.entry) {
            slot = std::move(l.entry);
        } else {
            if (l.spilled)
                slot = rehydrate(keys[static_cast<size_t>(g)],
                                 std::move(l.spilled));
            if (!slot && has_store)
                slot = loadFromStore(keys[static_cast<size_t>(g)]);
            if (!slot)
                ++absent;
        }
    }
    if (absent == 0)
        return out;
    {
        std::lock_guard<std::mutex> lk(mu);
        counters.misses += absent;
    }

    // Whole-layer miss: lower every group in one batched pass (the
    // activation tensor is walked once for all groups). Partial
    // miss (a few groups evicted mid-sweep or individually
    // corrupted on disk): re-lower only the absent ones instead of
    // redoing the whole layer.
    std::vector<GemmProblem> problems;
    if (absent == groups) {
        problems = lower_all();
        s2ta_assert(problems.size() == static_cast<size_t>(groups),
                    "lower_all returned %zu of %d groups",
                    problems.size(), groups);
    }
    for (int g = 0; g < groups; ++g) {
        auto &slot = out[static_cast<size_t>(g)];
        if (slot)
            continue;
        slot = std::make_shared<const CachedPlan>(
            problems.empty()
                ? lower_one(g)
                : std::move(problems[static_cast<size_t>(g)]),
            bz, dense_mirror);
        insertAndSpill(keys[static_cast<size_t>(g)], slot);
        saveToStore(keys[static_cast<size_t>(g)], *slot);
    }
    return out;
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
    spill_slots.clear();
    spill_lru.clear();
    dap_memo.clear();
    counters.entries = 0;
    counters.resident_bytes = 0;
    counters.spill_entries = 0;
    counters.spill_bytes = 0;
}

} // namespace s2ta
