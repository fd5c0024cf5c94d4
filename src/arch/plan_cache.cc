#include "arch/plan_cache.hh"

#include <cstring>

#include "base/fault_injection.hh"

namespace s2ta {

namespace {

// ---- spill codec helpers --------------------------------------------

constexpr uint8_t kSpillMagic = 0x53; // 'S'
constexpr uint8_t kSpillVersion = 1;

void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

uint64_t
getVarint(const uint8_t *&p, const uint8_t *end)
{
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
        s2ta_assert(p < end && shift < 64,
                    "malformed spill varint");
        const uint8_t byte = *p++;
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80u) == 0)
            return v;
        shift += 7;
    }
}

/**
 * Mask + stored values per block; runs of all-zero blocks collapse
 * to one zero mask byte plus a varint run extension. Zero blocks
 * dominate at high sparsity, so cyclic serving traces spill small.
 */
void
encodeBlocks(const std::vector<DbbBlock> &blocks,
             std::vector<uint8_t> &out)
{
    const auto total = static_cast<int64_t>(blocks.size());
    for (int64_t i = 0; i < total;) {
        const Mask8 mask = blocks[i].mask;
        out.push_back(mask);
        if (mask != 0) {
            const auto *values = reinterpret_cast<const uint8_t *>(
                blocks[i].values.data());
            out.insert(out.end(), values, values + maskPopcount(mask));
            ++i;
        } else {
            int64_t run = 1;
            while (i + run < total && blocks[i + run].mask == 0)
                ++run;
            putVarint(out, static_cast<uint64_t>(run - 1));
            i += run;
        }
    }
}

void
decodeBlocks(const uint8_t *&p, const uint8_t *end,
             std::vector<DbbBlock> &blks)
{
    size_t i = 0;
    while (i < blks.size()) {
        s2ta_assert(p < end, "truncated spill block stream");
        const Mask8 mask = *p++;
        if (mask == 0) {
            const uint64_t run = 1 + getVarint(p, end);
            s2ta_assert(i + run <= blks.size(),
                        "spill zero-run overruns the block array");
            i += run; // blocks are value-initialized to zero
        } else {
            DbbBlock &b = blks[i++];
            b.mask = mask;
            const int c = maskPopcount(mask);
            s2ta_assert(p + c <= end,
                        "truncated spill block values");
            std::memcpy(b.values.data(), p, static_cast<size_t>(c));
            p += c;
        }
    }
}

} // anonymous namespace

std::vector<uint8_t>
spillEncode(const CachedPlan &entry)
{
    const GemmProblem &p = entry.problem;
    const GemmPlan &plan = entry.plan;
    s2ta_assert(plan.encoded(), "cannot spill a shallow plan");
    std::vector<uint8_t> out;
    // Mask byte + up to bz values per block is the worst case;
    // reserve for it so dense workloads don't reallocate.
    const int64_t blocks =
        (static_cast<int64_t>(p.m) + p.n) *
        plan.act().blocksPerVector();
    out.reserve(static_cast<size_t>(32 + blocks * (plan.bz() + 1)));
    out.push_back(kSpillMagic);
    out.push_back(kSpillVersion);
    putVarint(out, static_cast<uint64_t>(p.m));
    putVarint(out, static_cast<uint64_t>(p.k));
    putVarint(out, static_cast<uint64_t>(p.n));
    out.push_back(static_cast<uint8_t>(plan.bz()));
    out.push_back(plan.wgtDenseT() != nullptr ? 1 : 0);
    encodeBlocks(dbbEncodeActivations(p, plan.bz()), out);
    encodeBlocks(dbbEncodeWeights(p, plan.bz()), out);
    return out;
}

std::shared_ptr<const CachedPlan>
spillDecode(const uint8_t *data, size_t len)
{
    const uint8_t *p = data;
    const uint8_t *end = data + len;
    s2ta_assert(len > 2 && p[0] == kSpillMagic &&
                    p[1] == kSpillVersion,
                "malformed spill image header");
    p += 2;
    const auto m = static_cast<int>(getVarint(p, end));
    const auto k = static_cast<int>(getVarint(p, end));
    const auto n = static_cast<int>(getVarint(p, end));
    s2ta_assert(p + 2 <= end, "truncated spill image");
    const int bz = *p++;
    const bool mirror = *p++ != 0;
    s2ta_assert(m >= 1 && k >= 1 && n >= 1 && bz >= 1 && bz <= 8,
                "implausible spill dims %dx%dx%d bz %d", m, k, n,
                bz);
    const int nb = (k + bz - 1) / bz;

    std::vector<DbbBlock> act_blks(static_cast<size_t>(m) * nb);
    decodeBlocks(p, end, act_blks);
    std::vector<DbbBlock> wgt_blks(static_cast<size_t>(n) * nb);
    decodeBlocks(p, end, wgt_blks);
    s2ta_assert(p == end, "trailing bytes in spill image");

    // Encoding is lossless (every non-zero keeps its position and
    // value; padding positions stay unset), so expanding the blocks
    // reconstructs the dense operands exactly, and a build over them
    // reproduces the spilled plan.
    GemmProblem prob(m, k, n);
    dbbDecodeActivations(act_blks.data(), bz, prob);
    dbbDecodeWeights(wgt_blks.data(), bz, prob);
    return std::make_shared<const CachedPlan>(std::move(prob), bz,
                                              mirror);
}

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
                // error — its next use re-encodes cold.
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
            // to the cold path. The lookup was not served
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
    {
        std::lock_guard<std::mutex> lk(mu);
        ++counters.misses;
    }
    // Lower and encode outside the lock: plan construction is the
    // expensive part and must not serialize concurrent sweep lanes.
    auto entry =
        std::make_shared<const CachedPlan>(lower(), bz, dense_mirror);
    insertAndSpill(key, entry);
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
    {
        std::lock_guard<std::mutex> lk(mu);
        for (int g = 0; g < groups; ++g)
            looks[static_cast<size_t>(g)] =
                lookupLocked(keys[static_cast<size_t>(g)]);
    }
    int absent = 0;
    for (int g = 0; g < groups; ++g) {
        auto &l = looks[static_cast<size_t>(g)];
        auto &slot = out[static_cast<size_t>(g)];
        if (l.entry)
            slot = std::move(l.entry);
        else if (l.spilled)
            slot = rehydrate(keys[static_cast<size_t>(g)],
                             std::move(l.spilled));
        if (!slot)
            ++absent;
    }
    if (absent == 0)
        return out;
    {
        std::lock_guard<std::mutex> lk(mu);
        counters.misses += absent;
    }

    // Whole-layer miss: lower every group in one batched pass (the
    // activation tensor is walked once for all groups). Partial
    // miss (a few groups evicted mid-sweep): re-lower only the
    // absent ones instead of redoing the whole layer.
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
