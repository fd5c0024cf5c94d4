#include "arch/plan_cache.hh"

#include <cstring>

#include "base/fault_injection.hh"

namespace s2ta {

namespace {

// ---- spill codec helpers --------------------------------------------

constexpr uint8_t kSpillMagic = 0x53; // 'S'
constexpr uint8_t kSpillVersion = 3;

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

/** encodeBlocks for an events-only entry's masks: the mask bytes
 *  alone, zero runs collapsed the same way. */
void
encodeMasks(const DbbMatrix &masks, std::vector<uint8_t> &out)
{
    const Mask8 *m = masks.vectorMasks(0);
    const int64_t total =
        static_cast<int64_t>(masks.vectors()) * masks.blocksPerVector();
    for (int64_t i = 0; i < total;) {
        out.push_back(m[i]);
        if (m[i] != 0) {
            ++i;
            continue;
        }
        int64_t run = 1;
        while (i + run < total && m[i + run] == 0)
            ++run;
        putVarint(out, static_cast<uint64_t>(run - 1));
        i += run;
    }
}

/** Inverse of encodeMasks: @p vectors x @p blocks masks at block
 *  size @p bz (the permissive bz/bz spec GemmPlan::build encodes
 *  with). */
DbbMatrix
decodeMasks(const uint8_t *&p, const uint8_t *end, int vectors,
            int blocks, int bz)
{
    std::vector<Mask8> masks(static_cast<size_t>(vectors) * blocks);
    size_t i = 0;
    while (i < masks.size()) {
        s2ta_assert(p < end, "truncated spill mask stream");
        const Mask8 mask = *p++;
        s2ta_assert((mask >> bz) == 0, "spill mask %#x past bz %d",
                    mask, bz);
        if (mask != 0) {
            masks[i++] = mask;
            continue;
        }
        const uint64_t run = 1 + getVarint(p, end);
        s2ta_assert(run <= masks.size() - i,
                    "spill zero-run overruns the mask array");
        i += run; // masks are value-initialized to zero
    }
    return DbbMatrix(DbbSpec{bz, bz}, vectors, blocks, std::move(masks));
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

CachedPlan::CachedPlan(const GemmProblem &p, const int8_t *w, int bz)
    // The permissive bz/bz spec, as GemmPlan::build encodes.
    : CachedPlan(p, DbbMatrix::fromActivations(p, DbbSpec{bz, bz}),
                 DbbMatrix::fromWeights(p, w, DbbSpec{bz, bz}))
{}

CachedPlan::CachedPlan(const GemmProblem &p, DbbMatrix act,
                       DbbMatrix wgt)
    : problem(p.withoutOperands()),
      plan(GemmPlan::fromMasks(problem, std::move(act), std::move(wgt)))
{}

std::vector<uint8_t>
spillEncode(const CachedPlan &entry)
{
    const GemmProblem &p = entry.problem;
    const GemmPlan &plan = entry.plan;
    s2ta_assert(plan.encoded(), "cannot spill a shallow plan");
    const bool compute = plan.wgtDenseT() != nullptr;
    std::vector<uint8_t> out;
    // Mask byte + up to bz values per block is the worst case;
    // reserve for it so dense workloads don't reallocate.
    const int64_t blocks =
        static_cast<int64_t>(plan.act().vectors() + plan.wgt().vectors()) *
        plan.act().blocksPerVector();
    out.reserve(static_cast<size_t>(
        48 + blocks * (compute ? plan.bz() + 1 : 1)));
    out.push_back(kSpillMagic);
    out.push_back(kSpillVersion);
    for (const int dim : {p.m, p.k, p.n, p.groups, p.seg, p.seg_align})
        putVarint(out, static_cast<uint64_t>(dim));
    out.push_back(static_cast<uint8_t>(plan.bz()));
    out.push_back(compute ? 1 : 0);
    if (compute) {
        encodeBlocks(dbbEncodeActivations(p, plan.bz()), out);
        encodeBlocks(dbbEncodeWeights(p, plan.bz()), out);
    } else {
        encodeMasks(plan.act(), out);
        encodeMasks(plan.wgt(), out);
    }
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
    const auto groups = static_cast<int>(getVarint(p, end));
    const auto seg = static_cast<int>(getVarint(p, end));
    const auto seg_align = static_cast<int>(getVarint(p, end));
    s2ta_assert(p + 2 <= end, "truncated spill image");
    const int bz = *p++;
    const bool mirror = *p++ != 0;
    s2ta_assert(m >= 1 && k >= 1 && n >= 1 && groups >= 1 &&
                    seg >= 0 && seg <= k && seg_align >= 1 &&
                    bz >= 1 && bz <= 8,
                "implausible spill dims %dx%dx%d, %d groups, seg "
                "%d/%d, bz %d", m, k, n, groups, seg, seg_align, bz);

    if (!mirror) {
        // An events-only entry: both operands' masks in the modeled
        // layout, which give the profiles again.
        GemmProblem dims;
        dims.m = m;
        dims.k = k;
        dims.n = n;
        dims.groups = groups;
        dims.seg = seg;
        dims.seg_align = seg_align;
        s2ta_assert(seg == 0 || k % seg == 0,
                    "spill segments of %d do not tile K %d", seg, k);
        const int nb = (dims.modeledK() + bz - 1) / bz;
        DbbMatrix act = decodeMasks(p, end, groups * m, nb, bz);
        DbbMatrix wgt = decodeMasks(p, end, groups * n, nb, bz);
        s2ta_assert(p == end, "trailing bytes in spill image");
        return std::make_shared<const CachedPlan>(dims, std::move(act),
                                                  std::move(wgt));
    }

    // A compute entry's stored operands: m rows of groups*k
    // activations and groups*n weight columns of k.
    std::vector<DbbBlock> act_blks(
        static_cast<size_t>(m) * ((groups * k + bz - 1) / bz));
    decodeBlocks(p, end, act_blks);
    std::vector<DbbBlock> wgt_blks(static_cast<size_t>(groups) * n *
                                   ((k + bz - 1) / bz));
    decodeBlocks(p, end, wgt_blks);
    s2ta_assert(p == end, "trailing bytes in spill image");

    // Encoding is lossless (every non-zero keeps its position and
    // value; padding positions stay unset), so expanding the blocks
    // reconstructs the dense operands exactly, and a build over them
    // reproduces the spilled plan.
    GemmProblem prob(m, k, n, groups);
    prob.seg = seg;
    prob.seg_align = seg_align;
    dbbDecodeActivations(act_blks.data(), bz, prob);
    dbbDecodeWeights(wgt_blks.data(), bz, prob);
    return std::make_shared<const CachedPlan>(std::move(prob), bz);
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
    const auto pit = spilling.find(key);
    if (pit != spilling.end()) {
        // Evicted by a lane still encoding its spill image: the
        // entry is in memory yet, so it serves the lookup.
        ++counters.hits;
        l.entry = pit->second;
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
                spilling[victim] = vit->second.entry;
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
                spilling.erase(ps.key);
                continue;
            }
        }
        auto bytes = std::make_shared<const std::vector<uint8_t>>(
            spillEncode(*ps.entry));
        std::lock_guard<std::mutex> lk(mu);
        parkLocked(ps.key, std::move(bytes));
        spilling.erase(ps.key);
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
    auto entry = build();
    s2ta_assert(entry->plan.bz() == bz &&
                    (entry->plan.wgtDenseT() != nullptr) == dense_mirror,
                "entry built at bz %d, mirror %d for a key of bz %d, "
                "mirror %d", entry->plan.bz(),
                entry->plan.wgtDenseT() != nullptr, bz, dense_mirror);
    insertAndSpill(key, entry);
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
    spill_slots.clear();
    spill_lru.clear();
    spilling.clear();
    dap_memo.clear();
    counters.entries = 0;
    counters.resident_bytes = 0;
    counters.spill_entries = 0;
    counters.spill_bytes = 0;
}

} // namespace s2ta
