#include "arch/plan_store.hh"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "base/fault_injection.hh"
#include "base/mapped_file.hh"

namespace s2ta {

namespace {

/** On-disk header; every field fixed-width, total 48 bytes. */
struct PlanFileHeader
{
    uint32_t magic = 0;
    uint32_t version = 0;
    uint64_t key = 0;
    /** Checksum of every byte after this field: the rest of the
     *  header (dims, flags, reserved) and the payload. */
    uint64_t payload_hash = 0;
    int32_t m = 0, k = 0, n = 0, bz = 0;
    /** Bit 0: dense transposed weight mirror present. */
    uint32_t flags = 0;
    uint32_t reserved = 0;
};

static_assert(sizeof(PlanFileHeader) == 48 &&
              std::is_trivially_copyable_v<PlanFileHeader>);

constexpr uint32_t kPlanStoreMagic = 0x53325054u; // "S2PT"
constexpr uint32_t kFlagDenseMirror = 1u << 0;
/** Where the checksummed bytes start (just past payload_hash). */
constexpr size_t kHashedFrom = offsetof(PlanFileHeader, payload_hash) +
                               sizeof(uint64_t);

/** Dim bound for validation: no real workload comes close, and it
 *  keeps all size arithmetic far from int64 overflow. */
constexpr int64_t kMaxDim = int64_t{1} << 27;

/** Section byte sizes, derivable from the header dims alone (the
 *  image needs no offset table: sections are laid out back to back
 *  in this fixed order). */
struct SectionSizes
{
    int64_t a, w, act_masks, wgt_masks, wgt_t, profile;

    int64_t
    payload() const
    {
        return a + w + act_masks + wgt_masks + wgt_t + profile;
    }
};

SectionSizes
sectionSizes(int64_t m, int64_t k, int64_t n, int64_t nb,
             bool mirror)
{
    SectionSizes s;
    s.a = m * k;
    s.w = k * n;
    s.act_masks = m * nb;
    s.wgt_masks = n * nb;
    s.wgt_t = mirror ? n * k : 0;
    // row_nz[m], col_nz[n], act_nz_at_k[k], wgt_nz_at_k[k], then
    // the three 64-bit nnz / matched-product totals.
    s.profile = (m + n + 2 * k) *
                    static_cast<int64_t>(sizeof(int32_t)) +
                3 * static_cast<int64_t>(sizeof(int64_t));
    return s;
}

/** Append @p len bytes to @p out. */
void
put(std::vector<uint8_t> &out, const void *data, size_t len)
{
    const size_t at = out.size();
    out.resize(at + len);
    if (len > 0)
        std::memcpy(out.data() + at, data, len);
}

/** Copy @p len bytes out of the image, advancing the cursor. */
void
take(const uint8_t *&p, void *dst, size_t len)
{
    if (len > 0)
        std::memcpy(dst, p, len);
    p += len;
}

// ---- spill codec helpers --------------------------------------------

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
            put(out, blocks[i].values.data(),
                static_cast<size_t>(maskPopcount(mask)));
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
            take(p, b.values.data(), static_cast<size_t>(c));
        }
    }
}

/**
 * planStoreChecksum, fed incrementally: four independent FNV-1a
 * streams over interleaved 8-byte strides of everything fed so far
 * (each the same xor-multiply fold as PlanCache::hashBytes, but the
 * four multiply chains overlap, so hashing runs at memcpy-like speed
 * instead of being latency-bound on one 64-bit multiply per
 * stride), the final len % 32 bytes folded into stream 0. Any split
 * of the input gives the one-shot result.
 */
class Checksum
{
  public:
    void
    feed(const uint8_t *p, size_t len)
    {
        if (n_pending > 0) {
            const size_t fill = std::min(len, sizeof(pending) - n_pending);
            std::memcpy(pending + n_pending, p, fill);
            n_pending += fill;
            p += fill;
            len -= fill;
            if (n_pending < sizeof(pending))
                return;
            strides(pending, sizeof(pending));
            n_pending = 0;
        }
        const size_t whole = len & ~size_t{31};
        strides(p, whole);
        n_pending = len - whole;
        std::memcpy(pending, p + whole, n_pending);
    }

    uint64_t
    result() const
    {
        uint64_t h0 = h[0];
        for (size_t i = 0; i < n_pending; ++i)
            h0 = (h0 ^ pending[i]) * kPrime;
        return PlanCache::combine(
            PlanCache::combine(PlanCache::combine(h0, h[1]), h[2]),
            h[3]);
    }

  private:
    static constexpr uint64_t kPrime = 0x100000001b3ull;

    /** Fold @p len (a multiple of 32) bytes; the lanes live in
     *  locals so byte loads cannot alias them. */
    void
    strides(const uint8_t *p, size_t len)
    {
        uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
        for (size_t i = 0; i < len; i += 32) {
            uint64_t c0, c1, c2, c3;
            std::memcpy(&c0, p + i, 8);
            std::memcpy(&c1, p + i + 8, 8);
            std::memcpy(&c2, p + i + 16, 8);
            std::memcpy(&c3, p + i + 24, 8);
            h0 = (h0 ^ c0) * kPrime;
            h1 = (h1 ^ c1) * kPrime;
            h2 = (h2 ^ c2) * kPrime;
            h3 = (h3 ^ c3) * kPrime;
        }
        h[0] = h0;
        h[1] = h1;
        h[2] = h2;
        h[3] = h3;
    }

    uint64_t h[4] = {0xcbf29ce484222325ull, 0x84222325cbf29ce4ull,
                     0x9ce484222325cbf2ull, 0x25cbf29ce4842223ull};
    uint8_t pending[32] = {};
    size_t n_pending = 0;
};

/**
 * Copies the sections out of a store image while checksumming them,
 * in chunks small enough to hash from cache, so hydration reads the
 * image from memory once.
 */
class ImageReader
{
  public:
    explicit ImageReader(const uint8_t *at) : p(at) {}

    /** The next @p len bytes as a byte vector (no zero fill). */
    template <typename Byte>
    std::vector<Byte>
    bytes(int64_t len)
    {
        static_assert(sizeof(Byte) == 1);
        constexpr int64_t kChunk = 64 << 10;
        std::vector<Byte> v;
        v.reserve(static_cast<size_t>(len));
        for (int64_t at = 0; at < len; at += kChunk) {
            const auto n = static_cast<size_t>(std::min(kChunk, len - at));
            const auto *first = reinterpret_cast<const Byte *>(p);
            v.insert(v.end(), first, first + n);
            sum.feed(p, n);
            p += n;
        }
        return v;
    }

    /** The next @p count values of a trivially copyable @p T. */
    template <typename T>
    void
    into(T *dst, size_t count)
    {
        const size_t len = count * sizeof(T);
        std::memcpy(dst, p, len);
        sum.feed(p, len);
        p += len;
    }

    const uint8_t *cursor() const { return p; }

    Checksum sum;

  private:
    const uint8_t *p;
};

constexpr uint8_t kSpillMagic = 0x53; // 'S'
constexpr uint8_t kSpillVersion = 1;

} // anonymous namespace

uint64_t
planStoreChecksum(const void *data, size_t len)
{
    Checksum sum;
    sum.feed(static_cast<const uint8_t *>(data), len);
    return sum.result();
}

PlanStore::PlanStore(std::string dir, int64_t size_cap_bytes)
    : store_dir(std::move(dir)), size_cap(size_cap_bytes)
{
    s2ta_assert(!store_dir.empty(), "empty plan-store directory");
    s2ta_assert(size_cap >= 0,
                "plan-store size cap must be >= 0 (0 = uncapped), "
                "got %lld", (long long)size_cap);
    if (!makeDirs(store_dir)) {
        s2ta_fatal("cannot create plan-store directory '%s'",
                   store_dir.c_str());
    }
    sweepTornTemps();
}

int64_t
PlanStore::sweepTornTemps() const
{
    // Opportunistic cleanup of torn writes: a process killed
    // mid-save leaves an unpublished "*.tmp.<pid>" file behind
    // (writeFileAtomic publishes via rename, so these never shadow
    // a real entry — they only accumulate). Sweeping can race a
    // concurrent writer's in-flight temp; that writer's rename then
    // fails and its save() reports false, which the cache treats as
    // "plan stays unpersisted" — benign, and the next process saves
    // it again.
    int64_t swept = 0;
    std::error_code ec;
    std::filesystem::directory_iterator it(store_dir, ec), end;
    while (!ec && it != end) {
        const std::filesystem::path path = it->path();
        if (path.filename().string().find(".tmp.") !=
            std::string::npos) {
            std::error_code rm_ec;
            if (std::filesystem::remove(path, rm_ec) && !rm_ec)
                ++swept;
        }
        it.increment(ec);
    }
    n_torn_swept.fetch_add(swept, std::memory_order_relaxed);
    return swept;
}

void
PlanStore::quarantine(const std::string &path) const
{
    // Rename, not delete: the corrupt bytes stay inspectable, and
    // the ".quar" suffix guarantees load() never maps them again
    // (it only ever opens the exact ".s2ta" path). Racing
    // quarantiners are benign — the loser's rename fails because
    // the source is already gone.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quar", ec);
    if (!ec)
        n_quarantined.fetch_add(1, std::memory_order_relaxed);
}

PlanStore::Stats
PlanStore::stats() const
{
    Stats s;
    s.loads = n_loads.load(std::memory_order_relaxed);
    s.rejects = n_rejects.load(std::memory_order_relaxed);
    s.quarantined = n_quarantined.load(std::memory_order_relaxed);
    s.read_faults = n_read_faults.load(std::memory_order_relaxed);
    s.saves = n_saves.load(std::memory_order_relaxed);
    s.save_failures =
        n_save_failures.load(std::memory_order_relaxed);
    s.torn_swept = n_torn_swept.load(std::memory_order_relaxed);
    s.quarantine_removed =
        n_quarantine_removed.load(std::memory_order_relaxed);
    s.evicted_files =
        n_evicted_files.load(std::memory_order_relaxed);
    s.evicted_bytes =
        n_evicted_bytes.load(std::memory_order_relaxed);
    return s;
}

PlanStore::CompactResult
PlanStore::compact(double max_age_s) const
{
    CompactResult res;
    res.torn_swept = sweepTornTemps();

    struct Entry
    {
        std::filesystem::path path;
        int64_t bytes;
        std::filesystem::file_time_type mtime;
    };
    std::vector<Entry> entries;

    std::error_code ec;
    std::filesystem::directory_iterator it(store_dir, ec), end;
    while (!ec && it != end) {
        const std::filesystem::path path = it->path();
        const std::string name = path.filename().string();
        std::error_code fs_ec;
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".quar") == 0) {
            if (std::filesystem::remove(path, fs_ec) && !fs_ec)
                ++res.quarantine_removed;
        } else if (name.rfind("plan_", 0) == 0 && name.size() > 5 &&
                   name.compare(name.size() - 5, 5, ".s2ta") == 0) {
            Entry e;
            e.path = path;
            e.bytes = static_cast<int64_t>(
                std::filesystem::file_size(path, fs_ec));
            if (!fs_ec)
                e.mtime =
                    std::filesystem::last_write_time(path, fs_ec);
            if (!fs_ec)
                entries.push_back(std::move(e));
        }
        it.increment(ec);
    }
    n_quarantine_removed.fetch_add(res.quarantine_removed,
                                   std::memory_order_relaxed);

    // Oldest entries go first; equal mtimes (common on fast
    // populates) break ties by filename so the eviction order is
    // deterministic.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path.filename() < b.path.filename();
              });

    int64_t total = 0;
    for (const Entry &e : entries)
        total += e.bytes;

    const auto evict = [&](const Entry &e) {
        std::error_code rm_ec;
        if (std::filesystem::remove(e.path, rm_ec) && !rm_ec) {
            ++res.evicted_files;
            res.evicted_bytes += e.bytes;
            total -= e.bytes;
            return true;
        }
        return false;
    };

    size_t keep_from = 0;
    if (max_age_s > 0.0) {
        const auto now =
            std::filesystem::file_time_type::clock::now();
        const auto horizon =
            now - std::chrono::duration_cast<
                      std::filesystem::file_time_type::duration>(
                      std::chrono::duration<double>(max_age_s));
        while (keep_from < entries.size() &&
               entries[keep_from].mtime < horizon) {
            evict(entries[keep_from]);
            ++keep_from;
        }
    }
    if (size_cap > 0) {
        while (keep_from < entries.size() && total > size_cap) {
            evict(entries[keep_from]);
            ++keep_from;
        }
    }
    n_evicted_files.fetch_add(res.evicted_files,
                              std::memory_order_relaxed);
    n_evicted_bytes.fetch_add(res.evicted_bytes,
                              std::memory_order_relaxed);

    res.files = static_cast<int64_t>(entries.size()) -
                static_cast<int64_t>(keep_from);
    res.bytes = total;
    return res;
}

std::string
PlanStore::pathFor(uint64_t key) const
{
    char name[40];
    std::snprintf(name, sizeof(name), "/plan_%016llx.s2ta",
                  static_cast<unsigned long long>(key));
    return store_dir + name;
}

std::vector<uint8_t>
PlanStore::serialize(uint64_t key, const CachedPlan &entry)
{
    const GemmProblem &p = entry.problem;
    const GemmPlan &plan = entry.plan;
    s2ta_assert(plan.encoded(),
                "only encoded plans are storable (scalar-engine "
                "runs bypass the cache entirely)");
    const OperandProfile &prof = plan.profile();
    const int nb = plan.act().blocksPerVector();
    const bool mirror = plan.wgtDenseT() != nullptr;
    const SectionSizes ss = sectionSizes(p.m, p.k, p.n, nb, mirror);

    PlanFileHeader hdr;
    hdr.magic = kPlanStoreMagic;
    hdr.version = kPlanStoreVersion;
    hdr.key = key;
    hdr.m = p.m;
    hdr.k = p.k;
    hdr.n = p.n;
    hdr.bz = plan.bz();
    hdr.flags = mirror ? kFlagDenseMirror : 0;

    std::vector<uint8_t> out;
    out.reserve(sizeof(hdr) + static_cast<size_t>(ss.payload()));
    out.resize(sizeof(hdr)); // hash lands after the payload exists
    put(out, p.a.data(), p.a.size());
    put(out, p.w.data(), p.w.size());
    put(out, plan.act().vectorMasks(0),
        static_cast<size_t>(ss.act_masks));
    put(out, plan.wgt().vectorMasks(0),
        static_cast<size_t>(ss.wgt_masks));
    if (mirror)
        put(out, plan.wgtDenseT(), static_cast<size_t>(ss.wgt_t));

    s2ta_assert(prof.row_nz.size() == static_cast<size_t>(p.m) &&
                    prof.col_nz.size() ==
                        static_cast<size_t>(p.n) &&
                    prof.act_nz_at_k.size() ==
                        static_cast<size_t>(p.k) &&
                    prof.wgt_nz_at_k.size() ==
                        static_cast<size_t>(p.k),
                "profile vectors do not match the plan dims");
    put(out, prof.row_nz.data(),
        prof.row_nz.size() * sizeof(int32_t));
    put(out, prof.col_nz.data(),
        prof.col_nz.size() * sizeof(int32_t));
    put(out, prof.act_nz_at_k.data(),
        prof.act_nz_at_k.size() * sizeof(int32_t));
    put(out, prof.wgt_nz_at_k.data(),
        prof.wgt_nz_at_k.size() * sizeof(int32_t));
    put(out, &prof.act_nnz, sizeof(int64_t));
    put(out, &prof.wgt_nnz, sizeof(int64_t));
    put(out, &prof.matched_products, sizeof(int64_t));

    s2ta_assert(out.size() ==
                    sizeof(hdr) + static_cast<size_t>(ss.payload()),
                "store image size drifted from sectionSizes");
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    hdr.payload_hash = planStoreChecksum(out.data() + kHashedFrom,
                                         out.size() - kHashedFrom);
    std::memcpy(out.data(), &hdr, sizeof(hdr));
    return out;
}

std::shared_ptr<const CachedPlan>
PlanStore::deserialize(const uint8_t *data, size_t len,
                       uint64_t expected_key)
{
    // Every check below is a *rejection* (null return), never a
    // fatal: store bytes come from disk and may be truncated, bit
    // flipped, stale-versioned, or misnamed.
    if (len < sizeof(PlanFileHeader))
        return nullptr;
    PlanFileHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.magic != kPlanStoreMagic ||
        hdr.version != kPlanStoreVersion ||
        hdr.key != expected_key)
        return nullptr;
    if (hdr.m < 1 || hdr.k < 1 || hdr.n < 1 || hdr.m > kMaxDim ||
        hdr.k > kMaxDim || hdr.n > kMaxDim || hdr.bz < 1 ||
        hdr.bz > 8)
        return nullptr;
    const bool mirror = (hdr.flags & kFlagDenseMirror) != 0;
    const int nb = (hdr.k + hdr.bz - 1) / hdr.bz;
    const SectionSizes ss =
        sectionSizes(hdr.m, hdr.k, hdr.n, nb, mirror);
    if (static_cast<int64_t>(len) !=
        static_cast<int64_t>(sizeof(hdr)) + ss.payload())
        return nullptr;

    // Size-validated: hydrate. Each section is copied out of the
    // image once, nothing is parsed or re-derived, and the checksum
    // is folded in as the bytes stream past; a mismatch discards the
    // copies.
    ImageReader in(data + sizeof(hdr));
    in.sum.feed(data + kHashedFrom, sizeof(hdr) - kHashedFrom);
    GemmProblem prob;
    prob.m = hdr.m;
    prob.k = hdr.k;
    prob.n = hdr.n;
    prob.a = in.bytes<int8_t>(ss.a);
    prob.w = in.bytes<int8_t>(ss.w);

    GemmPlan::Parts parts;
    parts.bz = hdr.bz;
    const DbbSpec spec{hdr.bz, hdr.bz};
    parts.act = DbbMatrix::fromParts(spec, hdr.m, nb,
                                     in.bytes<Mask8>(ss.act_masks));
    parts.wgt = DbbMatrix::fromParts(spec, hdr.n, nb,
                                     in.bytes<Mask8>(ss.wgt_masks));
    parts.wgt_t = in.bytes<int8_t>(ss.wgt_t);
    OperandProfile &prof = parts.prof;
    prof.m = hdr.m;
    prof.k = hdr.k;
    prof.n = hdr.n;
    const std::pair<std::vector<int32_t> *, int> counts[] = {
        {&prof.row_nz, hdr.m},
        {&prof.col_nz, hdr.n},
        {&prof.act_nz_at_k, hdr.k},
        {&prof.wgt_nz_at_k, hdr.k}};
    for (const auto &[v, size] : counts) {
        v->resize(static_cast<size_t>(size));
        in.into(v->data(), v->size());
    }
    in.into(&prof.act_nnz, 1);
    in.into(&prof.wgt_nnz, 1);
    in.into(&prof.matched_products, 1);
    s2ta_assert(in.cursor() == data + len,
                "store image cursor drifted");
    if (in.sum.result() != hdr.payload_hash)
        return nullptr;

    return std::make_shared<const CachedPlan>(
        std::move(prob), [&parts](const GemmProblem &owned) {
            return GemmPlan::restore(owned, std::move(parts));
        });
}

PlanStore::LoadResult
PlanStore::load(uint64_t key) const
{
    LoadResult r;
    n_loads.fetch_add(1, std::memory_order_relaxed);
    if (fault && fault->shouldFail(FaultSite::StoreRead, key)) {
        // Modeled open/map failure: indistinguishable from an
        // absent file, so it degrades to a plain miss.
        n_read_faults.fetch_add(1, std::memory_order_relaxed);
        return r;
    }
    const std::string path = pathFor(key);
    const MappedFile mf = MappedFile::openRead(path);
    if (!mf.valid())
        return r; // plain miss
    if (fault && mf.size() > sizeof(PlanFileHeader) &&
        fault->shouldFail(FaultSite::StoreBitFlip, key)) {
        // Modeled bit rot: flip one payload bit in a copy of the
        // image (payload bits are all checksummed, so the flip is
        // guaranteed to trip validation — a header-padding flip
        // could slip through undetected and break reconciliation).
        std::vector<uint8_t> dirty(mf.data(), mf.data() + mf.size());
        const uint64_t payload_bits =
            (uint64_t(mf.size()) - sizeof(PlanFileHeader)) * 8;
        const uint64_t bit =
            FaultInjector::combineId(key, 0xB17F11Bull) %
            payload_bits;
        dirty[sizeof(PlanFileHeader) + bit / 8] ^=
            uint8_t(1u << (bit % 8));
        r.entry = deserialize(dirty.data(), dirty.size(), key);
    } else {
        r.entry = deserialize(mf.data(), mf.size(), key);
    }
    r.rejected = r.entry == nullptr;
    if (r.rejected) {
        n_rejects.fetch_add(1, std::memory_order_relaxed);
        quarantine(path);
    }
    return r;
}

bool
PlanStore::save(uint64_t key, const CachedPlan &entry) const
{
    const std::vector<uint8_t> image = serialize(key, entry);
    const std::string path = pathFor(key);
    if (fault && fault->shouldFail(FaultSite::StoreWrite, key)) {
        // Modeled torn write: leave half the image behind under an
        // unpublished temp name (swept by attach/compact) and fail
        // the save. Nothing becomes visible under the real path.
        const std::string torn = path + ".tmp.injected";
        if (std::FILE *f = std::fopen(torn.c_str(), "wb")) {
            std::fwrite(image.data(), 1, image.size() / 2, f);
            std::fclose(f);
        }
        n_save_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (fault && fault->shouldFail(FaultSite::StoreRename, key)) {
        // Modeled publish failure: the temp was written but the
        // rename failed; writeFileAtomic cleans its temp on that
        // path, so nothing is left behind at all.
        n_save_failures.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (writeFileAtomic(path, image.data(), image.size())) {
        n_saves.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    n_save_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
}

// ---- spill codec ----------------------------------------------------

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

} // namespace s2ta
