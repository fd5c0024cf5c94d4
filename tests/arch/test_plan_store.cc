/** @file Tests for the persistent plan store and the spill codec:
 *  byte-exact roundtrips (serialize -> hydrate) at the entry level
 *  and through Accelerator runs on every zoo model, rejection of
 *  truncated / bit-flipped / version-stale / misnamed files with
 *  silent rebuild, and concurrent readers of one store directory. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/plan_store.hh"
#include "base/fault_injection.hh"
#include "nn/model_zoo.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

GemmProblem
smallGemm(uint64_t seed, int m = 24, int k = 64, int n = 16,
          int nnz = 4)
{
    Rng rng(seed);
    return makeDbbGemm(m, k, n, nnz, nnz, rng);
}

/** Unique per-test store directory under the gtest temp root,
 *  cleaned of any previous run's files so tier counters start from
 *  a genuinely cold store. */
std::string
storeDir(const char *name)
{
    const std::string dir = testing::TempDir() + "s2ta_store_" +
                            name;
    std::filesystem::remove_all(dir);
    return dir;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << path;
}

/** Full structural equality of two cache entries: operands, block
 *  masks, mirror, profile, and the functional output. */
void
expectEntriesEqual(const CachedPlan &a, const CachedPlan &b)
{
    ASSERT_EQ(a.problem.m, b.problem.m);
    ASSERT_EQ(a.problem.k, b.problem.k);
    ASSERT_EQ(a.problem.n, b.problem.n);
    EXPECT_EQ(a.problem.a, b.problem.a);
    EXPECT_EQ(a.problem.w, b.problem.w);

    ASSERT_TRUE(a.plan.encoded() && b.plan.encoded());
    ASSERT_EQ(a.plan.bz(), b.plan.bz());
    const auto expect_masks_equal = [](const DbbMatrix &x,
                                       const DbbMatrix &y) {
        ASSERT_EQ(x.vectors(), y.vectors());
        ASSERT_EQ(x.blocksPerVector(), y.blocksPerVector());
        EXPECT_EQ(std::memcmp(x.vectorMasks(0), y.vectorMasks(0),
                              static_cast<size_t>(x.vectors()) *
                                  x.blocksPerVector()),
                  0);
    };
    expect_masks_equal(a.plan.act(), b.plan.act());
    expect_masks_equal(a.plan.wgt(), b.plan.wgt());

    ASSERT_EQ(a.plan.wgtDenseT() != nullptr,
              b.plan.wgtDenseT() != nullptr);
    if (a.plan.wgtDenseT() != nullptr) {
        EXPECT_EQ(std::memcmp(a.plan.wgtDenseT(),
                              b.plan.wgtDenseT(),
                              static_cast<size_t>(a.problem.n) *
                                  a.problem.k),
                  0);
        std::vector<int32_t> out_a(
            static_cast<size_t>(a.problem.m) * a.problem.n);
        std::vector<int32_t> out_b(out_a.size());
        dbbGemm(a.plan, out_a.data());
        dbbGemm(b.plan, out_b.data());
        EXPECT_EQ(out_a, out_b);
    }

    const OperandProfile &pa = a.plan.profile();
    const OperandProfile &pb = b.plan.profile();
    EXPECT_EQ(pa.row_nz, pb.row_nz);
    EXPECT_EQ(pa.col_nz, pb.col_nz);
    EXPECT_EQ(pa.act_nz_at_k, pb.act_nz_at_k);
    EXPECT_EQ(pa.wgt_nz_at_k, pb.wgt_nz_at_k);
    EXPECT_EQ(pa.act_nnz, pb.act_nnz);
    EXPECT_EQ(pa.wgt_nnz, pb.wgt_nnz);
    EXPECT_EQ(pa.matched_products, pb.matched_products);
}

TEST(PlanStore, EntryRoundtripIsExact)
{
    for (const bool mirror : {false, true}) {
        const GemmProblem p = smallGemm(0x51, 48, 96, 32,
                                        mirror ? 8 : 2);
        const CachedPlan entry(p, 8, mirror);
        const uint64_t key = PlanCache::fingerprint(p);
        const auto image = PlanStore::serialize(key, entry);
        const auto back =
            PlanStore::deserialize(image.data(), image.size(), key);
        ASSERT_NE(back, nullptr);
        expectEntriesEqual(entry, *back);
    }
}

TEST(PlanStore, SpillRoundtripIsExact)
{
    // Both operating points, sparse and dense; the mirror is
    // dropped by the codec and re-derived on rehydration.
    for (const int nnz : {2, 8}) {
        const GemmProblem p = smallGemm(0x52, 40, 72, 24, nnz);
        const CachedPlan entry(p, 8, true);
        const auto bytes = spillEncode(entry);
        // Compact relative to the resident footprint (operands +
        // one mask byte per block + mirror): the codec stores only
        // the DBB blocks, mask byte + stored values each.
        const int64_t nb = entry.plan.act().blocksPerVector();
        const int64_t resident =
            static_cast<int64_t>(p.a.size() + p.w.size()) +
            (static_cast<int64_t>(p.m) + p.n) * nb +
            static_cast<int64_t>(p.k) * p.n;
        EXPECT_LT(static_cast<int64_t>(bytes.size()), resident);
        const auto back = spillDecode(bytes.data(), bytes.size());
        ASSERT_NE(back, nullptr);
        expectEntriesEqual(entry, *back);
    }
}

TEST(PlanStore, SpillRoundtripAcrossTileEdgesIsExact)
{
    // K = 1027 gives a ragged tail block and, at bz 8, three
    // 64-block tiles down K; N = 101 gives four 32-column tiles, the
    // last 5 wide. The spill decoder rebuilds the weights through
    // the encoder's tile in reverse, so every edge must come back
    // exact, with and without the dense mirror.
    for (const int bz : {8, 5}) {
        for (const bool mirror : {false, true}) {
            Rng rng(0x53 + static_cast<uint64_t>(bz));
            GemmProblem p(29, 1027, 101);
            for (int8_t &v : p.a)
                v = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
            for (int8_t &v : p.w)
                v = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
            const CachedPlan entry(p, bz, mirror);
            const auto bytes = spillEncode(entry);
            const auto back = spillDecode(bytes.data(), bytes.size());
            ASSERT_NE(back, nullptr);
            EXPECT_EQ(back->problem.a, p.a) << "bz " << bz;
            EXPECT_EQ(back->problem.w, p.w) << "bz " << bz;
            expectEntriesEqual(entry, *back);
        }
    }
}

TEST(PlanStore, RoundtripEveryZooModel)
{
    // End-to-end through the accelerator: populate a store from a
    // run of each zoo model (layers trimmed for test runtime),
    // restart with a cold cache on the same directory, and demand
    // bitwise-identical runs with every plan hydrated, none
    // re-encoded.
    const char *names[] = {"lenet5", "alexnet", "vgg16",
                           "mobilenetv1", "resnet50"};
    for (const char *name : names) {
        ModelSpec spec = modelByName(name);
        if (spec.layers.size() > 2)
            spec.layers.resize(2);
        Rng rng(0x200);
        const ModelWorkload mw = buildModelWorkload(spec, rng);
        const std::string dir =
            storeDir((std::string("zoo_") + name).c_str());

        AcceleratorConfig acfg;
        acfg.array = ArrayConfig::s2taAw(4);
        acfg.sim_threads = 1;
        const Accelerator acc(acfg);
        NetworkRunOptions opt;
        opt.compute_output = true;
        opt.validate_operands = false;

        PlanStore store_a(dir);
        PlanCache cache_a;
        cache_a.attachStore(&store_a);
        opt.plan_cache = &cache_a;
        const NetworkRun cold = acc.runNetwork(mw.layers, opt);
        EXPECT_GT(cache_a.stats().store_saves, 0) << name;

        // Process restart: new store handle, cold cache, same dir.
        PlanStore store_b(dir);
        PlanCache cache_b;
        cache_b.attachStore(&store_b);
        opt.plan_cache = &cache_b;
        const NetworkRun warm = acc.runNetwork(mw.layers, opt);
        EXPECT_GT(cache_b.stats().store_hits, 0) << name;
        EXPECT_EQ(cache_b.stats().misses, 0) << name;

        ASSERT_EQ(cold.layers.size(), warm.layers.size());
        EXPECT_TRUE(cold.total == warm.total) << name;
        for (size_t i = 0; i < cold.layers.size(); ++i) {
            EXPECT_TRUE(cold.layers[i].output ==
                        warm.layers[i].output)
                << name << " layer " << i;
            EXPECT_TRUE(cold.layers[i].events ==
                        warm.layers[i].events)
                << name << " layer " << i;
        }
    }
}

/** The key PlanCache::acquire derives for (p, bz, mirror): content
 *  fingerprint mixed with the encoding variant, the same scheme
 *  acquireKeyed applies before consulting the store. */
uint64_t
cacheKeyFor(const GemmProblem &p, int bz, bool mirror)
{
    return PlanCache::combine(PlanCache::fingerprint(p),
                              static_cast<uint64_t>(bz) |
                                  (mirror ? 0x100u : 0u));
}

TEST(PlanStore, RejectsTruncatedFiles)
{
    const std::string dir = storeDir("trunc");
    PlanStore store(dir);
    const GemmProblem p = smallGemm(0x53);
    const CachedPlan entry(p, 8, false);
    // Save under the exact key the cache will look up, so the
    // rebuild path below exercises reject -> re-encode -> replace.
    const uint64_t key = cacheKeyFor(p, 8, false);
    ASSERT_TRUE(store.save(key, entry));

    const auto image = readFile(store.pathFor(key));
    // Every truncation point must reject: header-only, mid-payload,
    // empty. Each rejection also quarantines the corrupt file
    // (renames it to .quar), so the path is absent afterwards.
    for (const size_t keep :
         {size_t{0}, size_t{10}, size_t{48}, image.size() / 2,
          image.size() - 1}) {
        writeFile(store.pathFor(key),
                  {image.begin(), image.begin() + keep});
        const auto r = store.load(key);
        EXPECT_EQ(r.entry, nullptr) << "kept " << keep;
        EXPECT_TRUE(r.rejected) << "kept " << keep;
        EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)))
            << "kept " << keep;
    }
    EXPECT_EQ(store.stats().rejects, 5);
    EXPECT_EQ(store.stats().quarantined, 5);

    // The rebuild path quarantines the bad file and silently
    // publishes a fresh one in its place.
    writeFile(store.pathFor(key),
              {image.begin(), image.begin() + image.size() / 2});
    PlanCache cache;
    cache.attachStore(&store);
    const auto rebuilt = cache.acquire(p, 8, false);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(cache.stats().store_rejects, 1);
    EXPECT_NE(store.load(key).entry, nullptr);
}

TEST(PlanStore, RejectsBitFlips)
{
    const std::string dir = storeDir("flip");
    PlanStore store(dir);
    const GemmProblem p = smallGemm(0x54);
    const CachedPlan entry(p, 8, false);
    const uint64_t key = PlanCache::fingerprint(p);
    ASSERT_TRUE(store.save(key, entry));
    const auto image = readFile(store.pathFor(key));

    // Flip one bit in the magic, in the stored key, and at several
    // payload offsets; all must be rejected by the header checks or
    // the payload checksum.
    for (const size_t at :
         {size_t{0}, size_t{8}, size_t{64}, image.size() / 2,
          image.size() - 1}) {
        auto bad = image;
        bad[at] ^= 0x10;
        writeFile(store.pathFor(key), bad);
        const auto r = store.load(key);
        EXPECT_EQ(r.entry, nullptr) << "flip at " << at;
        EXPECT_TRUE(r.rejected) << "flip at " << at;
    }

    // Restoring the pristine image loads again.
    writeFile(store.pathFor(key), image);
    EXPECT_NE(store.load(key).entry, nullptr);
}

TEST(PlanStore, RejectsVersionBump)
{
    const std::string dir = storeDir("version");
    PlanStore store(dir);
    const GemmProblem p = smallGemm(0x55);
    const CachedPlan entry(p, 8, false);
    const uint64_t key = PlanCache::fingerprint(p);
    ASSERT_TRUE(store.save(key, entry));

    auto image = readFile(store.pathFor(key));
    // The version field is the second uint32 of the header; a file
    // from any other format version must be rejected even though
    // its checksum is intact.
    uint32_t version;
    std::memcpy(&version, image.data() + 4, sizeof(version));
    EXPECT_EQ(version, kPlanStoreVersion);
    ++version;
    std::memcpy(image.data() + 4, &version, sizeof(version));
    writeFile(store.pathFor(key), image);
    const auto r = store.load(key);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_TRUE(r.rejected);
}

TEST(PlanStore, RejectsKeyMismatch)
{
    const std::string dir = storeDir("key");
    PlanStore store(dir);
    const GemmProblem p = smallGemm(0x56);
    const CachedPlan entry(p, 8, false);
    const uint64_t key = PlanCache::fingerprint(p);
    ASSERT_TRUE(store.save(key, entry));

    // A file renamed onto another key's path (or a key collision in
    // the filename hash) carries the wrong embedded key.
    const uint64_t other = key ^ 0xdeadbeefull;
    writeFile(store.pathFor(other), readFile(store.pathFor(key)));
    const auto r = store.load(other);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_TRUE(r.rejected);
    // The original is untouched.
    EXPECT_NE(store.load(key).entry, nullptr);
}

TEST(PlanStore, ConcurrentReadersShareOneDirectory)
{
    const std::string dir = storeDir("conc");
    std::vector<GemmProblem> problems;
    for (uint64_t s = 0; s < 4; ++s)
        problems.push_back(smallGemm(0x600 + s, 32, 80, 24));

    {
        PlanStore writer(dir);
        PlanCache cache;
        cache.attachStore(&writer);
        for (const auto &p : problems)
            cache.acquire(p, 8, true);
    }

    // Reference outputs from fresh builds.
    std::vector<std::vector<int32_t>> ref;
    for (const auto &p : problems) {
        const GemmPlan plan = GemmPlan::build(p, 8, true);
        std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
        dbbGemm(plan, out.data());
        ref.push_back(std::move(out));
    }

    // Many readers, each its own store handle + cache over the same
    // directory, all hydrating the same mmap'd files concurrently.
    constexpr int kReaders = 8;
    std::vector<std::thread> readers;
    std::vector<int> ok(kReaders, 0);
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&, t] {
            PlanStore store(dir);
            PlanCache cache;
            cache.attachStore(&store);
            bool good = true;
            for (size_t i = 0; i < problems.size(); ++i) {
                const auto e = cache.acquire(problems[i], 8, true);
                std::vector<int32_t> out(
                    static_cast<size_t>(problems[i].m) *
                    problems[i].n);
                dbbGemm(e->plan, out.data());
                good = good && out == ref[i];
            }
            good = good &&
                   cache.stats().store_hits ==
                       static_cast<int64_t>(problems.size()) &&
                   cache.stats().misses == 0;
            ok[static_cast<size_t>(t)] = good ? 1 : 0;
        });
    }
    for (auto &th : readers)
        th.join();
    for (int t = 0; t < kReaders; ++t)
        EXPECT_EQ(ok[static_cast<size_t>(t)], 1) << "reader " << t;
}

TEST(PlanStore, SweepsTornTempFilesOnOpen)
{
    const std::string dir = storeDir("torn");
    const GemmProblem p = smallGemm(0x57);
    uint64_t key;
    std::string torn;
    {
        PlanStore store(dir);
        key = cacheKeyFor(p, 8, false);
        ASSERT_TRUE(store.save(key, CachedPlan(p, 8, false)));
        // Simulate a writer killed mid-save: an unpublished temp
        // next to a healthy entry.
        torn = store.pathFor(key) + ".tmp.99999";
        writeFile(torn, {0x01, 0x02, 0x03});
    }
    ASSERT_TRUE(std::filesystem::exists(torn));
    PlanStore reopened(dir);
    EXPECT_FALSE(std::filesystem::exists(torn))
        << "constructor must sweep torn temp files";
    // The published entry is untouched.
    EXPECT_NE(reopened.load(key).entry, nullptr);
}

/** Files in @p dir whose name contains @p needle. */
int64_t
countFilesContaining(const std::string &dir,
                     const std::string &needle)
{
    int64_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator(dir)) {
        if (e.path().filename().string().find(needle) !=
            std::string::npos)
            ++n;
    }
    return n;
}

TEST(PlanStore, InjectedWriteFaultLeavesNoVisibleEntry)
{
    const std::string dir = storeDir("wfault");
    PlanStore store(dir);
    FaultInjector fi(0x11);
    fi.setRate(FaultSite::StoreWrite, 1.0);
    store.setFaultInjector(&fi);

    const GemmProblem p = smallGemm(0x58);
    const uint64_t key = cacheKeyFor(p, 8, false);
    EXPECT_FALSE(store.save(key, CachedPlan(p, 8, false)));

    // Nothing visible under the published path, only the torn temp
    // the modeled mid-save crash left behind; a load is a plain
    // miss, not a rejection.
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_EQ(countFilesContaining(dir, ".tmp."), 1);
    const auto r = store.load(key);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_FALSE(r.rejected);
    EXPECT_EQ(store.stats().saves, 0);
    EXPECT_EQ(store.stats().save_failures, 1);
    EXPECT_EQ(fi.injected(FaultSite::StoreWrite), 1);

    // compact() sweeps the torn temp, counted.
    const auto res = store.compact();
    EXPECT_EQ(res.torn_swept, 1);
    EXPECT_EQ(res.files, 0);
    EXPECT_EQ(countFilesContaining(dir, ".tmp."), 0);
    EXPECT_EQ(store.stats().torn_swept, 1);
}

TEST(PlanStore, InjectedRenameFaultFailsSaveCleanly)
{
    const std::string dir = storeDir("rfault");
    PlanStore store(dir);
    FaultInjector fi(0x12);
    fi.setRate(FaultSite::StoreRename, 1.0);
    store.setFaultInjector(&fi);

    const GemmProblem p = smallGemm(0x59);
    const uint64_t key = cacheKeyFor(p, 8, false);
    EXPECT_FALSE(store.save(key, CachedPlan(p, 8, false)));
    // A failed publish leaves nothing behind at all.
    EXPECT_TRUE(std::filesystem::is_empty(dir));
    EXPECT_EQ(store.stats().save_failures, 1);

    // Dropping the rate restores normal saves on the same handle.
    fi.setRate(FaultSite::StoreRename, 0.0);
    EXPECT_TRUE(store.save(key, CachedPlan(p, 8, false)));
    EXPECT_NE(store.load(key).entry, nullptr);
}

TEST(PlanStore, InjectedBitFlipQuarantinesOnceAndRebuilds)
{
    const std::string dir = storeDir("bfault");
    const GemmProblem p = smallGemm(0x5a);
    const uint64_t key = cacheKeyFor(p, 8, false);
    {
        PlanStore pristine(dir);
        ASSERT_TRUE(pristine.save(key, CachedPlan(p, 8, false)));
    }

    // A reader under modeled bit rot: the flipped image is rejected,
    // the file quarantined (exactly one .quar appears), and the
    // cache degrades to a cold encode and republishes.
    PlanStore store(dir);
    FaultInjector fi(0x13);
    fi.setRate(FaultSite::StoreBitFlip, 1.0);
    store.setFaultInjector(&fi);
    PlanCache cache;
    cache.attachStore(&store);
    const auto rebuilt = cache.acquire(p, 8, false);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(cache.stats().store_rejects, 1);
    EXPECT_EQ(store.stats().rejects, 1);
    EXPECT_EQ(store.stats().quarantined, 1);
    EXPECT_EQ(fi.injected(FaultSite::StoreBitFlip), 1);
    EXPECT_EQ(countFilesContaining(dir, ".quar"), 1);
    EXPECT_EQ(countFilesContaining(dir, ".s2ta"), 2)
        << "republished entry plus the quarantined original";

    // The republished file is valid: a fresh fault-free handle
    // hydrates it and it matches a direct build exactly.
    PlanStore clean(dir);
    const auto back = clean.load(key);
    ASSERT_NE(back.entry, nullptr);
    expectEntriesEqual(CachedPlan(p, 8, false), *back.entry);

    // compact() deletes the quarantined file, counted.
    const auto res = clean.compact();
    EXPECT_EQ(res.quarantine_removed, 1);
    EXPECT_EQ(res.files, 1);
    EXPECT_EQ(countFilesContaining(dir, ".quar"), 0);
    EXPECT_EQ(clean.stats().quarantine_removed, 1);
}

TEST(PlanStore, CompactEnforcesSizeCap)
{
    const std::string dir = storeDir("cap");
    std::vector<uint64_t> keys;
    int64_t file_bytes = 0;
    {
        PlanStore store(dir);
        for (uint64_t s = 0; s < 6; ++s) {
            const GemmProblem p = smallGemm(0x700 + s);
            const uint64_t key = cacheKeyFor(p, 8, false);
            ASSERT_TRUE(store.save(key, CachedPlan(p, 8, false)));
            keys.push_back(key);
        }
        file_bytes = static_cast<int64_t>(
            std::filesystem::file_size(store.pathFor(keys[0])));
    }

    // Re-attach with a budget for two entries; attaching alone
    // never evicts, compact() does.
    const int64_t cap = 2 * file_bytes + file_bytes / 2;
    PlanStore store(dir, cap);
    EXPECT_EQ(countFilesContaining(dir, ".s2ta"), 6);
    const auto res = store.compact();
    EXPECT_EQ(res.evicted_files, 4);
    EXPECT_EQ(res.evicted_bytes, 4 * file_bytes);
    EXPECT_EQ(res.files, 2);
    EXPECT_LE(res.bytes, cap);
    EXPECT_EQ(countFilesContaining(dir, ".s2ta"), 2);
    EXPECT_EQ(store.stats().evicted_files, 4);

    // Every surviving file still hydrates.
    int64_t alive = 0;
    for (const uint64_t key : keys)
        alive += store.load(key).entry != nullptr ? 1 : 0;
    EXPECT_EQ(alive, 2);
}

TEST(PlanStore, CompactEvictsByAge)
{
    const std::string dir = storeDir("age");
    PlanStore store(dir);
    const GemmProblem old_p = smallGemm(0x5b);
    const GemmProblem new_p = smallGemm(0x5c);
    const uint64_t old_key = cacheKeyFor(old_p, 8, false);
    const uint64_t new_key = cacheKeyFor(new_p, 8, false);
    ASSERT_TRUE(store.save(old_key, CachedPlan(old_p, 8, false)));
    ASSERT_TRUE(store.save(new_key, CachedPlan(new_p, 8, false)));

    // Age one entry an hour into the past; a 60 s horizon evicts it
    // and keeps the fresh one.
    std::filesystem::last_write_time(
        store.pathFor(old_key),
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(1));
    const auto res = store.compact(60.0);
    EXPECT_EQ(res.evicted_files, 1);
    EXPECT_EQ(res.files, 1);
    EXPECT_EQ(store.load(old_key).entry, nullptr);
    EXPECT_NE(store.load(new_key).entry, nullptr);
}

TEST(PlanStore, InjectedReadFaultIsAPlainMiss)
{
    const std::string dir = storeDir("readf");
    PlanStore store(dir);
    const GemmProblem p = smallGemm(0x5d);
    const uint64_t key = cacheKeyFor(p, 8, false);
    ASSERT_TRUE(store.save(key, CachedPlan(p, 8, false)));

    FaultInjector fi(0x14);
    fi.setRate(FaultSite::StoreRead, 1.0);
    store.setFaultInjector(&fi);
    const auto r = store.load(key);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_FALSE(r.rejected) << "a modeled open failure is a miss, "
                                "not a corrupt file";
    EXPECT_EQ(store.stats().read_faults, 1);
    // The file itself is untouched: detaching the injector loads it.
    store.setFaultInjector(nullptr);
    EXPECT_NE(store.load(key).entry, nullptr);
}

TEST(PlanStore, ChecksumDetectsEveryByte)
{
    // The 4-lane checksum must change when any single byte changes
    // (probabilistically; here spot-checked across the stride
    // positions of all four lanes and the scalar tail).
    std::vector<uint8_t> buf(257);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 7 + 1);
    const uint64_t base = planStoreChecksum(buf.data(), buf.size());
    for (const size_t at : {size_t{0}, size_t{7}, size_t{8},
                            size_t{15}, size_t{16}, size_t{24},
                            size_t{31}, size_t{130}, size_t{255},
                            size_t{256}}) {
        auto bad = buf;
        bad[at] ^= 1;
        EXPECT_NE(planStoreChecksum(bad.data(), bad.size()), base)
            << "byte " << at;
    }
    // And be length-sensitive.
    EXPECT_NE(planStoreChecksum(buf.data(), buf.size() - 1), base);
}

} // namespace
} // namespace s2ta
