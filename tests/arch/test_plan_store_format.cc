/** @file Pins the on-disk plan-store format against a checked-in
 *  golden fixture and sweeps every header byte, so any layout
 *  change that forgets to bump kPlanStoreVersion fails loudly here,
 *  and fuzzes the decoder: every truncation, seeded bit flips
 *  anywhere in the image, seeded random byte strings, and the
 *  previous format's fixture must each be rejected or hydrate to an
 *  entry that re-serializes byte for byte.
 *
 *  The golden file (tests/data/plan_store_golden.s2ta) is the
 *  serialized form of a fixed-seed entry; regenerate it — only
 *  after a deliberate format bump — with
 *
 *      S2TA_UPDATE_GOLDEN=1 ./tests/arch_test_plan_store_format
 *
 *  from the build directory (writes into the source tree).
 *  tests/data/plan_store_v1.s2ta is the same entry in format
 *  version 1 (block sections of 9 bytes per block instead of mask
 *  sections), the layout a store populated before the version 2
 *  bump holds.
 *
 *  Fuzz failures print the seed and the mutation; re-run one case
 *  with --gtest_filter on its test name.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "arch/plan_cache.hh"
#include "arch/plan_store.hh"
#include "base/random.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/** The fixed-seed entry the golden fixture serializes. */
CachedPlan
goldenEntry()
{
    Rng rng(0x601D);
    GemmProblem p = makeDbbGemm(16, 32, 8, 2, 2, rng);
    return CachedPlan(std::move(p), 8, /*dense_mirror=*/false);
}

std::string
goldenPath()
{
    return std::string(S2TA_TEST_DATA_DIR) +
           "/plan_store_golden.s2ta";
}

std::string
v1Path()
{
    return std::string(S2TA_TEST_DATA_DIR) + "/plan_store_v1.s2ta";
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
    ASSERT_TRUE(out.good()) << path;
}

/** Equality at the image level: two entries serialize identically
 *  under the same key iff they are structurally identical. */
void
expectSameImage(const CachedPlan &a, const CachedPlan &b,
                uint64_t key)
{
    EXPECT_EQ(PlanStore::serialize(key, a),
              PlanStore::serialize(key, b));
}

TEST(PlanStoreFormat, GoldenFixtureIsByteExact)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);

    if (std::getenv("S2TA_UPDATE_GOLDEN") != nullptr) {
        writeFile(goldenPath(), image);
        GTEST_SKIP() << "golden fixture regenerated at "
                     << goldenPath();
    }

    // Byte-exact against the checked-in fixture: a drifted layout
    // (or a nondeterministic serializer) fails here before it can
    // silently invalidate every store directory in the field.
    const auto golden = readFile(goldenPath());
    ASSERT_FALSE(golden.empty()) << goldenPath();
    EXPECT_EQ(image, golden);

    // And the fixture hydrates to the entry it was made from.
    const auto back =
        PlanStore::deserialize(golden.data(), golden.size(), key);
    ASSERT_NE(back, nullptr);
    expectSameImage(entry, *back, key);
}

TEST(PlanStoreFormat, VersionMutationsReject)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);
    // Version lives at header bytes 4..7, little-endian uint32.
    for (const uint32_t v :
         {uint32_t{0}, kPlanStoreVersion + 1, uint32_t{0xffffffff}}) {
        auto bad = image;
        std::memcpy(bad.data() + 4, &v, sizeof(v));
        EXPECT_EQ(PlanStore::deserialize(bad.data(), bad.size(), key),
                  nullptr)
            << "version " << v;
    }
    // The unmutated image still hydrates (the sweep above did not
    // pass vacuously).
    EXPECT_NE(PlanStore::deserialize(image.data(), image.size(), key),
              nullptr);
}

TEST(PlanStoreFormat, HeaderByteSweepPinsTheRejectSet)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);

    // Every header byte is load-bearing: magic, version and key
    // are compared, and the checksum covers everything after it
    // (dims, flags, reserved bytes and payload), so flipping any
    // byte must reject.
    for (size_t off = 0; off < 48; ++off) {
        auto bad = image;
        bad[off] ^= 0xff;
        EXPECT_EQ(PlanStore::deserialize(bad.data(), bad.size(), key),
                  nullptr)
            << "header byte " << off;
    }
}

/** A second fuzz seed image: bz 5 with a ragged K tail and the
 *  dense mirror, so the bz and mirror fields both carry meaning. */
CachedPlan
mirrorEntry()
{
    Rng rng(0x5EED);
    GemmProblem p(7, 43, 9);
    for (int8_t &v : p.a)
        v = rng.bernoulli(0.5) ? 0 : rng.nonZeroInt8();
    for (int8_t &v : p.w)
        v = rng.bernoulli(0.5) ? 0 : rng.nonZeroInt8();
    return CachedPlan(std::move(p), 5, /*dense_mirror=*/true);
}

/** Hydrate @p bytes from an exactly sized heap copy (so a sanitizer
 *  sees any read past the end): null, or an entry that
 *  re-serializes to @p pristine byte for byte. */
std::shared_ptr<const CachedPlan>
fuzzOne(const std::vector<uint8_t> &bytes, uint64_t key,
        const std::vector<uint8_t> &pristine, const std::string &what)
{
    // A range-constructed vector allocates exactly its size.
    const std::vector<uint8_t> exact(bytes.begin(), bytes.end());
    auto got = PlanStore::deserialize(exact.data(), exact.size(), key);
    if (got != nullptr) {
        EXPECT_EQ(PlanStore::serialize(key, *got), pristine) << what;
    }
    return got;
}

TEST(PlanStoreFuzz, EveryTruncationRejects)
{
    for (const CachedPlan &entry : {goldenEntry(), mirrorEntry()}) {
        const uint64_t key = PlanCache::fingerprint(entry.problem);
        const auto image = PlanStore::serialize(key, entry);
        for (size_t len = 0; len < image.size(); ++len) {
            const std::vector<uint8_t> cut(image.begin(),
                                           image.begin() + len);
            EXPECT_EQ(fuzzOne(cut, key, image,
                              "truncated to " + std::to_string(len)),
                      nullptr)
                << "truncated to " << len << " of " << image.size();
        }
    }
}

TEST(PlanStoreFuzz, SeededBitFlipsReject)
{
    // The checksum covers every byte after it and the bytes before
    // it are compared, so no single-bit flip anywhere may hydrate.
    constexpr uint64_t kSeed = 0xB17F11;
    constexpr int kFlips = 1000;
    Rng rng(kSeed);
    for (const CachedPlan &entry : {goldenEntry(), mirrorEntry()}) {
        const uint64_t key = PlanCache::fingerprint(entry.problem);
        const auto image = PlanStore::serialize(key, entry);
        for (int t = 0; t < kFlips; ++t) {
            const auto bit = static_cast<size_t>(
                rng.uniformInt(0, static_cast<int64_t>(image.size()) * 8 - 1));
            auto bad = image;
            bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
            const std::string what =
                "seed " + std::to_string(kSeed) + " flip " +
                std::to_string(t) + ": bit " + std::to_string(bit % 8) +
                " of byte " + std::to_string(bit / 8);
            EXPECT_EQ(fuzzOne(bad, key, image, what), nullptr) << what;
            if (::testing::Test::HasFailure())
                return;
        }
    }
}

TEST(PlanStoreFuzz, SeededRandomBytesReject)
{
    // Fully random strings, and random strings behind a genuine
    // magic/version/key prefix (so they reach the dims and
    // checksum checks).
    constexpr uint64_t kSeed = 0x2A2D0;
    Rng rng(kSeed);
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);
    for (int t = 0; t < 400; ++t) {
        const auto len = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(image.size()) + 64));
        std::vector<uint8_t> bytes(len);
        for (uint8_t &b : bytes)
            b = static_cast<uint8_t>(rng.uniformInt(0, 255));
        const bool prefixed = t % 2 == 1 && len >= 16;
        if (prefixed)
            std::memcpy(bytes.data(), image.data(), 16);
        const std::string what =
            "seed " + std::to_string(kSeed) + " string " +
            std::to_string(t) + " (" + std::to_string(len) + " bytes" +
            (prefixed ? ", genuine prefix)" : ")");
        fuzzOne(bytes, key, image, what);
    }
}

TEST(PlanStoreFuzz, VersionOneFixtureRejects)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto v1 = readFile(v1Path());
    ASSERT_FALSE(v1.empty()) << v1Path();
    uint32_t version;
    std::memcpy(&version, v1.data() + 4, sizeof(version));
    ASSERT_EQ(version, 1u);
    EXPECT_EQ(fuzzOne(v1, key, PlanStore::serialize(key, entry),
                      "v1 fixture"),
              nullptr);
}

TEST(PlanStoreFuzz, VersionOneStoreIsRejectedQuarantinedReencoded)
{
    // A store directory populated by a version-1 build: the v1
    // fixture, re-keyed to the slot the cache looks up (a v1 file's
    // checksum covers only its payload, so the re-keyed file is
    // exactly what a v1 build would have written there).
    const CachedPlan entry = goldenEntry();
    const uint64_t slot = PlanCache::combine(
        PlanCache::fingerprint(entry.problem), 8u);
    auto v1 = readFile(v1Path());
    ASSERT_GE(v1.size(), 16u);
    std::memcpy(v1.data() + 8, &slot, sizeof(slot));

    const std::string dir = testing::TempDir() + "s2ta_store_fuzz_v1";
    std::filesystem::remove_all(dir);
    PlanStore store(dir);
    writeFile(store.pathFor(slot), v1);

    PlanCache cold;
    cold.attachStore(&store);
    const auto built = cold.acquire(entry.problem, 8, false);
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(cold.stats().store_rejects, 1);
    EXPECT_EQ(cold.stats().misses, 1);
    EXPECT_EQ(cold.stats().store_saves, 1);
    EXPECT_TRUE(std::filesystem::exists(store.pathFor(slot) + ".quar"));
    expectSameImage(entry, *built, slot);

    // The re-encoded version-2 file now serves a fresh cache.
    PlanCache warm;
    warm.attachStore(&store);
    const auto hydrated = warm.acquire(entry.problem, 8, false);
    ASSERT_NE(hydrated, nullptr);
    EXPECT_EQ(warm.stats().store_hits, 1);
    EXPECT_EQ(warm.stats().misses, 0);
    expectSameImage(entry, *hydrated, slot);
}

TEST(PlanStoreFormat, CorruptFileIsQuarantinedNotFatal)
{
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);
    const auto image = PlanStore::serialize(key, entry);

    const std::string dir =
        testing::TempDir() + "s2ta_store_format_quar";
    std::filesystem::remove_all(dir);
    const PlanStore store(dir);

    // A stale-version file (e.g. left by an older build) is
    // rejected, renamed aside, and never re-read.
    auto stale = image;
    const uint32_t old_version = kPlanStoreVersion + 7;
    std::memcpy(stale.data() + 4, &old_version, sizeof(old_version));
    writeFile(store.pathFor(key), stale);

    const auto r = store.load(key);
    EXPECT_EQ(r.entry, nullptr);
    EXPECT_TRUE(r.rejected);
    EXPECT_FALSE(std::filesystem::exists(store.pathFor(key)));
    EXPECT_TRUE(
        std::filesystem::exists(store.pathFor(key) + ".quar"));
    EXPECT_EQ(store.stats().quarantined, 1);

    // The quarantined name is dead to load(): the slot reads as a
    // plain miss now, and a fresh save publishes over it cleanly.
    const auto miss = store.load(key);
    EXPECT_EQ(miss.entry, nullptr);
    EXPECT_FALSE(miss.rejected);
    ASSERT_TRUE(store.save(key, entry));
    const auto hit = store.load(key);
    ASSERT_NE(hit.entry, nullptr);
    EXPECT_FALSE(hit.rejected);
    expectSameImage(entry, *hit.entry, key);
}

TEST(PlanStoreFormat, GoldenFixtureLoadsThroughAStore)
{
    if (std::getenv("S2TA_UPDATE_GOLDEN") != nullptr)
        GTEST_SKIP() << "regeneration run";
    const CachedPlan entry = goldenEntry();
    const uint64_t key = PlanCache::fingerprint(entry.problem);

    // Drop the checked-in fixture into a store directory under its
    // key's canonical name: load() must treat it as a first-class
    // entry — the format, not this process's serializer, is the
    // compatibility contract.
    const std::string dir =
        testing::TempDir() + "s2ta_store_format_golden";
    std::filesystem::remove_all(dir);
    const PlanStore store(dir);
    const auto golden = readFile(goldenPath());
    ASSERT_FALSE(golden.empty());
    writeFile(store.pathFor(key), golden);

    const auto r = store.load(key);
    ASSERT_NE(r.entry, nullptr);
    EXPECT_FALSE(r.rejected);
    expectSameImage(entry, *r.entry, key);
}

} // anonymous namespace
} // namespace s2ta
