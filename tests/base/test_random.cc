/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <set>

#include "base/random.hh"

namespace s2ta {
namespace {

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// Seeds the library and its benches use, plus the edges.
constexpr uint64_t kPinnedSeeds[] = {
    0, 1, 0xC0FFEE, 0xE16, 0xBE7C4, 0xF11, 0x5E47E, UINT64_MAX};

// More than three MT19937-64 twist blocks of 312 words.
constexpr int kPinnedWords = 3 * 312 + 17;

/**
 * The engine word behind a full-range uniformInt draw: over the
 * whole int64 range the distribution returns the word offset by
 * INT64_MIN, one word per draw.
 */
uint64_t
word(Rng &rng)
{
    return static_cast<uint64_t>(rng.uniformInt(kInt64Min, kInt64Max)) -
           static_cast<uint64_t>(kInt64Min);
}

int64_t
refUniformInt(std::mt19937_64 &ref, int64_t lo, int64_t hi)
{
    return std::uniform_int_distribution<int64_t>(lo, hi)(ref);
}

/** Rng::chooseK's contract, spelled out over the std engine. */
std::vector<int>
refChooseK(std::mt19937_64 &ref, int n, int k)
{
    std::vector<int> idx(static_cast<size_t>(n));
    std::iota(idx.begin(), idx.end(), 0);
    for (int i = 0; i < k; ++i)
        std::swap(idx[static_cast<size_t>(i)],
                  idx[static_cast<size_t>(refUniformInt(ref, i, n - 1))]);
    idx.resize(static_cast<size_t>(k));
    std::sort(idx.begin(), idx.end());
    return idx;
}

TEST(Random, SameSeedSameStream)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000000), b.uniformInt(0, 1000000));
}

TEST(Random, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.uniformInt(0, 1 << 30) == b.uniformInt(0, 1 << 30);
    EXPECT_LT(equal, 3);
}

TEST(Random, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Random, NonZeroInt8NeverZeroAndCoversRange)
{
    Rng rng(9);
    bool saw_min = false, saw_max = false;
    for (int i = 0; i < 20000; ++i) {
        const int v = rng.nonZeroInt8();
        EXPECT_NE(v, 0);
        EXPECT_GE(v, -128);
        EXPECT_LE(v, 127);
        saw_min |= v == -128;
        saw_max |= v == 127;
    }
    EXPECT_TRUE(saw_min);
    EXPECT_TRUE(saw_max);
}

TEST(Random, ChooseKReturnsDistinctSorted)
{
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const auto idx = rng.chooseK(20, 7);
        ASSERT_EQ(idx.size(), 7u);
        std::set<int> seen(idx.begin(), idx.end());
        EXPECT_EQ(seen.size(), 7u);
        EXPECT_TRUE(std::is_sorted(idx.begin(), idx.end()));
        EXPECT_GE(idx.front(), 0);
        EXPECT_LT(idx.back(), 20);
    }
}

TEST(Random, ChooseKEdgeCases)
{
    Rng rng(13);
    EXPECT_TRUE(rng.chooseK(5, 0).empty());
    const auto all = rng.chooseK(5, 5);
    ASSERT_EQ(all.size(), 5u);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(all[static_cast<size_t>(i)], i);
}

TEST(Random, ChooseKIsApproximatelyUniform)
{
    Rng rng(17);
    std::vector<int> hits(10, 0);
    const int trials = 20000;
    for (int t = 0; t < trials; ++t)
        for (int i : rng.chooseK(10, 3))
            ++hits[static_cast<size_t>(i)];
    // Each position should be chosen ~30% of the time.
    for (int i = 0; i < 10; ++i) {
        const double frac =
            static_cast<double>(hits[static_cast<size_t>(i)]) / trials;
        EXPECT_NEAR(frac, 0.3, 0.03) << "position " << i;
    }
}

TEST(Random, BernoulliMatchesProbability)
{
    Rng rng(23);
    int heads = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        heads += rng.bernoulli(0.25);
    EXPECT_NEAR(static_cast<double>(heads) / trials, 0.25, 0.01);
}

TEST(Random, ForkProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.fork();
    // The child stream must not mirror the parent stream.
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        equal += parent.uniformInt(0, 1 << 30) ==
                 child.uniformInt(0, 1 << 30);
    }
    EXPECT_LT(equal, 3);
}

// The stream is std::mt19937_64's, word for word, across several
// twist blocks: artifacts and golden digests depend on it.
TEST(RandomStream, WordsMatchStdMt19937_64)
{
    for (uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < kPinnedWords; ++i)
            ASSERT_EQ(word(rng), ref()) << "seed " << seed << " word " << i;
    }
}

// Each draw maps words to values exactly as the std distributions do
// over std::mt19937_64 (libstdc++'s mappings).
TEST(RandomStream, UniformIntMatchesStdDistribution)
{
    const std::pair<int64_t, int64_t> ranges[] = {
        {5, 5},                      // 1 value
        {0, 7},                      // 8
        {-128, 126},                 // 255
        {-3, (int64_t{1} << 40) - 4}, // 2^40
        {kInt64Min, kInt64Max},      // the full range
    };
    for (uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < kPinnedWords; ++i) {
            const auto [lo, hi] = ranges[i % 5];
            ASSERT_EQ(rng.uniformInt(lo, hi), refUniformInt(ref, lo, hi))
                << "seed " << seed << " draw " << i;
        }
    }
}

TEST(RandomStream, NonZeroInt8MatchesStdDistribution)
{
    for (uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < kPinnedWords; ++i) {
            const int64_t v = refUniformInt(ref, -128, 126);
            const auto expect = static_cast<int8_t>(v >= 0 ? v + 1 : v);
            ASSERT_EQ(rng.nonZeroInt8(), expect)
                << "seed " << seed << " draw " << i;
        }
    }
}

TEST(RandomStream, BernoulliMatchesStdDistribution)
{
    for (uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < kPinnedWords; ++i) {
            const double p = (i % 3 == 0) ? 0.0 : (i % 3 == 1) ? 0.35 : 1.0;
            ASSERT_EQ(rng.bernoulli(p), std::bernoulli_distribution(p)(ref))
                << "seed " << seed << " draw " << i;
        }
    }
}

TEST(RandomStream, ChooseKShuffleNormalForkMatchStd)
{
    for (uint64_t seed : kPinnedSeeds) {
        Rng rng(seed);
        std::mt19937_64 ref(seed);
        // Mixed consumption (normal takes a variable number of words)
        // carries the stream across block boundaries at odd offsets.
        for (int round = 0; round < 40; ++round) {
            const int n = 3 + round % 70, k = round % (n + 1);
            ASSERT_EQ(rng.chooseK(n, k), refChooseK(ref, n, k))
                << "seed " << seed << " round " << round;

            std::vector<int> v(static_cast<size_t>(5 + round)), w;
            std::iota(v.begin(), v.end(), 0);
            w = v;
            rng.shuffle(v);
            std::shuffle(w.begin(), w.end(), ref);
            ASSERT_EQ(v, w) << "seed " << seed << " round " << round;

            for (int i = 0; i < 7; ++i) {
                ASSERT_EQ(rng.normal(0.5, 2.0),
                          std::normal_distribution<double>(0.5, 2.0)(ref))
                    << "seed " << seed << " round " << round;
            }
            ASSERT_EQ(rng.uniformReal(-1.0, 3.0),
                      std::uniform_real_distribution<double>(-1.0, 3.0)(ref));

            Rng child = rng.fork();
            std::mt19937_64 ref_child(ref());
            for (int i = 0; i < 20; ++i)
                ASSERT_EQ(word(child), ref_child())
                    << "seed " << seed << " round " << round;
        }
        // The parent streams are still in step afterwards.
        for (int i = 0; i < kPinnedWords; ++i)
            ASSERT_EQ(word(rng), ref()) << "seed " << seed << " tail " << i;
    }
}

} // anonymous namespace
} // namespace s2ta
