/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the library (workload generators,
 * synthetic datasets, weight initialization) draws from an explicitly
 * seeded Rng so that experiments are bit-reproducible run to run.
 */

#ifndef S2TA_BASE_RANDOM_HH
#define S2TA_BASE_RANDOM_HH

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "base/logging.hh"

namespace s2ta {

/**
 * Seeded pseudo-random source with convenience draws.
 *
 * The stream is MT19937-64's: word for word what std::mt19937_64
 * emits for the same seed (pinned by tests/base/test_random.cc). The
 * draws map words to values through the std distributions, so values
 * agree on every machine with the same standard library. fork()
 * derives an independent child stream from a parent.
 */
class Rng
{
  public:
    /** Construct from an explicit 64-bit seed. */
    explicit Rng(uint64_t seed = 0x5312A0ull) : engine(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        s2ta_assert(lo <= hi, "bad range [%ld, %ld]", lo, hi);
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo = 0.0, double hi = 1.0)
    {
        return std::uniform_real_distribution<double>(lo, hi)(engine);
    }

    /** Gaussian draw with the given mean and standard deviation. */
    double
    normal(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(engine);
    }

    /** Bernoulli draw: true with probability p. */
    bool
    bernoulli(double p)
    {
        s2ta_assert(p >= 0.0 && p <= 1.0, "p=%g out of range", p);
        return std::bernoulli_distribution(p)(engine);
    }

    /** Non-zero INT8 value, uniform over [-128, 127] \ {0}. */
    int8_t
    nonZeroInt8()
    {
        // Skip 0 by adding the comparison, not by branching on a sign
        // that is random.
        const int64_t v = uniformInt(-128, 126);
        return static_cast<int8_t>(v + (v >= 0));
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), engine);
    }

    /**
     * Choose k distinct indices from [0, n) uniformly at random.
     * @return sorted index vector of size k.
     */
    std::vector<int>
    chooseK(int n, int k)
    {
        s2ta_assert(k >= 0 && k <= n, "chooseK(%d, %d)", n, k);
        std::vector<int> idx(n);
        for (int i = 0; i < n; ++i)
            idx[i] = i;
        // Partial Fisher-Yates: only the first k draws are needed.
        for (int i = 0; i < k; ++i) {
            int j = static_cast<int>(uniformInt(i, n - 1));
            std::swap(idx[i], idx[j]);
        }
        idx.resize(k);
        std::sort(idx.begin(), idx.end());
        return idx;
    }

    /** Fork an independent child stream. */
    Rng
    fork()
    {
        return Rng(engine());
    }

  private:
    /**
     * MT19937-64 (Matsumoto and Nishimura, 2000). std::mt19937_64
     * tests the low bit of each twisted word, a branch that goes
     * either way at random; here the matrix term is a mask, and a
     * whole block of words is twisted and tempered at once, so a
     * draw is one load.
     */
    class Mt19937_64
    {
      public:
        using result_type = uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }

        explicit Mt19937_64(uint64_t seed)
        {
            state[0] = seed;
            for (int i = 1; i < kN; ++i) {
                const uint64_t prev = state[i - 1];
                state[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) +
                           static_cast<uint64_t>(i);
            }
        }

        result_type
        operator()()
        {
            if (next == kN)
                refill();
            return block[next++];
        }

      private:
        static constexpr int kN = 312;
        static constexpr int kM = 156;

        /** The next block: twist the state, temper it into block. */
        void
        refill()
        {
            constexpr uint64_t kUpper = ~uint64_t{0} << 31;
            const auto twist = [](uint64_t cur, uint64_t nxt,
                                  uint64_t far) {
                const uint64_t y = (cur & kUpper) | (nxt & ~kUpper);
                return far ^ (y >> 1) ^
                       (0xB5026F5AA96619E9ull & (0 - (y & 1)));
            };
            for (int k = 0; k < kN - kM; ++k)
                state[k] = twist(state[k], state[k + 1], state[k + kM]);
            for (int k = kN - kM; k < kN - 1; ++k) {
                state[k] =
                    twist(state[k], state[k + 1], state[k + kM - kN]);
            }
            state[kN - 1] = twist(state[kN - 1], state[0], state[kM - 1]);
            for (int k = 0; k < kN; ++k) {
                uint64_t z = state[k];
                z ^= (z >> 29) & 0x5555555555555555ull;
                z ^= (z << 17) & 0x71D67FFFEDA60000ull;
                z ^= (z << 37) & 0xFFF7EEE000000000ull;
                block[k] = z ^ (z >> 43);
            }
            next = 0;
        }

        uint64_t state[kN];
        uint64_t block[kN] = {};
        int next = kN;
    };

    Mt19937_64 engine;
};

} // namespace s2ta

#endif // S2TA_BASE_RANDOM_HH
