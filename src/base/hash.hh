/**
 * @file
 * The library's content hash and key mix: FNV-1a over bytes, and a
 * splitmix64 mix of a value into a running key. Plan-cache keys,
 * tensor digests and seeded workload streams are all built from
 * these two functions; their outputs are fixed (golden digests and
 * generated workloads depend on them).
 */

#ifndef S2TA_BASE_HASH_HH
#define S2TA_BASE_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace s2ta {

/** FNV-1a 64-bit offset basis: hashBytes' default seed. */
inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/**
 * FNV-1a 64-bit hash of @p len bytes at @p data, consumed in 8-byte
 * strides: each stride is folded as one 64-bit unit (xor +
 * multiply), then the byte tail one byte at a time. The single
 * sequential pass stays close to memory speed while remaining
 * deterministic across platforms of the same endianness.
 */
inline uint64_t
hashBytes(const void *data, size_t len, uint64_t seed = kFnvOffsetBasis)
{
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

/** Order-dependent mix of @p value into the running @p key. */
inline uint64_t
hashCombine(uint64_t key, uint64_t value)
{
    // splitmix64 finalizer over the xor keeps single-bit key
    // differences from colliding after further combines.
    uint64_t x = key ^ (value + 0x9e3779b97f4a7c15ull);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace s2ta

#endif // S2TA_BASE_HASH_HH
