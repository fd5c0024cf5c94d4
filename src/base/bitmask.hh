/**
 * @file
 * Bit-manipulation helpers for DBB positional bitmasks.
 *
 * A DBB block of size BZ <= 8 carries an 8-bit mask M where bit i set
 * means "the element at expanded position i is (stored as) non-zero"
 * (paper Fig. 5). Bit 0 corresponds to the first element in the block.
 */

#ifndef S2TA_BASE_BITMASK_HH
#define S2TA_BASE_BITMASK_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "base/logging.hh"

namespace s2ta {

/** Positional bitmask type for blocks of up to 8 elements. */
using Mask8 = uint8_t;

namespace detail {

/**
 * 256-entry popcount table. An 8-bit mask domain makes the table
 * L1-resident (256 bytes), and the lookup beats the libgcc software
 * popcount emitted when the build does not enable a hardware
 * POPCNT instruction.
 */
alignas(64) inline constexpr auto mask_popcount_table = [] {
    std::array<uint8_t, 256> t{};
    for (unsigned i = 0; i < 256; ++i)
        t[i] = static_cast<uint8_t>(std::popcount(i));
    return t;
}();

} // namespace detail

/** Number of set bits in the mask. */
inline int
maskPopcount(Mask8 m)
{
#ifdef __POPCNT__
    return std::popcount(static_cast<unsigned>(m));
#else
    return detail::mask_popcount_table[m];
#endif
}

/** True if position i (0-based) is set. */
inline bool
maskTest(Mask8 m, int i)
{
    s2ta_assert(i >= 0 && i < 8, "bit index %d", i);
    return (m >> i) & 1u;
}

/** Return the mask with position i set. */
inline Mask8
maskSet(Mask8 m, int i)
{
    s2ta_assert(i >= 0 && i < 8, "bit index %d", i);
    return static_cast<Mask8>(m | (1u << i));
}

/**
 * Rank of a set position: how many set bits strictly precede bit i.
 *
 * This is exactly the compressed-storage slot of the element at
 * expanded position i, and is what the DP1M4 / DP4M8 muxes compute in
 * hardware to steer a compressed operand to a MAC.
 */
inline int
maskRank(Mask8 m, int i)
{
    s2ta_assert(maskTest(m, i), "rank of unset bit %d in mask %02x",
                i, m);
    return std::popcount(static_cast<unsigned>(m & ((1u << i) - 1u)));
}

/**
 * Position (0-based, from LSB) of the n-th set bit, n in
 * [0, popcount). The inverse of maskRank.
 */
inline int
maskNthSetBit(Mask8 m, int n)
{
    s2ta_assert(n >= 0 && n < maskPopcount(m),
                "nth=%d of mask %02x", n, m);
    for (int i = 0; i < 8; ++i) {
        if ((m >> i) & 1u) {
            if (n == 0)
                return i;
            --n;
        }
    }
    s2ta_panic("unreachable");
}

/**
 * Intersection of two positional masks: bit i set iff both operands
 * hold a non-zero at expanded position i. This single AND replaces
 * the per-element match loop of a naive simulator; popcount of the
 * result is the matched-MAC count of the block pair (paper Sec. 5.2).
 */
inline Mask8
maskAnd(Mask8 a, Mask8 b)
{
    return static_cast<Mask8>(a & b);
}

/** Position of the lowest set bit; @p m must be non-zero. */
inline int
maskLowestSetBit(Mask8 m)
{
    return std::countr_zero(static_cast<unsigned>(m));
}

/** Clear the lowest set bit (Kernighan step). */
inline Mask8
maskClearLowest(Mask8 m)
{
    return static_cast<Mask8>(m & (m - 1u));
}

/** Render as Verilog-style literal, e.g. 8'h4D (paper Fig. 8). */
inline std::string
maskToString(Mask8 m)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "8'h%02X", m);
    return std::string(buf);
}

} // namespace s2ta

#endif // S2TA_BASE_BITMASK_HH
