/**
 * @file
 * SSSE3 implementation of the mask-intersection row dot product.
 *
 * The scalar kernel walks the AND of the two positional masks and
 * gathers each matched value by rank — O(matched nnz) work but a
 * serial dependency chain of popcounts and byte loads per match.
 * This kernel inverts the trade: each compressed block is expanded
 * to its dense 8-lane form with a single pshufb whose shuffle
 * control is the mask's expansion permutation (a 256-entry constant
 * table: lane i reads stored slot rank(mask, i) when bit i is set
 * and zeroes otherwise, exactly the steering the DP1M4/DP4M8 mux
 * network computes in hardware, Fig. 6). Two blocks per operand are
 * expanded per iteration and contracted with the same sign-extend +
 * pmaddwd tree as the dense kernel. Skipped positions contribute
 * exact zeros and INT32 wraparound addition is order-independent,
 * so the result is bit-identical to dbbDotRow.
 *
 * This translation unit is the only one compiled with SSSE3 codegen
 * (every x86-64 build; see CMakeLists.txt); callers reach it through
 * dbbActiveKernel()'s runtime dispatch, which consults the cpuid
 * probe below and falls back to the scalar kernel on older CPUs.
 */

#include "arch/gemm_kernels.hh"
#include "core/dbb.hh"

#ifdef __SSSE3__
#include <tmmintrin.h>
#endif

namespace s2ta {

#ifdef __SSSE3__

namespace {

/**
 * Per-mask pshufb control expanding compressed storage to dense
 * lanes: byte i holds rank(mask, i) when bit i is set, 0x80 (lane
 * zeroed by pshufb) otherwise.
 */
struct ExpandTable
{
    alignas(16) uint8_t ctrl[256][8];
};

constexpr ExpandTable kExpand = [] {
    ExpandTable t{};
    for (unsigned m = 0; m < 256; ++m) {
        unsigned rank = 0;
        for (int i = 0; i < 8; ++i) {
            if ((m >> i) & 1u)
                t.ctrl[m][i] = static_cast<uint8_t>(rank++);
            else
                t.ctrl[m][i] = 0x80;
        }
    }
    return t;
}();

/**
 * Expand two consecutive blocks of one operand into a 16-byte
 * dense vector: block b0 in lanes 0-7, block b1 in lanes 8-15.
 * The upper control bytes are offset by 8 to index b1's values in
 * the combined register; 0x80 zero-lanes stay >= 0x80 under the OR,
 * so pshufb still clears them.
 */
inline __m128i
expandPair(const DbbBlock &b0, const DbbBlock &b1)
{
    // &values (not values.data()): even a trivial std::array
    // accessor instantiated here would be a comdat compiled under
    // this TU's raised ISA — see the note in dbbDotRowSimdV2.
    const __m128i vals = _mm_unpacklo_epi64(
        _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(&b0.values)),
        _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(&b1.values)));
    const __m128i ctrl = _mm_or_si128(
        _mm_unpacklo_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                kExpand.ctrl[b0.mask])),
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                kExpand.ctrl[b1.mask]))),
        _mm_set_epi64x(0x0808080808080808ll, 0));
    return _mm_shuffle_epi8(vals, ctrl);
}

/** Exact INT8x16 dot product folded into an INT32x4 accumulator. */
inline __m128i
maddAccumulate(__m128i acc, __m128i av, __m128i wv)
{
    const __m128i zero = _mm_setzero_si128();
    const __m128i alo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, av), 8);
    const __m128i ahi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, av), 8);
    const __m128i wlo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, wv), 8);
    const __m128i whi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, wv), 8);
    acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, wlo));
    return _mm_add_epi32(acc, _mm_madd_epi16(ahi, whi));
}

} // anonymous namespace

int32_t
dbbDotRowSimdV2(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    // NOTE: this branch must not call inline functions from shared
    // headers (dbbDotBlocks, maskPopcount, ...): their comdat
    // copies would be compiled with this TU's raised ISA and the
    // linker may keep them for the whole program, breaking the
    // runtime scalar fallback on pre-SSSE3 CPUs. The odd tail
    // therefore reuses the SIMD path with an all-zero partner
    // block (mask 0 expands to all-zero lanes, contributing exact
    // zeros).
    __m128i acc = _mm_setzero_si128();
    int b = 0;
    for (; b + 2 <= nblocks; b += 2) {
        acc = maddAccumulate(acc, expandPair(a[b], a[b + 1]),
                             expandPair(w[b], w[b + 1]));
    }
    if (b < nblocks) {
        const DbbBlock zero{};
        acc = maddAccumulate(acc, expandPair(a[b], zero),
                             expandPair(w[b], zero));
    }
    alignas(16) int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i *>(lanes), acc);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

bool
dbbSimdKernelSupportedImpl()
{
    return __builtin_cpu_supports("ssse3");
}

#else // !__SSSE3__

// Built for a target without SSSE3 codegen (non-x86): keep the
// symbols so the dispatcher links, but report the kernel
// unavailable — dbbActiveKernel() then always picks the scalar
// path and this alias is never called in anger.
int32_t
dbbDotRowSimdV2(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    return dbbDotRow(a, w, nblocks);
}

bool
dbbSimdKernelSupportedImpl()
{
    return false;
}

#endif // __SSSE3__

} // namespace s2ta
