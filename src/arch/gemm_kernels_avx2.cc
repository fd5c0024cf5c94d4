/**
 * @file
 * AVX2 tier of the mask-intersection row dot product: the SSSE3
 * scheme (gemm_kernels_v2.cc) widened to 256-bit registers.
 *
 * vpshufb shuffles within each 128-bit lane independently, which is
 * exactly the structure the DBB expansion needs: each lane expands
 * two compressed blocks with the same 256-entry permutation table
 * as the SSSE3 kernel, so one shuffle now expands FOUR blocks per
 * operand — twice the batch — and one vpmaddwd tree contracts all
 * 32 dense INT8 lanes. Skipped positions contribute exact zeros and
 * INT32 wraparound addition is order-independent, so the result is
 * bit-identical to dbbDotRow and to the SSSE3 tier (property-tested
 * in tests/arch/test_gemm_kernels.cc).
 *
 * This translation unit is the only one compiled with AVX2 codegen
 * (every x86-64 build; see CMakeLists.txt — each tier probes its own
 * cpuid bit). Callers reach it through dbbActiveKernel()'s runtime
 * dispatch, which prefers this tier, then SSSE3, then scalar. Like
 * the SSSE3 TU, the SIMD branch must not call inline functions from
 * shared headers: a comdat copy compiled here could be kept by the
 * linker for the whole program and break the runtime fallback on
 * older CPUs. The odd tail therefore pads with all-zero partner blocks
 * (mask 0 expands to all-zero lanes, contributing exact zeros).
 */

#include "arch/gemm_kernels.hh"
#include "core/dbb.hh"

#ifdef __AVX2__
#include <immintrin.h>
#endif

namespace s2ta {

#ifdef __AVX2__

namespace {

/**
 * Per-mask pshufb control expanding compressed storage to dense
 * lanes: byte i holds rank(mask, i) when bit i is set, 0x80 (lane
 * zeroed by pshufb) otherwise. Same table as the SSSE3 tier; each
 * TU owns its copy so neither depends on symbols compiled under the
 * other's ISA.
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
 * Expand two consecutive blocks into one 128-bit half (block b0 in
 * lanes 0-7, b1 in 8-15), exactly the SSSE3 expandPair layout. The
 * upper control bytes are offset by 8 to index b1's values in the
 * combined register; 0x80 zero-lanes stay >= 0x80 under the OR, so
 * the shuffle still clears them.
 */
inline __m128i
expandPair128(const DbbBlock &b0, const DbbBlock &b1)
{
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

/**
 * Expand four consecutive blocks of one operand into 32 dense INT8
 * lanes: blocks 0-1 fill the low 128-bit lane, blocks 2-3 the high
 * one. Both operands of a dot product expand with the identical
 * permutation, so lane k of A always meets lane k of W.
 */
inline __m256i
expandQuad(const DbbBlock *b)
{
    return _mm256_set_m128i(expandPair128(b[2], b[3]),
                            expandPair128(b[0], b[1]));
}

/** Exact INT8x32 dot product folded into an INT32x8 accumulator. */
inline __m256i
maddAccumulate(__m256i acc, __m256i av, __m256i wv)
{
    const __m256i zero = _mm256_setzero_si256();
    // Sign-extend each INT8 half-lane into INT16 (bytes enter the
    // high half of each word; the arithmetic shift restores sign).
    // unpacklo/hi operate per 128-bit lane on both operands the
    // same way, so products still pair a[i] with w[i].
    const __m256i alo =
        _mm256_srai_epi16(_mm256_unpacklo_epi8(zero, av), 8);
    const __m256i ahi =
        _mm256_srai_epi16(_mm256_unpackhi_epi8(zero, av), 8);
    const __m256i wlo =
        _mm256_srai_epi16(_mm256_unpacklo_epi8(zero, wv), 8);
    const __m256i whi =
        _mm256_srai_epi16(_mm256_unpackhi_epi8(zero, wv), 8);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, wlo));
    return _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, whi));
}

} // anonymous namespace

int32_t
dbbDotRowAvx2(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    __m256i acc = _mm256_setzero_si256();
    int b = 0;
    for (; b + 4 <= nblocks; b += 4) {
        acc = maddAccumulate(acc, expandQuad(a + b),
                             expandQuad(w + b));
    }
    if (b < nblocks) {
        // 1-3 trailing blocks: pad with all-zero partners instead
        // of touching shared inline helpers (see the file comment).
        DbbBlock tail_a[4] = {};
        DbbBlock tail_w[4] = {};
        for (int t = 0; b + t < nblocks; ++t) {
            tail_a[t] = a[b + t];
            tail_w[t] = w[b + t];
        }
        acc = maddAccumulate(acc, expandQuad(tail_a),
                             expandQuad(tail_w));
    }
    alignas(32) int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
           lanes[5] + lanes[6] + lanes[7];
}

bool
dbbAvx2KernelSupportedImpl()
{
    return __builtin_cpu_supports("avx2");
}

#else // !__AVX2__

// Built for a target without AVX2 codegen (non-x86): keep the
// symbols so the dispatcher links, but report the tier unavailable
// — dbbActiveKernel() then falls through to the SSSE3 tier or the
// scalar path and this alias is never called in anger.
int32_t
dbbDotRowAvx2(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    return dbbDotRow(a, w, nblocks);
}

bool
dbbAvx2KernelSupportedImpl()
{
    return false;
}

#endif // __AVX2__

} // namespace s2ta
