/**
 * @file
 * AVX-512 tier of the DBB kernels: two feature-gated sub-kernels,
 * plus the cpuid probes of every tier.
 *
 *  - Dense dot (avx512bw + avx512vnni): vpdpbusd contracts 64 INT8
 *    pairs per instruction. It multiplies u8 x s8, so the signed
 *    dot is recovered exactly as dp(a ^ 0x80, w) - 128 * dp(1, w);
 *    all arithmetic wraps mod 2^32, bit-identical to the scalar
 *    INT32 accumulation.
 *  - Profile derivation (avx512bw + avx512vpopcntdq): per-vector
 *    nnz from vpopcntq over packed mask words, per-position
 *    histogram updates from vpmovm2b-widened mask bytes.
 *
 * Both are property-tested against scalar loops in
 * tests/arch/test_gemm_kernels.cc.
 *
 * This translation unit is the only one compiled with AVX-512
 * codegen (every x86-64 build; see CMakeLists.txt). Each
 * sub-kernel probes its own cpuid bits, so a CPU with e.g.
 * avx512bw but no VNNI still gets the profile path while the dense
 * dot falls back to SSE2. The SIMD branch must not call inline
 * functions from shared headers: a comdat copy compiled here could
 * be kept by the linker for the whole program and break the runtime
 * fallback on older CPUs.
 */

#include "arch/gemm_kernels.hh"

#include <cstring>

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                  \
    defined(__AVX512VNNI__) && defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#define S2TA_HAVE_SIMD_AVX512 1
#endif

namespace s2ta {

#ifdef S2TA_HAVE_SIMD_AVX512

namespace {

/**
 * Add one 16-position slice of a group's mask bits into hist[0..15]:
 * @p lane holds the slice as 0/-1 bytes, widened here to 0/-1 INT32
 * lanes and subtracted (x - (-1) == x + 1). The maskz form with an
 * all-ones mask is the same instruction as the plain variant, but
 * its expansion avoids the _mm*_undefined_* helpers
 * -Werror=uninitialized rejects.
 */
inline void
countSlice(int32_t *hist, __m128i lane)
{
    const __m512i wide = _mm512_maskz_cvtepi8_epi32(
        static_cast<__mmask16>(0xFFFF), lane);
    _mm512_storeu_si512(
        hist, _mm512_sub_epi32(_mm512_loadu_si512(hist), wide));
}

/**
 * Horizontal INT32x16 sum with wraparound. GCC's
 * _mm512_reduce_add_epi32 expands through _mm256_undefined_si256,
 * which -Werror=uninitialized rejects; the store-and-sum form below
 * compiles to the same shuffle tree and keeps the mod-2^32 wrap
 * well-defined by accumulating unsigned.
 */
inline int32_t
reduceAdd512(__m512i v)
{
    alignas(64) int32_t lane[16];
    _mm512_store_si512(lane, v);
    uint32_t sum = 0;
    for (int i = 0; i < 16; ++i)
        sum += static_cast<uint32_t>(lane[i]);
    return static_cast<int32_t>(sum);
}

} // anonymous namespace

int32_t
dbbDenseDotVnni(const int8_t *a, const int8_t *w, int k)
{
    const __m512i bias = _mm512_set1_epi8(
        static_cast<char>(0x80));
    const __m512i ones = _mm512_set1_epi8(1);
    __m512i acc = _mm512_setzero_si512();
    __m512i wsum = _mm512_setzero_si512();
    int x = 0;
    for (; x + 64 <= k; x += 64) {
        const __m512i av = _mm512_loadu_si512(a + x);
        const __m512i wv = _mm512_loadu_si512(w + x);
        acc = _mm512_dpbusd_epi32(acc, _mm512_xor_si512(av, bias),
                                  wv);
        wsum = _mm512_dpbusd_epi32(wsum, ones, wv);
    }
    if (x < k) {
        // Masked tail: a zero-filled lane biases to exactly 128 but
        // meets a zero weight, so both dot products gain nothing.
        const __mmask64 tail =
            (~static_cast<uint64_t>(0)) >>
            (64 - static_cast<unsigned>(k - x));
        const __m512i av = _mm512_maskz_loadu_epi8(tail, a + x);
        const __m512i wv = _mm512_maskz_loadu_epi8(tail, w + x);
        acc = _mm512_dpbusd_epi32(acc, _mm512_xor_si512(av, bias),
                                  wv);
        wsum = _mm512_dpbusd_epi32(wsum, ones, wv);
    }
    // dp(a + 128, w) - 128 * dp(1, w) == dp(a, w) mod 2^32; do the
    // correction in unsigned arithmetic so the wrap is well-defined.
    const uint32_t biased = static_cast<uint32_t>(reduceAdd512(acc));
    const uint32_t col_sum =
        static_cast<uint32_t>(reduceAdd512(wsum));
    return static_cast<int32_t>(biased - 128u * col_sum);
}

bool
dbbVnniKernelSupportedImpl()
{
    return __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vnni");
}

int64_t
dbbProfileVectorAvx512(const uint8_t *masks, int nblocks,
                       int32_t *hist, int hist_len)
{
    // Only 8-block groups whose full 64-position window fits in the
    // histogram take the SIMD path; K's tail blocks (positions that
    // would index past hist_len) stay on the per-bit loop below.
    int simd_groups = nblocks / 8;
    if (simd_groups > hist_len / 64)
        simd_groups = hist_len / 64;

    __m512i nnz_acc = _mm512_setzero_si512();
    alignas(64) uint64_t words[8];
    int wi = 0;
    for (int g = 0; g < simd_groups; ++g) {
        uint64_t km;
        std::memcpy(&km, masks + g * 8, 8);
        words[wi++] = km;
        if (wi == 8) {
            nnz_acc = _mm512_add_epi64(
                nnz_acc,
                _mm512_popcnt_epi64(_mm512_load_si512(words)));
            wi = 0;
        }
        // Widen the 64 mask bits to 0/-1 bytes and count them into
        // the histogram 16 positions at a time. The extract's lane
        // index must be an immediate at every optimization level, so
        // the four slices are spelled out rather than looped.
        const __m512i bytes =
            _mm512_movm_epi8(static_cast<__mmask64>(km));
        const __mmask8 all = 0xF;
        int32_t *h = hist + g * 64;
        countSlice(h, _mm512_maskz_extracti32x4_epi32(all, bytes, 0));
        countSlice(h + 16,
                   _mm512_maskz_extracti32x4_epi32(all, bytes, 1));
        countSlice(h + 32,
                   _mm512_maskz_extracti32x4_epi32(all, bytes, 2));
        countSlice(h + 48,
                   _mm512_maskz_extracti32x4_epi32(all, bytes, 3));
    }
    if (wi > 0) {
        for (int z = wi; z < 8; ++z)
            words[z] = 0;
        nnz_acc = _mm512_add_epi64(
            nnz_acc, _mm512_popcnt_epi64(_mm512_load_si512(words)));
    }
    alignas(64) int64_t nnz_lane[8];
    _mm512_store_si512(nnz_lane, nnz_acc);
    int64_t nnz = 0;
    for (int i = 0; i < 8; ++i)
        nnz += nnz_lane[i]; // popcounts: no overflow possible


    for (int b = simd_groups * 8; b < nblocks; ++b) {
        unsigned m = masks[b];
        nnz += __builtin_popcount(m);
        while (m != 0) {
            ++hist[b * 8 + __builtin_ctz(m)];
            m &= m - 1;
        }
    }
    return nnz;
}

bool
dbbVpopcntKernelSupportedImpl()
{
    return __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vpopcntdq");
}

bool
dbbSimdKernelSupportedImpl()
{
    return __builtin_cpu_supports("ssse3");
}

bool
dbbAvx2KernelSupportedImpl()
{
    return __builtin_cpu_supports("avx2");
}

bool
dbbAvx512KernelSupportedImpl()
{
    return dbbVnniKernelSupportedImpl() ||
           dbbVpopcntKernelSupportedImpl();
}

#else // !S2TA_HAVE_SIMD_AVX512

// Built for a target without AVX-512 codegen (non-x86): keep the
// symbols so the dispatcher links, but report every feature
// unavailable — dispatch then never calls these scalar stand-ins.
int32_t
dbbDenseDotVnni(const int8_t *a, const int8_t *w, int k)
{
    int32_t sum = 0;
    for (int x = 0; x < k; ++x)
        sum += static_cast<int32_t>(a[x]) * w[x];
    return sum;
}

int64_t
dbbProfileVectorAvx512(const uint8_t *masks, int nblocks,
                       int32_t *hist, int hist_len)
{
    (void)hist_len;
    int64_t nnz = 0;
    for (int b = 0; b < nblocks; ++b) {
        unsigned m = masks[b];
        nnz += __builtin_popcount(m);
        while (m != 0) {
            ++hist[b * 8 + __builtin_ctz(m)];
            m &= m - 1;
        }
    }
    return nnz;
}

bool dbbVnniKernelSupportedImpl() { return false; }
bool dbbVpopcntKernelSupportedImpl() { return false; }
bool dbbSimdKernelSupportedImpl() { return false; }
bool dbbAvx2KernelSupportedImpl() { return false; }
bool dbbAvx512KernelSupportedImpl() { return false; }

#endif // S2TA_HAVE_SIMD_AVX512

} // namespace s2ta
