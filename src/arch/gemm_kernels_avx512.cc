/**
 * @file
 * AVX-512 tier of the DBB kernels, plus the cpuid probes of every
 * tier.
 *
 * The dense dot (avx512bw + avx512vnni): vpdpbusd contracts 64 INT8
 * pairs per instruction. It multiplies u8 x s8, so the signed dot is
 * recovered exactly as dp(a ^ 0x80, w) - 128 * dp(1, w); all
 * arithmetic wraps mod 2^32, bit-identical to the scalar INT32
 * accumulation. It is property-tested against a scalar loop in
 * tests/arch/test_gemm_kernels.cc.
 *
 * This translation unit is the only one compiled with AVX-512
 * codegen (every x86-64 build; see CMakeLists.txt); the dot runs
 * only where its cpuid probe passes, and the SSE2 dot serves every
 * other CPU. The SIMD branch must not call inline functions from
 * shared headers: a comdat copy compiled here could be kept by the
 * linker for the whole program and break the runtime fallback on
 * older CPUs.
 */

#include "arch/gemm_kernels.hh"

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                  \
    defined(__AVX512VNNI__)
#include <immintrin.h>
#define S2TA_HAVE_SIMD_AVX512 1
#endif

namespace s2ta {

#ifdef S2TA_HAVE_SIMD_AVX512

namespace {

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
    return dbbVnniKernelSupportedImpl();
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

bool dbbVnniKernelSupportedImpl() { return false; }
bool dbbSimdKernelSupportedImpl() { return false; }
bool dbbAvx2KernelSupportedImpl() { return false; }
bool dbbAvx512KernelSupportedImpl() { return false; }

#endif // S2TA_HAVE_SIMD_AVX512

} // namespace s2ta
