/**
 * @file
 * AVX-512 tier of the DBB kernels, plus the cpuid probes of every
 * tier.
 *
 * The contraction (avx512bw + avx512vnni) runs register tiles of up
 * to 4 rows x 32 columns over the packed weight panels: per quad of
 * K, two 64-byte panel loads and one 4-byte broadcast per row feed
 * 8 vpdpbusd, each contracting 16 columns x 4 INT8 pairs. vpdpbusd
 * multiplies u8 x s8, so the activations enter XORed with 0x80 and
 * the signed dot is recovered exactly as dp(a ^ 0x80, w) -
 * 128 * colsum(w), once per tile; all arithmetic wraps mod 2^32,
 * bit-identical to the scalar INT32 accumulation. It is
 * property-tested against gemmReference in
 * tests/arch/test_gemm_kernels.cc.
 *
 * This translation unit is the only one compiled with AVX-512
 * codegen (every x86-64 build; see CMakeLists.txt); the contraction
 * runs only where its cpuid probe passes, and the SSE2 tile serves
 * every other CPU. The SIMD branch must not call inline functions
 * from shared headers: a comdat copy compiled here could be kept by
 * the linker for the whole program and break the runtime fallback on
 * older CPUs.
 */

#include "arch/gemm_kernels.hh"

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                  \
    defined(__AVX512VNNI__)
#include <immintrin.h>
#define S2TA_HAVE_SIMD_AVX512 1
#else
#include <cstdlib>
#endif

namespace s2ta {

#ifdef S2TA_HAVE_SIMD_AVX512

namespace {

/** The @p len <= 4 activation bytes at @p a as one little-endian
 *  word, XORed with 0x80 per byte; bytes past len read as zero
 *  before the XOR, so they meet zero-padded weights. A whole quad
 *  is one 4-byte load; a K tail is read byte by byte, so nothing
 *  past the row's K values is loaded. */
inline int
biasedQuad(const int8_t *a, int len)
{
    uint32_t v = 0;
    if (len == 4) {
        __builtin_memcpy(&v, a, 4);
    } else {
        for (int b = 0; b < len; ++b)
            v |= static_cast<uint32_t>(static_cast<uint8_t>(a[b]))
                 << (8 * b);
    }
    return static_cast<int>(v ^ 0x80808080u);
}

/**
 * One tile of R rows x NP panels: accumulate every quad of K, then
 * subtract 128 x each column's sum and store the tile's live
 * columns (@p cols of them, counted from the first panel).
 */
template <int R, int NP>
inline void
vnniTile(const int8_t *a, size_t lda, int k, const int8_t *panel,
         size_t stride, int cols, int32_t *out, size_t ldc)
{
    const int full = k / 4;
    const int tail = k % 4;
    __m512i acc[R][NP];
    for (int r = 0; r < R; ++r)
        for (int p = 0; p < NP; ++p)
            acc[r][p] = _mm512_setzero_si512();
    const auto step = [&](int q, const int *bias_a) {
        __m512i w[NP];
        for (int p = 0; p < NP; ++p)
            w[p] = _mm512_load_si512(panel + p * stride +
                                     static_cast<size_t>(q) * kQuadBytes);
        for (int r = 0; r < R; ++r) {
            const __m512i av = _mm512_set1_epi32(bias_a[r]);
            for (int p = 0; p < NP; ++p)
                acc[r][p] = _mm512_dpbusd_epi32(acc[r][p], av, w[p]);
        }
    };
    for (int q = 0; q < full; ++q) {
        int bias_a[R];
        for (int r = 0; r < R; ++r)
            bias_a[r] = biasedQuad(a + r * lda + 4 * q, 4);
        step(q, bias_a);
    }
    if (tail != 0) {
        int bias_a[R];
        for (int r = 0; r < R; ++r)
            bias_a[r] = biasedQuad(a + r * lda + 4 * full, tail);
        step(full, bias_a);
    }
    const size_t sums_at = static_cast<size_t>(full + (tail != 0)) *
                           kQuadBytes;
    for (int p = 0; p < NP; ++p) {
        // 128 x colsum. The zero-masking shift: GCC's unmasked
        // _mm512_slli_epi32 expands through _mm512_undefined_epi32,
        // which -Werror=uninitialized rejects.
        const __m512i corr = _mm512_maskz_slli_epi32(
            static_cast<__mmask16>(0xFFFF),
            _mm512_load_si512(panel + p * stride + sums_at), 7);
        const int live = cols - p * kPanelCols;
        const __mmask16 keep =
            live >= kPanelCols
                ? static_cast<__mmask16>(0xFFFF)
                : static_cast<__mmask16>((1u << live) - 1u);
        for (int r = 0; r < R; ++r) {
            _mm512_mask_storeu_epi32(out + r * ldc + p * kPanelCols, keep,
                                     _mm512_sub_epi32(acc[r][p], corr));
        }
    }
}

template <int NP>
inline void
vnniColumnTile(const int8_t *a, size_t lda, int rows, int k,
               const int8_t *panel, size_t stride, int cols,
               int32_t *out, size_t ldc)
{
    int i = 0;
    for (; i + 4 <= rows; i += 4)
        vnniTile<4, NP>(a + i * lda, lda, k, panel, stride, cols,
                        out + i * ldc, ldc);
    switch (rows - i) {
      case 3:
        vnniTile<3, NP>(a + i * lda, lda, k, panel, stride, cols,
                        out + i * ldc, ldc);
        break;
      case 2:
        vnniTile<2, NP>(a + i * lda, lda, k, panel, stride, cols,
                        out + i * ldc, ldc);
        break;
      case 1:
        vnniTile<1, NP>(a + i * lda, lda, k, panel, stride, cols,
                        out + i * ldc, ldc);
        break;
      default:
        break;
    }
}

} // anonymous namespace

void
dbbPackedGemmVnni(const int8_t *a, size_t lda, int rows, int k,
                  const int8_t *panels, int n, int32_t *out, size_t ldc)
{
    // packedPanelStride(k), spelled out: this unit calls no inline
    // function of a shared header.
    const size_t stride =
        (static_cast<size_t>((k + 3) / 4) + 1) * kQuadBytes;
    for (int j = 0; j < n; j += 2 * kPanelCols) {
        const int8_t *panel = panels + (j / kPanelCols) * stride;
        const int cols = n - j;
        if (cols > kPanelCols)
            vnniColumnTile<2>(a, lda, rows, k, panel, stride, cols,
                              out + j, ldc);
        else
            vnniColumnTile<1>(a, lda, rows, k, panel, stride, cols,
                              out + j, ldc);
    }
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
// unavailable — dispatch then never calls the contraction.
void
dbbPackedGemmVnni(const int8_t *, size_t, int, int, const int8_t *,
                  int, int32_t *, size_t)
{
    std::abort();
}

bool dbbVnniKernelSupportedImpl() { return false; }
bool dbbSimdKernelSupportedImpl() { return false; }
bool dbbAvx2KernelSupportedImpl() { return false; }
bool dbbAvx512KernelSupportedImpl() { return false; }

#endif // S2TA_HAVE_SIMD_AVX512

} // namespace s2ta
