/**
 * @file
 * AVX-512 tier of the DBB kernels: the AVX2 scheme widened to
 * 512-bit registers, plus two feature-gated sub-kernels.
 *
 *  - Intersection row dot (avx512bw + avx512vbmi): EIGHT compressed
 *    blocks per operand expand into one ZMM with a single
 *    masked-zeroing vpermi2b. Eight stride-9 blocks span 72 bytes,
 *    so the two-source permute reads a full 64-byte load plus an
 *    8-byte masked load; the per-block expansion controls come from
 *    the same 256-entry permutation table as the narrower tiers,
 *    pre-packed as uint64 words (fetched with one 8-qword gather)
 *    and offset per block lane. vpermb has no zero-control byte the
 *    way pshufb does — the zeroing k-mask (the concatenation of the
 *    eight block masks) supplies it, so garbage indices on skipped
 *    lanes are never observable. Contraction of the 64 dense INT8
 *    lanes per iteration is one vpdpbusd when the CPU also has
 *    avx512vnni (runtime-probed), else a 512-bit madd tree.
 *  - Dense-mirror dot (avx512vnni): vpdpbusd contracts 64 INT8
 *    pairs per instruction. It multiplies u8 x s8, so the signed
 *    dot is recovered exactly as dp(a ^ 0x80, w) - 128 * dp(1, w);
 *    all arithmetic wraps mod 2^32, bit-identical to the scalar
 *    INT32 accumulation.
 *  - Profile derivation (avx512vpopcntdq + avx512bw): per-vector
 *    nnz from vpopcntq over packed mask words, per-position
 *    histogram updates from vpmovm2b-widened mask bytes.
 *
 * Skipped positions contribute exact zeros and INT32 wraparound
 * addition is order-independent, so every path is bit-identical to
 * the scalar kernels (property-tested in
 * tests/arch/test_gemm_kernels.cc).
 *
 * This translation unit is the only one compiled with AVX-512
 * codegen (every x86-64 build; see CMakeLists.txt). Each
 * sub-kernel probes its own cpuid bits, so a CPU with e.g.
 * avx512bw but no VNNI still gets the intersection kernel while the
 * dense path falls back to SSE2. Like the lower tiers, the SIMD
 * branch must not call inline functions from shared headers: a
 * comdat copy compiled here could be kept by the linker for the
 * whole program and break the runtime fallback on older CPUs.
 */

#include "arch/gemm_kernels.hh"
#include "core/dbb.hh"

#if defined(__AVX512F__) && defined(__AVX512BW__) &&                  \
    defined(__AVX512VBMI__) && defined(__AVX512VNNI__) &&             \
    defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#define S2TA_HAVE_SIMD_AVX512 1
#endif

namespace s2ta {

#ifdef S2TA_HAVE_SIMD_AVX512

namespace {

/**
 * Per-mask expansion permutation packed as one uint64 word: byte i
 * holds rank(mask, i) when bit i is set, 0x80 otherwise. The 0x80
 * filler never survives: the zeroing k-mask clears exactly those
 * lanes. Each tier owns its table copy (see the file comment).
 */
struct ExpandQTable
{
    uint64_t q[256];
};

constexpr ExpandQTable kExpandTable = [] {
    ExpandQTable t{};
    for (unsigned m = 0; m < 256; ++m) {
        uint64_t w = 0;
        unsigned rank = 0;
        for (int i = 0; i < 8; ++i) {
            const uint64_t byte =
                ((m >> i) & 1u) ? rank++ : 0x80u;
            w |= byte << (8 * i);
        }
        t.q[m] = w;
    }
    return t;
}();

/**
 * Byte offset of block j's values within the 8-block group,
 * replicated per byte so one vector add rebases every control byte
 * at once. Ranks are <= 7 and offsets <= 63, so no per-byte sum
 * carries into its neighbor.
 */
alignas(64) constexpr uint64_t kLaneBase[8] = {
    0x0101010101010101ull * 0,  0x0101010101010101ull * 9,
    0x0101010101010101ull * 18, 0x0101010101010101ull * 27,
    0x0101010101010101ull * 36, 0x0101010101010101ull * 45,
    0x0101010101010101ull * 54, 0x0101010101010101ull * 63,
};

/**
 * Expand eight consecutive blocks of one operand into 64 dense INT8
 * lanes (block j in lanes 8j..8j+7). Both operands of a dot product
 * expand with the identical permutation, so lane k of A always
 * meets lane k of W.
 *
 * The zeroing k-mask (the concatenation of the eight block masks)
 * is assembled from eight scalar byte loads — cheap ALU work on the
 * load/int ports — and one vector gather fetches the eight
 * pre-packed control qwords from the 256-entry permutation table.
 * Everything stays off the stack: routing the controls through a
 * local array instead would bounce eight scalar stores into one
 * 64-byte reload, stalling store-to-load forwarding on every call,
 * and an all-vpermb control build (nibble-rank lookups) oversubs
 * the one shuffle port the final permute and any unpack/madd
 * contraction already need.
 */
inline __m512i
expandOct(const DbbBlock *b, uint64_t km)
{
    const char *bytes = reinterpret_cast<const char *>(b);
    // Eight stride-9 blocks span 72 bytes: one full 64-byte source
    // plus an 8-byte masked load (masked-out lanes are not read, so
    // this never touches memory past the row).
    const __m512i src0 = _mm512_loadu_si512(bytes);
    const __m512i src1 = _mm512_maskz_loadu_epi8(
        static_cast<__mmask64>(0xFF), bytes + 64);
    // Masked forms of the widen/gather: same instructions, but GCC
    // 12's unmasked wrappers expand through _mm512_undefined_epi32,
    // which -Werror=maybe-uninitialized rejects.
    const __m512i midx = _mm512_maskz_cvtepu8_epi64(
        static_cast<__mmask8>(0xFF),
        _mm_cvtsi64_si128(static_cast<long long>(km)));
    const __m512i idx = _mm512_add_epi64(
        _mm512_mask_i64gather_epi64(_mm512_setzero_si512(),
                                    static_cast<__mmask8>(0xFF),
                                    midx, kExpandTable.q, 8),
        _mm512_load_si512(kLaneBase));
    return _mm512_maskz_permutex2var_epi8(
        static_cast<__mmask64>(km), src0, idx, src1);
}

/** The eight mask bytes of one block group as one qword: byte j =
 *  b[j].mask. Doubles as expandOct's k-mask and its gather key. */
inline uint64_t
groupMasks(const DbbBlock *b)
{
    uint64_t km = 0;
    for (int j = 0; j < 8; ++j)
        km |= static_cast<uint64_t>(b[j].mask) << (8 * j);
    return km;
}

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

/** Exact INT8x64 dot product folded into an INT32x16 accumulator. */
inline __m512i
maddAccumulate512(__m512i acc, __m512i av, __m512i wv)
{
    const __m512i zero = _mm512_setzero_si512();
    // Sign-extend each INT8 half-lane into INT16 (bytes enter the
    // high half of each word; the arithmetic shift restores sign).
    // unpacklo/hi operate per 128-bit lane on both operands the
    // same way, so products still pair a[i] with w[i].
    const __m512i alo =
        _mm512_srai_epi16(_mm512_unpacklo_epi8(zero, av), 8);
    const __m512i ahi =
        _mm512_srai_epi16(_mm512_unpackhi_epi8(zero, av), 8);
    const __m512i wlo =
        _mm512_srai_epi16(_mm512_unpacklo_epi8(zero, wv), 8);
    const __m512i whi =
        _mm512_srai_epi16(_mm512_unpackhi_epi8(zero, wv), 8);
    acc = _mm512_add_epi32(acc, _mm512_madd_epi16(alo, wlo));
    return _mm512_add_epi32(acc, _mm512_madd_epi16(ahi, whi));
}

/**
 * The madd-tree row dot: works on any avx512bw + avx512vbmi CPU.
 * INT32 wraparound addition is order-independent, so the tree
 * reduction matches the scalar left-to-right sum bit for bit.
 */
int32_t
dotRowMadd(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    __m512i acc = _mm512_setzero_si512();
    int b = 0;
    for (; b + 8 <= nblocks; b += 8) {
        acc = maddAccumulate512(acc,
                                expandOct(a + b, groupMasks(a + b)),
                                expandOct(w + b,
                                          groupMasks(w + b)));
    }
    if (b < nblocks) {
        // 1-7 trailing blocks: pad with all-zero partners instead
        // of touching shared inline helpers (see the file comment).
        DbbBlock tail_a[8] = {};
        DbbBlock tail_w[8] = {};
        for (int t = 0; b + t < nblocks; ++t) {
            tail_a[t] = a[b + t];
            tail_w[t] = w[b + t];
        }
        acc = maddAccumulate512(acc,
                                expandOct(tail_a,
                                          groupMasks(tail_a)),
                                expandOct(tail_w,
                                          groupMasks(tail_w)));
    }
    return reduceAdd512(acc);
}

/**
 * The VNNI row dot: expansion as above, contraction folded into one
 * vpdpbusd per operand pair instead of the four-unpack/two-madd
 * tree — the tree's shuffles compete with the expansion permutes
 * for the single 512-bit shuffle port, while vpdpbusd issues on the
 * FMA ports. Signedness is recovered with the same exact identity
 * as dbbDenseDotVnni: dp(a ^ 0x80, w) - 128 * dp(1, w) mod 2^32.
 * The bias turns a zeroed (masked-out) activation lane into 128,
 * but that lane's weight partner is a matched-position zero only
 * when the weight mask bit is also clear — not in general — so the
 * correction term must use the EXPANDED weight vector's column sum,
 * which counts exactly the lanes the biased product saw. Both
 * accumulators wrap mod 2^32, so the result is bit-identical to the
 * scalar rank-gather loop.
 */
int32_t
dotRowVnni(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    const __m512i bias = _mm512_set1_epi8(static_cast<char>(0x80));
    const __m512i ones = _mm512_set1_epi8(1);
    __m512i acc = _mm512_setzero_si512();
    __m512i wsum = _mm512_setzero_si512();
    int b = 0;
    for (; b + 8 <= nblocks; b += 8) {
        const __m512i av = expandOct(a + b, groupMasks(a + b));
        const __m512i wv = expandOct(w + b, groupMasks(w + b));
        acc = _mm512_dpbusd_epi32(acc, _mm512_xor_si512(av, bias),
                                  wv);
        wsum = _mm512_dpbusd_epi32(wsum, ones, wv);
    }
    if (b < nblocks) {
        DbbBlock tail_a[8] = {};
        DbbBlock tail_w[8] = {};
        for (int t = 0; b + t < nblocks; ++t) {
            tail_a[t] = a[b + t];
            tail_w[t] = w[b + t];
        }
        const __m512i av = expandOct(tail_a, groupMasks(tail_a));
        const __m512i wv = expandOct(tail_w, groupMasks(tail_w));
        acc = _mm512_dpbusd_epi32(acc, _mm512_xor_si512(av, bias),
                                  wv);
        wsum = _mm512_dpbusd_epi32(wsum, ones, wv);
    }
    const uint32_t biased = static_cast<uint32_t>(reduceAdd512(acc));
    const uint32_t col_sum =
        static_cast<uint32_t>(reduceAdd512(wsum));
    return static_cast<int32_t>(biased - 128u * col_sum);
}

} // anonymous namespace

int32_t
dbbDotRowAvx512(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    // The intersection kernel's probe requires only bw + vbmi; the
    // faster vpdpbusd contraction is a runtime upgrade on CPUs that
    // also have avx512vnni (one perfectly-predicted branch per row).
    static const bool vnni = dbbVnniKernelSupportedImpl();
    return vnni ? dotRowVnni(a, w, nblocks)
                : dotRowMadd(a, w, nblocks);
}

bool
dbbAvx512KernelSupportedImpl()
{
    return __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vbmi");
}

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
    return __builtin_cpu_supports("avx512vnni");
}

int64_t
dbbProfileVectorAvx512(const DbbBlock *blocks, int nblocks,
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
        const DbbBlock *blk = blocks + g * 8;
        uint64_t km = 0;
        for (int j = 0; j < 8; ++j)
            km |= static_cast<uint64_t>(blk[j].mask) << (8 * j);
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
        unsigned m = blocks[b].mask;
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
    return __builtin_cpu_supports("avx512vpopcntdq") &&
           __builtin_cpu_supports("avx512bw");
}

#else // !S2TA_HAVE_SIMD_AVX512

// Built for a target without AVX-512 codegen (non-x86): keep the
// symbols so the dispatcher links, but report every sub-feature
// unavailable — dbbActiveKernel() then falls through to the
// AVX2/SSSE3 tiers or the scalar path and these aliases are never
// called in anger.
int32_t
dbbDotRowAvx512(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    return dbbDotRow(a, w, nblocks);
}

bool
dbbAvx512KernelSupportedImpl()
{
    return false;
}

int32_t
dbbDenseDotVnni(const int8_t *a, const int8_t *w, int k)
{
    int32_t sum = 0;
    for (int x = 0; x < k; ++x)
        sum += static_cast<int32_t>(a[x]) * w[x];
    return sum;
}

bool
dbbVnniKernelSupportedImpl()
{
    return false;
}

int64_t
dbbProfileVectorAvx512(const DbbBlock *blocks, int nblocks,
                       int32_t *hist, int hist_len)
{
    (void)hist_len;
    int64_t nnz = 0;
    for (int b = 0; b < nblocks; ++b) {
        unsigned m = blocks[b].mask;
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
    return false;
}

#endif // S2TA_HAVE_SIMD_AVX512

} // namespace s2ta
