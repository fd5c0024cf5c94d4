#include "arch/gemm_plan.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

#include "arch/gemm_kernels.hh"
#include "base/thread_pool.hh"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace s2ta {

namespace {

/** Forced dispatch ceiling; Avx512 (the widest tier) = unclamped. */
std::atomic<int> kernel_cap{static_cast<int>(DbbKernelKind::Avx512)};

/** Rows per block: a panel meets this many activation rows while
 *  it stays cached (a multiple of every tile's row count). */
constexpr int kRowBlock = 64;

/**
 * Per-output dots of one group, column by column (dbbPackedGemmVnni's
 * arguments, and @p col, k bytes of scratch): each column is
 * gathered from its quads into col once, then met by every row's k
 * contiguous activations in a loop the compiler vectorizes, wrapping
 * mod 2^32. The schedule of a group with one output column, and the
 * contraction of every group off x86.
 */
void
packedDotColumns(const int8_t *a, size_t lda, int rows, int k,
                 const int8_t *panels, int n, int32_t *out, size_t ldc,
                 int8_t *col)
{
    const size_t stride = packedPanelStride(k);
    for (int j = 0; j < n; ++j) {
        const int8_t *wcol =
            panels + (j / kPanelCols) * stride + (j % kPanelCols) * 4;
        for (int kk = 0; kk < k; ++kk)
            col[kk] = wcol[(kk / 4) * kQuadBytes + kk % 4];
        for (int i = 0; i < rows; ++i) {
            const int8_t *row = a + i * lda;
            uint32_t sum = 0;
            for (int kk = 0; kk < k; ++kk)
                sum += static_cast<uint32_t>(row[kk] * col[kk]);
            out[i * ldc + j] = static_cast<int32_t>(sum);
        }
    }
}

#ifdef __SSE2__

/** @p len <= 4 activation bytes at @p a, sign-extended to INT16 and
 *  repeated: [a0 a1 a2 a3 a0 a1 a2 a3], bytes past len read as 0.
 *  Reads nothing past the len bytes. */
inline __m128i
quadPair(const int8_t *a, int len)
{
    uint32_t v = 0;
    if (len == 4) {
        std::memcpy(&v, a, 4);
    } else {
        for (int b = 0; b < len; ++b)
            v |= static_cast<uint32_t>(static_cast<uint8_t>(a[b]))
                 << (8 * b);
    }
    const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(v));
    const __m128i words =
        _mm_srai_epi16(_mm_unpacklo_epi8(_mm_setzero_si128(), bytes), 8);
    return _mm_shuffle_epi32(words, _MM_SHUFFLE(1, 0, 1, 0));
}

/**
 * One SSE2 tile of R rows x 4 columns (the 16 bytes at @p wq of each
 * quad, @p live of them stored): each quad's weight bytes widen to
 * two INT16 vectors of two columns each, and pmaddwd against each
 * row's repeated quad leaves two partial sums per column, folded
 * once per tile. pmaddwd is signed, so no correction is needed.
 */
template <int R>
inline void
sse2Tile(const int8_t *a, size_t lda, int k, const int8_t *wq, int live,
         int32_t *out, size_t ldc)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc[R][2];
    for (int r = 0; r < R; ++r)
        acc[r][0] = acc[r][1] = zero;
    const auto step = [&](int q, int len) {
        const __m128i wv = _mm_load_si128(reinterpret_cast<const __m128i *>(
            wq + static_cast<size_t>(q) * kQuadBytes));
        const __m128i wlo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, wv), 8);
        const __m128i whi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, wv), 8);
        for (int r = 0; r < R; ++r) {
            const __m128i av = quadPair(a + r * lda + 4 * q, len);
            acc[r][0] = _mm_add_epi32(acc[r][0], _mm_madd_epi16(av, wlo));
            acc[r][1] = _mm_add_epi32(acc[r][1], _mm_madd_epi16(av, whi));
        }
    };
    // Two quads at a time: one 8-byte load per row widens to both
    // quads' activations, halving the shuffles per quad.
    const int full = k / 4;
    int q = 0;
    for (; q + 2 <= full; q += 2) {
        __m128i wide[2][2];
        for (int h = 0; h < 2; ++h) {
            const __m128i wv = _mm_load_si128(reinterpret_cast<const __m128i *>(
                wq + static_cast<size_t>(q + h) * kQuadBytes));
            wide[h][0] = _mm_srai_epi16(_mm_unpacklo_epi8(zero, wv), 8);
            wide[h][1] = _mm_srai_epi16(_mm_unpackhi_epi8(zero, wv), 8);
        }
        for (int r = 0; r < R; ++r) {
            const __m128i bytes = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(a + r * lda + 4 * q));
            const __m128i words =
                _mm_srai_epi16(_mm_unpacklo_epi8(zero, bytes), 8);
            const __m128i av[2] = {
                _mm_shuffle_epi32(words, _MM_SHUFFLE(1, 0, 1, 0)),
                _mm_shuffle_epi32(words, _MM_SHUFFLE(3, 2, 3, 2))};
            for (int h = 0; h < 2; ++h) {
                acc[r][0] = _mm_add_epi32(acc[r][0],
                                          _mm_madd_epi16(av[h], wide[h][0]));
                acc[r][1] = _mm_add_epi32(acc[r][1],
                                          _mm_madd_epi16(av[h], wide[h][1]));
            }
        }
    }
    if (q < full)
        step(q, 4);
    if (k % 4 != 0)
        step(full, k % 4);
    for (int r = 0; r < R; ++r) {
        // [c0 c0 c1 c1] and [c2 c2 c3 c3] fold to [c0 c1 c2 c3].
        const __m128 lo = _mm_castsi128_ps(acc[r][0]);
        const __m128 hi = _mm_castsi128_ps(acc[r][1]);
        const __m128i sum = _mm_add_epi32(
            _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0))),
            _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1))));
        int32_t *o = out + r * ldc;
        if (live >= 4) {
            _mm_storeu_si128(reinterpret_cast<__m128i *>(o), sum);
        } else {
            alignas(16) int32_t lanes[4];
            _mm_store_si128(reinterpret_cast<__m128i *>(lanes), sum);
            for (int c = 0; c < live; ++c)
                o[c] = lanes[c];
        }
    }
}

/** The SSE2 contraction of one group (dbbPackedGemmVnni's
 *  arguments): 4-column strips of each panel, 4 rows at a time. */
void
packedGemmSse2(const int8_t *a, size_t lda, int rows, int k,
               const int8_t *panels, int n, int32_t *out, size_t ldc)
{
    const size_t stride = packedPanelStride(k);
    for (int j = 0; j < n; j += 4) {
        const int8_t *wq =
            panels + (j / kPanelCols) * stride + (j % kPanelCols) * 4;
        const int live = n - j;
        int i = 0;
        for (; i + 4 <= rows; i += 4)
            sse2Tile<4>(a + i * lda, lda, k, wq, live, out + i * ldc + j,
                        ldc);
        for (; i < rows; ++i)
            sse2Tile<1>(a + i * lda, lda, k, wq, live, out + i * ldc + j,
                        ldc);
    }
}

/** Rows 4q..4q+3 of a panel's 16 columns (@p v) as the panel's quad
 *  at @p dst: byte pairs of rows 0|1 and 2|3, then word pairs of
 *  those, so each 16 bytes out are 4 columns' quads. */
inline void
interleaveQuad(const __m128i v[4], int8_t *dst)
{
    const __m128i lo01 = _mm_unpacklo_epi8(v[0], v[1]);
    const __m128i hi01 = _mm_unpackhi_epi8(v[0], v[1]);
    const __m128i lo23 = _mm_unpacklo_epi8(v[2], v[3]);
    const __m128i hi23 = _mm_unpackhi_epi8(v[2], v[3]);
    __m128i *out = reinterpret_cast<__m128i *>(dst);
    _mm_store_si128(out, _mm_unpacklo_epi16(lo01, lo23));
    _mm_store_si128(out + 1, _mm_unpackhi_epi16(lo01, lo23));
    _mm_store_si128(out + 2, _mm_unpacklo_epi16(hi01, hi23));
    _mm_store_si128(out + 3, _mm_unpackhi_epi16(hi01, hi23));
}

/** Add the 16 columns of 4 rows (@p v) to @p sums, wrapping mod
 *  2^32: the rows' sum fits INT16, widened once. */
inline void
addColumnSums(const __m128i v[4], uint32_t sums[kPanelCols])
{
    const __m128i zero = _mm_setzero_si128();
    __m128i lo = zero, hi = zero;
    for (int r = 0; r < 4; ++r) {
        lo = _mm_add_epi16(
            lo, _mm_srai_epi16(_mm_unpacklo_epi8(zero, v[r]), 8));
        hi = _mm_add_epi16(
            hi, _mm_srai_epi16(_mm_unpackhi_epi8(zero, v[r]), 8));
    }
    const __m128i wide[4] = {
        _mm_srai_epi32(_mm_unpacklo_epi16(zero, lo), 16),
        _mm_srai_epi32(_mm_unpackhi_epi16(zero, lo), 16),
        _mm_srai_epi32(_mm_unpacklo_epi16(zero, hi), 16),
        _mm_srai_epi32(_mm_unpackhi_epi16(zero, hi), 16)};
    for (int i = 0; i < 4; ++i) {
        __m128i *at = reinterpret_cast<__m128i *>(sums + 4 * i);
        _mm_storeu_si128(at, _mm_add_epi32(_mm_loadu_si128(at), wide[i]));
    }
}

#endif // __SSE2__

/**
 * Run @p rows_fn(row_begin, row_end) over [0, m), split into
 * kStripeRows-row stripes across the pool (or in one serial call
 * when no pool is given). Stripes write disjoint rows, so
 * scheduling order cannot affect the result.
 */
template <typename RowsFn>
void
forRowStripes(int m, ThreadPool *pool, const RowsFn &rows_fn)
{
    // One row block of 4-row tiles: short enough that a 512-row
    // GEMM gives every lane of a 4-lane pool two stripes, long
    // enough that dispatch stays invisible.
    constexpr int64_t kStripeRows = kRowBlock;
    if (pool == nullptr) {
        if (m > 0)
            rows_fn(0, m);
        return;
    }
    pool->parallelForStripes(
        m, kStripeRows, [&](int64_t begin, int64_t end) {
            rows_fn(static_cast<int>(begin),
                    static_cast<int>(end));
        });
}

} // anonymous namespace

const char *
dbbKernelKindName(DbbKernelKind kind)
{
    switch (kind) {
      case DbbKernelKind::Scalar: return "scalar";
      case DbbKernelKind::Avx512: return "avx512";
    }
    s2ta_panic("unknown kernel kind");
}

DbbKernelKind
dbbActiveKernel()
{
    // cpuid results cannot change at runtime; memoized.
    static const bool avx512 = dbbAvx512KernelSupportedImpl();
    return avx512 ? dbbKernelCap() : DbbKernelKind::Scalar;
}

void
dbbForceKernelCap(DbbKernelKind cap)
{
    kernel_cap.store(static_cast<int>(cap),
                     std::memory_order_relaxed);
}

DbbKernelKind
dbbKernelCap()
{
    return static_cast<DbbKernelKind>(
        kernel_cap.load(std::memory_order_relaxed));
}

bool
dbbVnniDenseEnabled()
{
    static const bool supported = dbbVnniKernelSupportedImpl();
    return supported && dbbKernelCap() >= DbbKernelKind::Avx512;
}

bool
dbbProfileSimdEnabled()
{
    return false;
}

void
dbbGemm(const GemmPlan &plan, int32_t *out, ThreadPool *shard_pool)
{
    const GemmProblem &p = plan.problem();
    const int8_t *packed = plan.packedWeights();
    const size_t lda = static_cast<size_t>(p.groups) * p.k;
    const size_t ldc = static_cast<size_t>(p.groups) * p.n;
    // Only a compute plan packs weights, and its problem holds the
    // activations; an events-only plan holds neither.
    s2ta_assert(packed != nullptr && p.a.size() == lda * p.m,
                "dbbGemm needs a compute plan (packed weights, and "
                "activations in its problem)");
    const size_t group_bytes =
        static_cast<size_t>((p.n + kPanelCols - 1) / kPanelCols) *
        packedPanelStride(p.k);
    // Every tier wraps mod 2^32, so outputs are bit-identical.
    const bool vnni = dbbVnniDenseEnabled();
    forRowStripes(p.m, shard_pool, [&](int row_begin, int row_end) {
        std::vector<int8_t> col(static_cast<size_t>(p.k));
        for (int i0 = row_begin; i0 < row_end; i0 += kRowBlock) {
            const int rows = std::min(kRowBlock, row_end - i0);
            for (int g = 0; g < p.groups; ++g) {
                const int8_t *a = p.a.data() + i0 * lda +
                                  static_cast<size_t>(g) * p.k;
                const int8_t *panels = packed + g * group_bytes;
                int32_t *o = out + i0 * ldc + static_cast<size_t>(g) * p.n;
                if (p.n == 1) {
                    packedDotColumns(a, lda, rows, p.k, panels, p.n, o, ldc,
                                     col.data());
                } else if (vnni) {
                    dbbPackedGemmVnni(a, lda, rows, p.k, panels, p.n, o,
                                      ldc);
                } else {
#ifdef __SSE2__
                    packedGemmSse2(a, lda, rows, p.k, panels, p.n, o, ldc);
#else
                    packedDotColumns(a, lda, rows, p.k, panels, p.n, o,
                                     ldc, col.data());
#endif
                }
            }
        }
    });
}

namespace {

/**
 * Per-position non-zero counts of an @p nr x @p nc grid of mask
 * vectors of @p nb masks each (block size @p bz): vector (r, c)
 * starts at masks + r * row_stride + c * col_stride, and
 * hist[b*bz + bit] (for positions below @p k) gains the vectors with
 * @p bit set in block b. With kVectorCounts, vector (r, c)'s
 * popcount goes to nz[r * nc + c]. Each byte of a 64-bit word holds
 * one mask, counted at once in byte-wide SWAR counters, one word per
 * bit position, flushed before a byte can wrap: block-column outer,
 * eight blocks of every vector at a time, or, for vectors of fewer
 * than eight blocks (a stem's pixel), 8 / nb vectors per word.
 */
template <bool kVectorCounts>
void
countMaskBits(const Mask8 *masks, int nr, size_t row_stride, int nc,
              size_t col_stride, int nb, int bz, int k, int32_t *hist,
              int32_t *nz)
{
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    if (kVectorCounts)
        std::fill(nz, nz + static_cast<size_t>(nr) * nc, 0);
    // Vectors per word: one when counting per vector.
    const int per = kVectorCounts || nb >= 8 ? 1 : 8 / nb;
    for (int b0 = 0; b0 < nb; b0 += 8) {
        const int len = std::min(8, nb - b0);
        uint64_t acc[8] = {};
        int pending = 0;
        const auto flush = [&] {
            // Byte v * len + b counted block b0 + b of a word's
            // vector v.
            for (int v = 0; v < per; ++v) {
                for (int b = 0; b < len; ++b) {
                    // A tail block's positions past K are never set.
                    const int pos0 = (b0 + b) * bz;
                    const int shift = 8 * (v * len + b);
                    for (int bit = 0; bit < std::min(bz, k - pos0); ++bit) {
                        hist[pos0 + bit] += static_cast<int32_t>(
                            (acc[bit] >> shift) & 0xFF);
                    }
                }
            }
            std::fill(acc, acc + 8, 0);
            pending = 0;
        };
        const auto add = [&](uint64_t w) {
            // Per-byte bit counts: one counter word per bit, and
            // their sum (at most 8 per byte) for the popcount.
            uint64_t sum = 0;
            for (int bit = 0; bit < 8; ++bit) {
                const uint64_t flags = (w >> bit) & kOnes;
                acc[bit] += flags;
                sum += flags;
            }
            if (++pending == 255)
                flush();
            return static_cast<int32_t>((sum * kOnes) >> 56);
        };
        int32_t *vec_nz = nz;
        for (int r = 0; r < nr; ++r) {
            const Mask8 *src = masks + r * row_stride + b0;
            for (int c = 0; c < nc; c += per) {
                uint64_t w = 0;
                if (len == 8) {
                    std::memcpy(&w, src, 8);
                    src += col_stride;
                } else {
                    for (int v = 0; v < std::min(per, nc - c);
                         ++v, src += col_stride) {
                        for (int b = 0; b < len; ++b)
                            w |= uint64_t{src[b]} << (8 * (v * len + b));
                    }
                }
                const int32_t vec_pop = add(w);
                if (kVectorCounts)
                    *vec_nz++ += vec_pop;
            }
        }
        flush();
    }
}

/**
 * countMaskBits over the vectors of @p mat from @p v0 on, @p count of
 * them. With @p pool, a group of more than kChunkMaskBytes of masks
 * is counted in chunks across its lanes: each chunk writes its own
 * vectors' counts and its own position histogram, and the
 * histograms are summed into @p hist in chunk order.
 */
void
countVectors(const DbbMatrix &mat, int v0, int count, int k,
             int32_t *hist, int32_t *nz, ThreadPool *pool)
{
    constexpr int64_t kChunkMaskBytes = int64_t{512} << 10;
    const int nb = mat.blocksPerVector();
    const int bz = mat.spec().bz;
    const int chunk = static_cast<int>(
        std::max<int64_t>(1, kChunkMaskBytes / std::max(nb, 1)));
    const int chunks = (count + chunk - 1) / chunk;
    const auto count_chunk = [&](int first, int n, int32_t *h) {
        countMaskBits<true>(mat.vectorMasks(v0 + first), 1, 0, n,
                            static_cast<size_t>(nb), nb, bz, k, h,
                            nz + first);
    };
    if (pool == nullptr || chunks <= 1) {
        count_chunk(0, count, hist);
        return;
    }
    std::vector<int32_t> part(static_cast<size_t>(chunks - 1) * k, 0);
    pool->parallelFor(chunks, [&](int64_t c) {
        const int first = static_cast<int>(c) * chunk;
        count_chunk(first, std::min(chunk, count - first),
                    c == 0 ? hist : &part[static_cast<size_t>(c - 1) * k]);
    });
    for (int c = 1; c < chunks; ++c) {
        const int32_t *h = &part[static_cast<size_t>(c - 1) * k];
        for (int pos = 0; pos < k; ++pos)
            hist[pos] += h[pos];
    }
}

/** A zeroed profile of one group of @p p, in its modeled K. */
OperandProfile
emptyProfile(const GemmProblem &p)
{
    OperandProfile prof;
    prof.m = p.m;
    prof.k = p.modeledK();
    prof.n = p.n;
    prof.row_nz.assign(static_cast<size_t>(p.m), 0);
    prof.col_nz.assign(static_cast<size_t>(p.n), 0);
    prof.act_nz_at_k.assign(static_cast<size_t>(prof.k), 0);
    prof.wgt_nz_at_k.assign(static_cast<size_t>(prof.k), 0);
    return prof;
}

/** The weight half of group @p g's profile from @p wgt, then the
 *  totals and the matched products (the activation half filled). */
void
finishProfile(const GemmProblem &p, const DbbMatrix &wgt, int g,
              ThreadPool *pool, OperandProfile &prof)
{
    countVectors(wgt, g * p.n, p.n, prof.k, prof.wgt_nz_at_k.data(),
                 prof.col_nz.data(), pool);
    for (const int32_t nz : prof.row_nz)
        prof.act_nnz += nz;
    for (const int32_t nz : prof.col_nz)
        prof.wgt_nnz += nz;
    for (int kk = 0; kk < prof.k; ++kk) {
        prof.matched_products +=
            static_cast<int64_t>(
                prof.act_nz_at_k[static_cast<size_t>(kk)]) *
            prof.wgt_nz_at_k[static_cast<size_t>(kk)];
    }
}

/** The outputs [first, last) along one axis whose tap @p t reads an
 *  input position in [0, @p in): o * stride - pad + t in range. */
std::pair<int, int>
tapOutputs(int t, int pad, int stride, int in, int out)
{
    const int lead = pad - t;
    const int first = lead <= 0 ? 0 : (lead + stride - 1) / stride;
    const int last = in - 1 + lead < 0 ? 0 : (in - 1 + lead) / stride + 1;
    return {first, std::min(out, last)};
}

/** Add the @p n values at @p src, @p step apart, to @p dst[0, n),
 *  and return their sum. */
int32_t
addRun(const int32_t *src, int step, int n, int32_t *dst)
{
    int32_t sum = 0;
    if (step == 1) {
        // Contiguous: the loop the compiler vectorizes.
        for (int o = 0; o < n; ++o) {
            dst[o] += src[o];
            sum += src[o];
        }
        return sum;
    }
    for (int o = 0; o < n; ++o) {
        dst[o] += src[o * step];
        sum += src[o * step];
    }
    return sum;
}

} // anonymous namespace

OperandProfile
OperandProfile::fromDbb(const GemmProblem &p, const DbbMatrix &act,
                        const DbbMatrix &wgt, int group, ThreadPool *pool)
{
    s2ta_assert(group >= 0 && group < p.groups, "group %d of %d",
                group, p.groups);
    // Per-vector counts and per-position counts straight from the
    // masks: O(blocks), no dense scan. Tail and segment padding
    // positions are never set in any mask. The group's vectors are
    // consecutive (group-major) in both matrices.
    OperandProfile prof = emptyProfile(p);
    countVectors(act, group * p.m, p.m, prof.k, prof.act_nz_at_k.data(),
                 prof.row_nz.data(), pool);
    finishProfile(p, wgt, group, pool, prof);
    return prof;
}

GemmPlan
GemmPlan::build(const GemmProblem &p, int bz, bool compute)
{
    return build(p, p.a.data(), p.w.data(), bz, compute);
}

GemmPlan
GemmPlan::build(const GemmProblem &p, const int8_t *a, const int8_t *w,
                int bz, bool compute)
{
    return encode(p, p, nullptr, a, w, bz, compute, nullptr);
}

GemmPlan
GemmPlan::build(const GemmProblem &p, const Conv2dShape &shape,
                const int8_t *input, const int8_t *w, int bz,
                bool compute, ThreadPool *pool)
{
    const int oh = shape.outH(), ow = shape.outW();
    const int batch = p.m / (oh * ow);
    s2ta_assert(shape.valid() && batch >= 1 && p.m == batch * oh * ow &&
                    p.groups == shape.groups && p.n == shape.groupOutC() &&
                    p.seg == shape.groupInC() &&
                    p.k == shape.kernel_h * shape.kernel_w * p.seg,
                "a %dx%dx%d GEMM of %d groups (segments of %d) is not "
                "the lowering of this conv layer", p.m, p.k, p.n,
                p.groups, p.seg);
    // The layer seen as its 1x1 grouped GEMM: one row per input
    // pixel, one segment of groupInC channels per group. A 1x1
    // stride-1 layer without padding is that GEMM: its rows are its
    // pixels, with no taps to resolve.
    GemmProblem in = p.withoutOperands();
    in.m = batch * shape.in_h * shape.in_w;
    in.k = p.seg;
    const bool pointwise = shape.kernel_h == 1 && shape.kernel_w == 1 &&
                           shape.stride == 1 && shape.pad == 0;
    return encode(p, in, pointwise ? nullptr : &shape, input, w, bz,
                  compute, pool);
}

GemmPlan
GemmPlan::encode(const GemmProblem &p, const GemmProblem &in,
                 const Conv2dShape *shape, const int8_t *a,
                 const int8_t *w, int bz, bool compute, ThreadPool *pool)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    s2ta_assert(!compute ||
                    p.a.size() == static_cast<size_t>(p.m) * p.groups * p.k,
                "a compute plan needs its problem's activations (%zu of "
                "%dx%d)", p.a.size(), p.m, p.groups * p.k);
    // Encode with the permissive bz/bz spec: a plan caches content,
    // not a density contract; bounds are checked against the masks
    // by checkWeights / checkActivations.
    const DbbSpec all{bz, bz};
    GemmPlan plan(p);
    plan.blk_bz = bz;
    plan.has_taps = shape != nullptr;
    if (shape != nullptr)
        plan.conv = *shape;
    plan.row_blocks = (p.modeledK() + bz - 1) / bz;
    plan.tap_positions = p.modeledSeg();
    plan.group_pixels = in.m;
    plan.act_masks = DbbMatrix::fromActivations(in, a, all);
    plan.wgt_masks = DbbMatrix::fromWeights(p, w, all, pool);
    plan.profs.resize(static_cast<size_t>(p.groups));
    parallelForOn(pool, p.groups, [&](int64_t g) {
        plan.profs[static_cast<size_t>(g)] =
            plan.has_taps
                ? plan.convProfile(static_cast<int>(g), pool)
                : OperandProfile::fromDbb(p, plan.act_masks, plan.wgt_masks,
                                          static_cast<int>(g), pool);
    });
    plan.is_encoded = true;
    if (compute)
        plan.packWeights(w);
    return plan;
}

OperandProfile
GemmPlan::convProfile(int g, ThreadPool *pool) const
{
    const GemmProblem &p = *prob;
    const Conv2dShape &s = conv;
    const int h = s.in_h, w = s.in_w, oh = s.outH(), ow = s.outW();
    const int batch = p.m / (oh * ow);
    const int pixels = group_pixels;
    const int nb = act_masks.blocksPerVector();
    const int seg = tap_positions;
    const Mask8 *in = act_masks.vectorMasks(g * pixels);
    OperandProfile prof = emptyProfile(p);

    std::vector<int32_t> pc(static_cast<size_t>(pixels));
    for (int q = 0; q < pixels; ++q) {
        const Mask8 *v = in + static_cast<size_t>(q) * nb;
        int32_t c = 0;
        int b = 0;
        for (; b + 8 <= nb; b += 8) {
            uint64_t x;
            std::memcpy(&x, v + b, 8);
            c += std::popcount(x);
        }
        for (; b < nb; ++b)
            c += maskPopcount(v[b]);
        pc[static_cast<size_t>(q)] = c;
    }

    // Tap (ky, kx) reads, for the outputs [oy0, oy1) x [ox0, ox1),
    // the input rectangle from (iy0, ix0) at the layer's stride. A
    // row's count is the sum of its in-image taps' pixel counts: each
    // tap adds its rectangle's counts to its outputs' rows, a run of
    // outputs at a time. A (tap, channel) position's count is that
    // channel's bit count over the tap's rectangle; with one channel
    // per group (a depthwise layer) it is the rectangle's pixel
    // count.
    for (int ky = 0; ky < s.kernel_h; ++ky) {
        const auto [oy0, oy1] = tapOutputs(ky, s.pad, s.stride, h, oh);
        for (int kx = 0; kx < s.kernel_w; ++kx) {
            const auto [ox0, ox1] = tapOutputs(kx, s.pad, s.stride, w, ow);
            if (oy0 >= oy1 || ox0 >= ox1)
                continue;
            const int iy0 = oy0 * s.stride - s.pad + ky;
            const int ix0 = ox0 * s.stride - s.pad + kx;
            const int run = ox1 - ox0;
            int32_t *hist = prof.act_nz_at_k.data() +
                            static_cast<size_t>(ky * s.kernel_w + kx) * seg;
            for (int b = 0; b < batch; ++b) {
                int32_t tap_nz = 0;
                for (int oy = oy0; oy < oy1; ++oy) {
                    const int32_t *src =
                        pc.data() +
                        static_cast<size_t>(b * h + iy0 + (oy - oy0) * s.stride) *
                            w +
                        ix0;
                    int32_t *dst = prof.row_nz.data() +
                                   static_cast<size_t>(b * oh + oy) * ow + ox0;
                    tap_nz += addRun(src, s.stride, run, dst);
                }
                if (p.seg == 1) {
                    hist[0] += tap_nz;
                    continue;
                }
                countMaskBits<false>(
                    in + (static_cast<size_t>(b * h + iy0) * w + ix0) * nb,
                    oy1 - oy0, static_cast<size_t>(s.stride) * w * nb, run,
                    static_cast<size_t>(s.stride) * nb, nb, blk_bz, seg,
                    hist, nullptr);
            }
        }
    }
    finishProfile(p, wgt_masks, g, pool, prof);
    return prof;
}

void
GemmPlan::rowPixels(int i, int32_t *pixels) const
{
    if (!has_taps) {
        pixels[0] = i;
        return;
    }
    const Conv2dShape &s = conv;
    const int oh = s.outH(), ow = s.outW();
    const int b = i / (oh * ow), oy = i / ow % oh, ox = i % ow;
    for (int ky = 0; ky < s.kernel_h; ++ky) {
        const int iy = oy * s.stride - s.pad + ky;
        for (int kx = 0; kx < s.kernel_w; ++kx) {
            const int ix = ox * s.stride - s.pad + kx;
            *pixels++ = iy >= 0 && iy < s.in_h && ix >= 0 && ix < s.in_w
                            ? (b * s.in_h + iy) * s.in_w + ix
                            : -1;
        }
    }
}

const Mask8 *
GemmPlan::actRow(int g, const int32_t *pixels, Mask8 *scratch) const
{
    const int nb = act_masks.blocksPerVector();
    const Mask8 *in = act_masks.vectorMasks(g * group_pixels);
    if (!has_taps)
        return in + static_cast<size_t>(pixels[0]) * nb;
    const int taps = rowTaps();
    const int seg = tap_positions;
    // A padding tap (pixel -1, pad -1) reads pixel 0 under an empty
    // keep mask; an in-image one (pad 0) its pixel under a full one.
    const auto pixel = [&](int t) {
        const int32_t pad = pixels[t] >> 31;
        return in + static_cast<size_t>(pixels[t] & ~pad) * nb;
    };
    const auto keep = [&](int t) {
        return static_cast<Mask8>(~(pixels[t] >> 31));
    };
    if (nb * blk_bz == seg) {
        // Every tap's segment is whole blocks: the pixel's masks.
        for (int t = 0; t < taps; ++t) {
            const Mask8 *src = pixel(t);
            const Mask8 k = keep(t);
            Mask8 *dst = scratch + static_cast<size_t>(t) * nb;
            for (int b = 0; b < nb; ++b)
                dst[b] = src[b] & k;
        }
        return scratch;
    }
    // Segments of seg % bz positions straddle blocks (alignment 1):
    // block b of tap t's pixel holds row bits from t * seg + b * bz
    // on.
    const uint32_t low = (1u << blk_bz) - 1;
    if (nb == 1 && taps * seg <= 64) {
        // The whole row in one word (a depthwise or 3x3 stem row).
        uint64_t row = 0;
        for (int t = 0; t < taps; ++t)
            row |= static_cast<uint64_t>(*pixel(t) & keep(t)) << (t * seg);
        for (int o = 0; o < row_blocks; ++o, row >>= blk_bz)
            scratch[o] = static_cast<Mask8>(row & low);
        return scratch;
    }
    // A longer row streams: acc holds its bits from block `out` on,
    // and every block below a position is whole once it is reached.
    uint32_t acc = 0;
    int out = 0;
    for (int t = 0; t < taps; ++t) {
        const Mask8 *src = pixel(t);
        const Mask8 k = keep(t);
        for (int b = 0; b < nb; ++b) {
            const int pos = t * seg + b * blk_bz;
            for (; (out + 1) * blk_bz <= pos; ++out, acc >>= blk_bz)
                scratch[out] = static_cast<Mask8>(acc & low);
            acc |= static_cast<uint32_t>(src[b] & k) << (pos - out * blk_bz);
        }
    }
    for (; out < row_blocks; ++out, acc >>= blk_bz)
        scratch[out] = static_cast<Mask8>(acc & low);
    return scratch;
}

void
GemmPlan::packWeights(const int8_t *w)
{
    const GemmProblem &p = *prob;
    const int quads = (p.k + 3) / 4;
    const int panels = (p.n + kPanelCols - 1) / kPanelCols;
    const size_t stride = packedPanelStride(p.k);
    const size_t ld = static_cast<size_t>(p.groups) * p.n;
    packed_bytes = static_cast<size_t>(p.groups) * panels * stride;
    size_t space = packed_bytes + 63;
    packed_alloc.reset(new int8_t[space]);
    void *start = packed_alloc.get();
    packed = static_cast<int8_t *>(std::align(64, packed_bytes, start, space));
    for (int g = 0; g < p.groups; ++g) {
        for (int pn = 0; pn < panels; ++pn) {
            int8_t *dst = packed +
                          (static_cast<size_t>(g) * panels + pn) * stride;
            const size_t j0 = static_cast<size_t>(g) * p.n +
                              static_cast<size_t>(pn) * kPanelCols;
            const int cols = std::min(kPanelCols, p.n - pn * kPanelCols);
            uint32_t sums[kPanelCols] = {};
            for (int q = 0; q < quads; ++q, dst += kQuadBytes) {
                const int8_t *src = w + static_cast<size_t>(4 * q) * ld + j0;
#ifdef __SSE2__
                if (cols == kPanelCols && 4 * q + 4 <= p.k) {
                    // A whole quad of a whole panel: rows straight from
                    // W, and the column sums 16 at a time.
                    __m128i v[4];
                    for (int r = 0; r < 4; ++r)
                        v[r] = _mm_loadu_si128(
                            reinterpret_cast<const __m128i *>(src + r * ld));
                    interleaveQuad(v, dst);
                    addColumnSums(v, sums);
                    continue;
                }
#endif
                // Rows 4q..4q+3 of the panel's columns, zero past k
                // and past n, interleaved to column-major quads.
                alignas(16) int8_t rows[4][kPanelCols] = {};
                for (int r = 0; r < 4 && 4 * q + r < p.k; ++r) {
                    for (int c = 0; c < cols; ++c) {
                        rows[r][c] = src[r * ld + c];
                        sums[c] += static_cast<uint32_t>(src[r * ld + c]);
                    }
                }
#ifdef __SSE2__
                __m128i v[4];
                for (int r = 0; r < 4; ++r)
                    v[r] = _mm_load_si128(
                        reinterpret_cast<const __m128i *>(rows[r]));
                interleaveQuad(v, dst);
#else
                for (int c = 0; c < kPanelCols; ++c)
                    for (int r = 0; r < 4; ++r)
                        dst[c * 4 + r] = rows[r][c];
#endif
            }
            std::memcpy(dst, sums, sizeof(sums));
        }
    }
}

GemmPlan
GemmPlan::shallow(const GemmProblem &p)
{
    s2ta_assert(p.groups == 1 && !p.padded(),
                "the scalar engine runs plain GEMMs (%d groups, K %d "
                "modeled as %d)", p.groups, p.k, p.modeledK());
    return GemmPlan(p);
}

namespace {

/** Popcount density check shared by both operand validators. */
void
checkBlockDensity(const DbbMatrix &mat, const DbbSpec &spec,
                  const char *kind, const char *vec_name,
                  const char *remedy)
{
    const int nb = mat.blocksPerVector();
    for (int v = 0; v < mat.vectors(); ++v) {
        const Mask8 *masks = mat.vectorMasks(v);
        for (int b = 0; b < nb; ++b) {
            if (maskPopcount(masks[b]) > spec.nnz) {
                s2ta_fatal("%s block (%s %d, block %d) violates %s; "
                           "run %s first", kind, vec_name, v, b,
                           spec.toString().c_str(), remedy);
            }
        }
    }
}

} // anonymous namespace

void
GemmPlan::checkWeights(const DbbSpec &spec) const
{
    s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
    if (wgt_ok.spec.load(std::memory_order_acquire) ==
        encodeSpec(spec))
        return;
    checkBlockDensity(wgt_masks, spec, "weight", "col",
                      "pruneWeightsDbb");
    wgt_ok.spec.store(encodeSpec(spec), std::memory_order_release);
}

void
GemmPlan::checkActivations(const DbbSpec &spec) const
{
    s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
    if (act_ok.spec.load(std::memory_order_acquire) ==
        encodeSpec(spec))
        return;
    checkBlockDensity(act_masks, spec, "activation",
                      has_taps ? "pixel" : "row", "DAP");
    act_ok.spec.store(encodeSpec(spec), std::memory_order_release);
}

} // namespace s2ta
