#include "arch/gemm_plan.hh"

#include <algorithm>
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

GemmPlan
GemmPlan::build(const GemmProblem &p, int bz, bool compute)
{
    if (compute)
        return build(p, p.w.data(), bz);
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    // Encode with the permissive bz/bz spec: a plan caches content,
    // not a density contract; bounds are checked against the masks
    // by checkWeights / checkActivations.
    const DbbSpec all{bz, bz};
    return fromMasks(p, DbbMatrix::fromActivations(p, all),
                     DbbMatrix::fromWeights(p, all));
}

GemmPlan
GemmPlan::build(const GemmProblem &p, const int8_t *w, int bz)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    s2ta_assert(p.a.size() == static_cast<size_t>(p.m) * p.groups * p.k,
                "a compute plan needs its problem's activations (%zu of "
                "%dx%d)", p.a.size(), p.m, p.groups * p.k);
    const DbbSpec all{bz, bz};
    GemmPlan plan = fromMasks(p, DbbMatrix::fromActivations(p, all),
                              DbbMatrix::fromWeights(p, w, all));
    plan.packWeights(w);
    return plan;
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
GemmPlan::fromMasks(const GemmProblem &p, DbbMatrix act, DbbMatrix wgt,
                    ThreadPool *pool)
{
    const int bz = act.spec().bz;
    const int nb = (p.modeledK() + bz - 1) / bz;
    s2ta_assert(wgt.spec().bz == bz &&
                    act.vectors() == p.groups * p.m &&
                    wgt.vectors() == p.groups * p.n &&
                    act.blocksPerVector() == nb &&
                    wgt.blocksPerVector() == nb,
                "masks (%d + %d vectors of %d/%d blocks) do not fit a "
                "%dx%dx%d GEMM of %d groups at bz %d", act.vectors(),
                wgt.vectors(), act.blocksPerVector(),
                wgt.blocksPerVector(), p.m, p.modeledK(), p.n,
                p.groups, bz);
    GemmPlan plan(p);
    plan.blk_bz = bz;
    plan.act_masks = std::move(act);
    plan.wgt_masks = std::move(wgt);
    plan.profs.resize(static_cast<size_t>(p.groups));
    parallelForOn(pool, p.groups, [&](int64_t g) {
        plan.profs[static_cast<size_t>(g)] = OperandProfile::fromDbb(
            p, plan.act_masks, plan.wgt_masks, static_cast<int>(g), pool);
    });
    plan.is_encoded = true;
    return plan;
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
    if (wgt_ok_spec.load(std::memory_order_acquire) ==
        encodeSpec(spec))
        return;
    checkBlockDensity(wgt_masks, spec, "weight", "col",
                      "pruneWeightsDbb");
    wgt_ok_spec.store(encodeSpec(spec), std::memory_order_release);
}

void
GemmPlan::checkActivations(const DbbSpec &spec) const
{
    s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
    if (act_ok_spec.load(std::memory_order_acquire) ==
        encodeSpec(spec))
        return;
    checkBlockDensity(act_masks, spec, "activation", "row", "DAP");
    act_ok_spec.store(encodeSpec(spec), std::memory_order_release);
}

} // namespace s2ta
