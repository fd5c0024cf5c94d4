#include "arch/gemm_plan.hh"

#include <algorithm>

#include "arch/gemm_kernels.hh"
#include "base/thread_pool.hh"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace s2ta {

namespace {

/** Forced dispatch ceiling; Avx512 (the widest tier) = unclamped. */
std::atomic<int> kernel_cap{static_cast<int>(DbbKernelKind::Avx512)};

/** Row-dot signature all intersection kernels share. */
using RowDotFn = int32_t (*)(const DbbBlock *, const DbbBlock *,
                             int);

/** Dense-dot signature the dense-mirror contraction dispatches. */
using DenseDotFn = int32_t (*)(const int8_t *, const int8_t *, int);

/** Widest tier this CPU supports (cpuid results cannot change at
 *  runtime; memoized). */
DbbKernelKind
widestSupportedKernel()
{
    static const DbbKernelKind kind =
        dbbAvx512KernelSupportedImpl() ? DbbKernelKind::Avx512
        : dbbAvx2KernelSupportedImpl() ? DbbKernelKind::Avx2
        : dbbSimdKernelSupportedImpl() ? DbbKernelKind::SimdV2
                                       : DbbKernelKind::Scalar;
    return kind;
}

/**
 * Shared kernel-selection predicate: below ~0.5 matched products
 * per block pair the gather path does less work than the eight
 * always-on SIMD lanes; above it the branch-free contraction wins
 * (the match loop's variable trip count costs more than multiplying
 * the zeros). Used both when deciding to materialize the dense
 * mirror and when dispatching dbbGemm, so the two can't drift.
 */
bool
wantsDenseKernel(const OperandProfile &prof, int64_t block_pairs)
{
    return 2 * prof.matched_products >= block_pairs;
}

/**
 * Row-tiled mask-intersection contraction over the compressed
 * encodings for output rows [row_begin, row_end): an activation
 * stripe stays cache-resident while each weight column's blocks
 * stream through once per stripe. @p dot is the dispatched row-dot
 * kernel (scalar rank gathers or one of the SIMD expansion tiers).
 */
void
intersectGemmRows(const DbbMatrix &act, const DbbMatrix &wgt, int n,
                  int row_begin, int row_end, RowDotFn dot,
                  int32_t *out)
{
    const int nb = act.blocksPerVector();
    constexpr int kRowTile = 64;
    for (int i0 = row_begin; i0 < row_end; i0 += kRowTile) {
        const int ilim = std::min(row_end, i0 + kRowTile);
        for (int j = 0; j < n; ++j) {
            const DbbBlock *wcol = wgt.vectorBlocks(j);
            for (int i = i0; i < ilim; ++i) {
                out[static_cast<size_t>(i) * n + j] =
                    dot(act.vectorBlocks(i), wcol, nb);
            }
        }
    }
}

#ifdef __SSE2__

/** Exact INT8 dot product with INT32 accumulation over k elements. */
int32_t
denseDot(const int8_t *a, const int8_t *w, int k)
{
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
    int x = 0;
    for (; x + 16 <= k; x += 16) {
        const __m128i av = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(a + x));
        const __m128i wv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(w + x));
        // Sign-extend each INT8 half into INT16 lanes (bytes enter
        // the high half of each word, then an arithmetic shift
        // restores the value with its sign).
        const __m128i alo =
            _mm_srai_epi16(_mm_unpacklo_epi8(zero, av), 8);
        const __m128i ahi =
            _mm_srai_epi16(_mm_unpackhi_epi8(zero, av), 8);
        const __m128i wlo =
            _mm_srai_epi16(_mm_unpacklo_epi8(zero, wv), 8);
        const __m128i whi =
            _mm_srai_epi16(_mm_unpackhi_epi8(zero, wv), 8);
        acc = _mm_add_epi32(acc, _mm_madd_epi16(alo, wlo));
        acc = _mm_add_epi32(acc, _mm_madd_epi16(ahi, whi));
    }
    int32_t sum = 0;
    for (; x < k; ++x)
        sum += static_cast<int32_t>(a[x]) * w[x];
    alignas(16) int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i *>(lanes), acc);
    return sum + lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/**
 * Branch-free SIMD contraction over the dense activation rows and
 * the transposed weight mirror, row-tiled like intersectGemmRows,
 * covering output rows [row_begin, row_end). @p ddot is the
 * dispatched dense dot (SSE2 unpack/madd baseline or the VNNI
 * vpdpbusd sub-kernel).
 */
void
denseGemmRows(const GemmProblem &p, const int8_t *wgt_t,
              int row_begin, int row_end, DenseDotFn ddot,
              int32_t *out)
{
    constexpr int kRowTile = 64;
    for (int i0 = row_begin; i0 < row_end; i0 += kRowTile) {
        const int ilim = std::min(row_end, i0 + kRowTile);
        for (int j = 0; j < p.n; ++j) {
            const int8_t *wcol =
                wgt_t + static_cast<size_t>(j) * p.k;
            for (int i = i0; i < ilim; ++i) {
                out[static_cast<size_t>(i) * p.n + j] = ddot(
                    &p.a[static_cast<size_t>(i) * p.k], wcol, p.k);
            }
        }
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
    // One stripe is several cache tiles: big enough that stripe
    // dispatch overhead stays invisible, small enough that a
    // ResNet-sized GEMM (m ~ 3k) still fans out across many lanes.
    constexpr int64_t kStripeRows = 256;
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
      case DbbKernelKind::SimdV2: return "ssse3";
      case DbbKernelKind::Avx2:   return "avx2";
      case DbbKernelKind::Avx512: return "avx512";
    }
    s2ta_panic("unknown kernel kind");
}

DbbKernelKind
dbbActiveKernel()
{
    const auto cap = static_cast<DbbKernelKind>(
        kernel_cap.load(std::memory_order_relaxed));
    const DbbKernelKind widest = widestSupportedKernel();
    return cap < widest ? cap : widest;
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
    static const bool supported = dbbVpopcntKernelSupportedImpl();
    return supported && dbbKernelCap() >= DbbKernelKind::Avx512;
}

void
dbbGemm(const GemmPlan &plan, int32_t *out, ThreadPool *shard_pool)
{
    const GemmProblem &p = plan.problem();
#ifdef __SSE2__
    const int64_t block_pairs =
        static_cast<int64_t>(p.m) * p.n *
        plan.act().blocksPerVector();
    if (plan.wgtDenseT() != nullptr &&
        wantsDenseKernel(plan.profile(), block_pairs)) {
        // The dense-mirror contraction sub-dispatches to the VNNI
        // vpdpbusd dot when the AVX-512 tier is active; the SSE2
        // unpack/madd tree is the baseline. Both wrap mod 2^32, so
        // outputs are bit-identical either way.
        const DenseDotFn ddot =
            dbbVnniDenseEnabled() ? dbbDenseDotVnni : denseDot;
        forRowStripes(p.m, shard_pool,
                      [&](int row_begin, int row_end) {
                          denseGemmRows(p, plan.wgtDenseT(),
                                        row_begin, row_end, ddot,
                                        out);
                      });
        return;
    }
#endif
    const DbbKernelKind kind = dbbActiveKernel();
    const RowDotFn dot =
        kind == DbbKernelKind::Avx512 ? dbbDotRowAvx512
        : kind == DbbKernelKind::Avx2 ? dbbDotRowAvx2
        : kind == DbbKernelKind::SimdV2 ? dbbDotRowSimdV2
                                        : dbbDotRow;
    forRowStripes(p.m, shard_pool, [&](int row_begin, int row_end) {
        intersectGemmRows(plan.act(), plan.wgt(), p.n, row_begin,
                          row_end, dot, out);
    });
}

GemmPlan
GemmPlan::build(const GemmProblem &p, int bz, bool dense_mirror)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    // Encode with the permissive bz/bz spec: a plan caches content,
    // not a density contract; bounds are checked against the masks
    // by checkWeights / checkActivations.
    const DbbSpec all{bz, bz};
    return assemble(p, bz, DbbMatrix::fromActivations(p, all),
                    DbbMatrix::fromWeights(p, all), dense_mirror);
}

GemmPlan
GemmPlan::assemble(const GemmProblem &p, int bz, DbbMatrix act,
                   DbbMatrix wgt, bool dense_mirror)
{
    GemmPlan plan(p);
    plan.blk_bz = bz;
    plan.act_blocks = std::move(act);
    plan.wgt_blocks = std::move(wgt);
    plan.prof = OperandProfile::fromDbb(p, plan.act_blocks,
                                        plan.wgt_blocks);

    // Dense transposed weight mirror for the SIMD contraction,
    // tiled over columns so writes stay within a few streams. Skip
    // it whenever dbbGemm cannot pick the SIMD kernel: non-SSE2
    // builds, and densities where the gather path wins anyway (the
    // same heuristic dbbGemm applies).
#ifndef __SSE2__
    dense_mirror = false;
#else
    const int64_t block_pairs = static_cast<int64_t>(p.m) * p.n *
                                plan.act_blocks.blocksPerVector();
    dense_mirror =
        dense_mirror && wantsDenseKernel(plan.prof, block_pairs);
#endif
    if (dense_mirror) {
        plan.wgt_t.resize(static_cast<size_t>(p.n) * p.k);
        constexpr int kColTile = 64;
        for (int j0 = 0; j0 < p.n; j0 += kColTile) {
            const int jlim = std::min(p.n, j0 + kColTile);
            for (int kk = 0; kk < p.k; ++kk) {
                const int8_t *row =
                    &p.w[static_cast<size_t>(kk) * p.n];
                for (int j = j0; j < jlim; ++j)
                    plan.wgt_t[static_cast<size_t>(j) * p.k + kk] =
                        row[j];
            }
        }
    }

    plan.is_encoded = true;
    return plan;
}

GemmPlan
GemmPlan::restore(const GemmProblem &p, Parts parts)
{
    s2ta_assert(parts.bz >= 1 && parts.bz <= 8, "block size %d",
                parts.bz);
    s2ta_assert(parts.act.vectors() == p.m &&
                    parts.wgt.vectors() == p.n,
                "restored encodings (%d act, %d wgt vectors) do not "
                "match %dx%dx%d", parts.act.vectors(),
                parts.wgt.vectors(), p.m, p.k, p.n);
    GemmPlan plan(p);
    plan.blk_bz = parts.bz;
    plan.act_blocks = std::move(parts.act);
    plan.wgt_blocks = std::move(parts.wgt);
    plan.wgt_t = std::move(parts.wgt_t);
    plan.prof = std::move(parts.prof);
    plan.is_encoded = true;
    return plan;
}

GemmPlan
GemmPlan::rebuild(const GemmProblem &p, int bz, DbbMatrix act,
                  DbbMatrix wgt, bool dense_mirror)
{
    s2ta_assert(bz >= 1 && bz <= 8, "block size %d", bz);
    return assemble(p, bz, std::move(act), std::move(wgt),
                    dense_mirror);
}

GemmPlan
GemmPlan::shallow(const GemmProblem &p)
{
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
        const DbbBlock *blocks = mat.vectorBlocks(v);
        for (int b = 0; b < nb; ++b) {
            if (maskPopcount(blocks[b].mask) > spec.nnz) {
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
    checkBlockDensity(wgt_blocks, spec, "weight", "col",
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
    checkBlockDensity(act_blocks, spec, "activation", "row", "DAP");
    act_ok_spec.store(encodeSpec(spec), std::memory_order_release);
}

} // namespace s2ta
