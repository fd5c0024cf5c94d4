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

/** Dense-dot signature the contraction dispatches. */
using DenseDotFn = int32_t (*)(const int8_t *, const int8_t *, int);

/** Exact INT8 dot product with INT32 accumulation over k elements:
 *  the baseline the VNNI dot upgrades. */
int32_t
denseDot(const int8_t *a, const int8_t *w, int k)
{
    int x = 0;
    int32_t sum = 0;
#ifdef __SSE2__
    const __m128i zero = _mm_setzero_si128();
    __m128i acc = zero;
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
    alignas(16) int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i *>(lanes), acc);
    sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
#endif
    for (; x < k; ++x)
        sum += static_cast<int32_t>(a[x]) * w[x];
    return sum;
}

/**
 * The contraction over the dense activation rows and the transposed
 * weight mirror for output rows [row_begin, row_end): an activation
 * stripe stays cache-resident while each weight column streams
 * through once per stripe. Group g contracts its K-column block of
 * each row against its own weight columns. @p ddot is the
 * dispatched dense dot.
 */
void
denseGemmRows(const GemmProblem &p, const int8_t *wgt_t,
              int row_begin, int row_end, DenseDotFn ddot,
              int32_t *out)
{
    constexpr int kRowTile = 64;
    const size_t lda = static_cast<size_t>(p.groups) * p.k;
    const size_t ldc = static_cast<size_t>(p.groups) * p.n;
    for (int i0 = row_begin; i0 < row_end; i0 += kRowTile) {
        const int ilim = std::min(row_end, i0 + kRowTile);
        for (int g = 0; g < p.groups; ++g) {
            const int8_t *a = p.a.data() + static_cast<size_t>(g) * p.k;
            for (int j = g * p.n; j < (g + 1) * p.n; ++j) {
                const int8_t *wcol =
                    wgt_t + static_cast<size_t>(j) * p.k;
                for (int i = i0; i < ilim; ++i)
                    out[i * ldc + j] = ddot(a + i * lda, wcol, p.k);
            }
        }
    }
}

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
    const int8_t *wgt_t = plan.wgtDenseT();
    // Only a compute plan holds the mirror, and its problem holds
    // the operands; an events-only plan holds neither.
    s2ta_assert(wgt_t != nullptr && p.hasOperands(),
                "dbbGemm needs a plan built with its dense mirror");
    // Both dots wrap mod 2^32, so outputs are bit-identical either
    // way.
    const DenseDotFn ddot =
        dbbVnniDenseEnabled() ? dbbDenseDotVnni : denseDot;
    forRowStripes(p.m, shard_pool, [&](int row_begin, int row_end) {
        denseGemmRows(p, wgt_t, row_begin, row_end, ddot, out);
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
    GemmPlan plan = fromMasks(p, DbbMatrix::fromActivations(p, all),
                              DbbMatrix::fromWeights(p, all));
    if (dense_mirror)
        plan.wgt_t = transposedWeights(p);
    return plan;
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
