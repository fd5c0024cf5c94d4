/** @file Property tests for the SIMD tiers of the mask-intersection
 *  row-dot kernel: across random masks (including all-zero runs and
 *  fully dense blocks), random stored values, and every row length
 *  around the tiers' batch widths, each tier the running CPU has
 *  must match the scalar rank-gather loop bit for bit. The same
 *  contract covers the AVX-512 sub-kernels (VNNI dense dot,
 *  VPOPCNTDQ profile derivation) and the forced-cap dispatcher used
 *  by the benches' --simd flag. On x86-64 every build compiles every
 *  tier, so each probe must report exactly what the CPU has — a tier
 *  test can only skip because the CPU lacks the tier, never because
 *  the build dropped it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/array_model.hh"
#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "base/random.hh"
#include "core/dbb.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/** Random valid DBB block: random mask, values in the stored slots
 *  (non-zero, as dbbEncode would produce), zeros beyond them. */
DbbBlock
randomBlock(Rng &rng, double zero_mask_prob)
{
    DbbBlock b;
    if (rng.uniformReal() < zero_mask_prob)
        return b; // all-zero block, the RLE/expansion edge case
    b.mask = static_cast<Mask8>(rng.uniformInt(1, 255));
    const int stored = maskPopcount(b.mask);
    for (int s = 0; s < stored; ++s) {
        int8_t v = 0;
        while (v == 0)
            v = static_cast<int8_t>(rng.uniformInt(-128, 127));
        b.values[static_cast<size_t>(s)] = v;
    }
    return b;
}

std::vector<DbbBlock>
randomRow(Rng &rng, int nblocks, double zero_mask_prob)
{
    std::vector<DbbBlock> row(static_cast<size_t>(nblocks));
    for (auto &b : row)
        b = randomBlock(rng, zero_mask_prob);
    return row;
}

#ifdef __x86_64__
TEST(GemmKernels, ProbesReportExactlyTheCpuFeatures)
{
    // The probes are the ladder's only gate on x86-64: they must
    // agree with the CPU's own feature bits, so a build compiled
    // without a tier's ISA flags fails here instead of letting the
    // tier tests below compare scalar with scalar.
    EXPECT_EQ(dbbSimdKernelSupportedImpl(),
              __builtin_cpu_supports("ssse3") != 0);
    EXPECT_EQ(dbbAvx2KernelSupportedImpl(),
              __builtin_cpu_supports("avx2") != 0);
    EXPECT_EQ(dbbAvx512KernelSupportedImpl(),
              __builtin_cpu_supports("avx512bw") &&
                  __builtin_cpu_supports("avx512vbmi"));
    EXPECT_EQ(dbbVnniKernelSupportedImpl(),
              __builtin_cpu_supports("avx512vnni") != 0);
    EXPECT_EQ(dbbVpopcntKernelSupportedImpl(),
              __builtin_cpu_supports("avx512vpopcntdq") &&
                  __builtin_cpu_supports("avx512bw"));
}
#endif

TEST(GemmKernels, SimdTiersMatchScalarRowDot)
{
    Rng rng(0xA2C2);
    // Row lengths around every batch width (SSSE3 pairs, AVX2
    // quads, AVX-512 octets) including the empty row and every
    // tail length.
    for (const int nblocks :
         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 64}) {
        for (const double zp : {0.0, 0.3, 0.9}) {
            for (int trial = 0; trial < 8; ++trial) {
                const auto a = randomRow(rng, nblocks, zp);
                const auto w = randomRow(rng, nblocks, zp);
                const int32_t want =
                    dbbDotRow(a.data(), w.data(), nblocks);
                if (dbbSimdKernelSupportedImpl()) {
                    EXPECT_EQ(dbbDotRowSimdV2(a.data(), w.data(),
                                              nblocks),
                              want)
                        << "ssse3, nblocks " << nblocks;
                }
                if (dbbAvx2KernelSupportedImpl()) {
                    EXPECT_EQ(dbbDotRowAvx2(a.data(), w.data(),
                                            nblocks),
                              want)
                        << "avx2, nblocks " << nblocks;
                }
                if (dbbAvx512KernelSupportedImpl()) {
                    EXPECT_EQ(dbbDotRowAvx512(a.data(), w.data(),
                                              nblocks),
                              want)
                        << "avx512, nblocks " << nblocks;
                }
            }
        }
    }
}

TEST(GemmKernels, ExtremeValuesDoNotDiverge)
{
    // INT8 extremes exercise the sign-extension paths: (-128)^2
    // sums must agree across every tier.
    for (const int nblocks : {1, 3, 4, 5, 8, 9, 16}) {
        std::vector<DbbBlock> a(static_cast<size_t>(nblocks));
        std::vector<DbbBlock> w(static_cast<size_t>(nblocks));
        for (int i = 0; i < nblocks; ++i) {
            a[static_cast<size_t>(i)].mask = 0xff;
            w[static_cast<size_t>(i)].mask = 0xff;
            for (int s = 0; s < 8; ++s) {
                a[static_cast<size_t>(i)]
                    .values[static_cast<size_t>(s)] =
                    (s % 2 == 0) ? int8_t{-128} : int8_t{127};
                w[static_cast<size_t>(i)]
                    .values[static_cast<size_t>(s)] =
                    (s % 3 == 0) ? int8_t{-128} : int8_t{-1};
            }
        }
        const int32_t want = dbbDotRow(a.data(), w.data(), nblocks);
        if (dbbSimdKernelSupportedImpl()) {
            EXPECT_EQ(dbbDotRowSimdV2(a.data(), w.data(), nblocks),
                      want);
        }
        if (dbbAvx2KernelSupportedImpl()) {
            EXPECT_EQ(dbbDotRowAvx2(a.data(), w.data(), nblocks),
                      want);
        }
        if (dbbAvx512KernelSupportedImpl()) {
            EXPECT_EQ(dbbDotRowAvx512(a.data(), w.data(), nblocks),
                      want);
        }
    }
}

/** Scalar reference for the VNNI dense dot (the SSE2 denseDot in
 *  gemm_plan.cc is file-static, so the test carries its own). */
int32_t
denseDotRef(const int8_t *a, const int8_t *w, int k)
{
    int32_t sum = 0;
    for (int x = 0; x < k; ++x)
        sum += static_cast<int32_t>(a[x]) * w[x];
    return sum;
}

TEST(GemmKernels, VnniDenseDotMatchesScalar)
{
    if (!dbbVnniKernelSupportedImpl())
        GTEST_SKIP() << "this CPU lacks AVX512-VNNI";
    Rng rng(0x51DD);
    // Lengths around the 64-byte batch width, incl. masked tails.
    for (const int k : {0, 1, 7, 63, 64, 65, 127, 128, 200, 1152}) {
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<int8_t> a(static_cast<size_t>(k));
            std::vector<int8_t> w(static_cast<size_t>(k));
            for (int x = 0; x < k; ++x) {
                a[static_cast<size_t>(x)] = static_cast<int8_t>(
                    rng.uniformInt(-128, 127));
                w[static_cast<size_t>(x)] = static_cast<int8_t>(
                    rng.uniformInt(-128, 127));
            }
            EXPECT_EQ(dbbDenseDotVnni(a.data(), w.data(), k),
                      denseDotRef(a.data(), w.data(), k))
                << "k " << k;
        }
    }
    // The xor-0x80 bias correction at both INT8 extremes.
    std::vector<int8_t> a(96, int8_t{-128});
    std::vector<int8_t> w(96, int8_t{-128});
    for (size_t x = 0; x < a.size(); x += 2)
        w[x] = 127;
    EXPECT_EQ(dbbDenseDotVnni(a.data(), w.data(), 96),
              denseDotRef(a.data(), w.data(), 96));
}

void
expectProfilesEqual(const OperandProfile &a, const OperandProfile &b,
                    const char *what)
{
    EXPECT_EQ(a.row_nz, b.row_nz) << what;
    EXPECT_EQ(a.col_nz, b.col_nz) << what;
    EXPECT_EQ(a.act_nz_at_k, b.act_nz_at_k) << what;
    EXPECT_EQ(a.wgt_nz_at_k, b.wgt_nz_at_k) << what;
    EXPECT_EQ(a.act_nnz, b.act_nnz) << what;
    EXPECT_EQ(a.wgt_nnz, b.wgt_nnz) << what;
    EXPECT_EQ(a.matched_products, b.matched_products) << what;
}

/** Conv-shaped GEMM corpus (im2col of fuzz-style layer draws): the
 *  profile positions then carry the kernel-tap structure (zero
 *  pad rings, per-tap channel segments) instead of uniform noise. */
GemmProblem
fuzzConvGemm(Rng &rng)
{
    const int gc = 8 << rng.uniformInt(0, 1); // 8 or 16 channels
    const int out_c = static_cast<int>(rng.uniformInt(1, 24));
    const int kern_pick[] = {1, 2, 3, 5};
    const int kh =
        kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int kw =
        kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int h = static_cast<int>(rng.uniformInt(6, 14));
    const int w = static_cast<int>(rng.uniformInt(6, 14));
    const int stride = static_cast<int>(rng.uniformInt(1, 3));
    const int pad = static_cast<int>(rng.uniformInt(0, 2));

    const Conv2dShape shape = {gc, h, w, out_c, kh, kw, stride,
                               pad, 1};
    const int act_nnz = 1 << rng.uniformInt(0, 3);
    const Int8Tensor input =
        makeDbbTensor({h, w, gc}, act_nnz, rng);
    const Int8Tensor weights = makeDbbTensor(
        {kh, kw, gc, out_c},
        static_cast<int>(rng.uniformInt(1, 8)), rng);
    return im2colLower(shape, input, weights);
}

TEST(GemmKernels, ProfileDerivationMatchesScalarOnConvCorpus)
{
    // OperandProfile::fromDbb under the widest cap (VPOPCNTDQ
    // histogram path where supported) vs the forced-scalar per-bit
    // derivation vs the dense reference scan: all three must be
    // bitwise identical over conv-shaped operands. On CPUs without
    // VPOPCNTDQ both caps run the same loops and the test degrades
    // to fromDbb-vs-build.
    Rng rng(0xF0CC);
    const DbbSpec dense8{8, 8};
    for (int trial = 0; trial < 12; ++trial) {
        const GemmProblem p = fuzzConvGemm(rng);
        const DbbMatrix act = DbbMatrix::fromActivations(p, dense8);
        const DbbMatrix wgt = DbbMatrix::fromWeights(p, dense8);
        const OperandProfile ref = OperandProfile::build(p);

        dbbForceKernelCap(DbbKernelKind::Scalar);
        const OperandProfile scalar =
            OperandProfile::fromDbb(p, act, wgt);
        dbbForceKernelCap(DbbKernelKind::Avx512);
        const OperandProfile simd =
            OperandProfile::fromDbb(p, act, wgt);

        expectProfilesEqual(simd, scalar, "simd vs scalar fromDbb");
        expectProfilesEqual(simd, ref, "fromDbb vs dense build");
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "trial " << trial << " m=" << p.m
                          << " k=" << p.k << " n=" << p.n;
            break;
        }
    }
}

TEST(GemmKernels, DispatcherPrefersWidestTier)
{
    dbbForceKernelCap(DbbKernelKind::Scalar);
    EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Scalar);
    dbbForceKernelCap(DbbKernelKind::Avx512);
    if (dbbAvx512KernelSupportedImpl())
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Avx512);
    else if (dbbAvx2KernelSupportedImpl())
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Avx2);
    else if (dbbSimdKernelSupportedImpl())
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::SimdV2);
    else
        EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Scalar);
}

TEST(GemmKernels, ForcedCapClampsEveryTier)
{
    // The --simd flag's mechanism: a cap below the widest supported
    // tier must win, a cap above it must fall back to the widest,
    // and any cap below Avx512 must switch the VNNI dense dot and
    // the SIMD profile derivation off (a forced "avx2" run may not
    // execute a single AVX-512 instruction).
    const DbbKernelKind widest = [] {
        dbbForceKernelCap(DbbKernelKind::Avx512);
        return dbbActiveKernel();
    }();
    for (const DbbKernelKind cap :
         {DbbKernelKind::Scalar, DbbKernelKind::SimdV2,
          DbbKernelKind::Avx2, DbbKernelKind::Avx512}) {
        dbbForceKernelCap(cap);
        EXPECT_EQ(dbbKernelCap(), cap);
        const DbbKernelKind want = cap < widest ? cap : widest;
        EXPECT_EQ(dbbActiveKernel(), want)
            << "cap " << dbbKernelKindName(cap);
        if (cap < DbbKernelKind::Avx512) {
            EXPECT_FALSE(dbbVnniDenseEnabled())
                << dbbKernelKindName(cap);
            EXPECT_FALSE(dbbProfileSimdEnabled())
                << dbbKernelKindName(cap);
        }
    }
    dbbForceKernelCap(DbbKernelKind::Avx512); // restore auto
    EXPECT_EQ(dbbVnniDenseEnabled(), dbbVnniKernelSupportedImpl());
    EXPECT_EQ(dbbProfileSimdEnabled(),
              dbbVpopcntKernelSupportedImpl());
}

TEST(GemmKernels, KernelKindNamesAreStable)
{
    // Bench JSON contract: these strings appear as "simd_kernel"
    // values and CI asserts on them verbatim.
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Scalar), "scalar");
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::SimdV2), "ssse3");
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Avx2), "avx2");
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Avx512), "avx512");
}

} // namespace
} // namespace s2ta
