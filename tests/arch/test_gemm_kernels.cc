/** @file Property tests for the SIMD tiers: the VNNI dense dot and
 *  the VPOPCNTDQ profile derivation must match their scalar loops
 *  bit for bit, and the forced-cap dispatcher used by the benches'
 *  --simd flag must switch every AVX-512 sub-kernel off below its
 *  tier (dbbGemm at both caps: tests/arch/test_gemm_plan.cc). On x86-64 every build compiles both tiers, so each probe
 *  must report exactly what the CPU has — a tier test can only skip
 *  because the CPU lacks the tier, never because the build dropped
 *  it.
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

#ifdef __x86_64__
TEST(GemmKernels, ProbesReportExactlyTheCpuFeatures)
{
    // The probes are the tiers' only gate on x86-64: they must
    // agree with the CPU's own feature bits, so a build compiled
    // without a tier's ISA flags fails here instead of letting the
    // tier tests below compare scalar with scalar.
    EXPECT_EQ(dbbSimdKernelSupportedImpl(),
              __builtin_cpu_supports("ssse3") != 0);
    EXPECT_EQ(dbbAvx2KernelSupportedImpl(),
              __builtin_cpu_supports("avx2") != 0);
    const bool bw = __builtin_cpu_supports("avx512bw");
    const bool vnni = bw && __builtin_cpu_supports("avx512vnni");
    const bool vpopcnt =
        bw && __builtin_cpu_supports("avx512vpopcntdq");
    EXPECT_EQ(dbbVnniKernelSupportedImpl(), vnni);
    EXPECT_EQ(dbbVpopcntKernelSupportedImpl(), vpopcnt);
    EXPECT_EQ(dbbAvx512KernelSupportedImpl(), vnni || vpopcnt);
}
#endif

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
    EXPECT_EQ(dbbActiveKernel(), dbbAvx512KernelSupportedImpl()
                                     ? DbbKernelKind::Avx512
                                     : DbbKernelKind::Scalar);
}

TEST(GemmKernels, ForcedCapClampsEveryTier)
{
    // The --simd flag's mechanism: the scalar cap must win and
    // switch the VNNI dense dot and the SIMD profile derivation off
    // (a forced "scalar" run may not execute a single AVX-512
    // instruction); the avx512 cap falls back to the widest tier.
    dbbForceKernelCap(DbbKernelKind::Scalar);
    EXPECT_EQ(dbbKernelCap(), DbbKernelKind::Scalar);
    EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Scalar);
    EXPECT_FALSE(dbbVnniDenseEnabled());
    EXPECT_FALSE(dbbProfileSimdEnabled());
    dbbForceKernelCap(DbbKernelKind::Avx512); // restore auto
    EXPECT_EQ(dbbKernelCap(), DbbKernelKind::Avx512);
    EXPECT_EQ(dbbVnniDenseEnabled(), dbbVnniKernelSupportedImpl());
    EXPECT_EQ(dbbProfileSimdEnabled(),
              dbbVpopcntKernelSupportedImpl());
}

TEST(GemmKernels, KernelKindNamesAreStable)
{
    // Bench JSON contract: these strings appear as "simd_kernel"
    // values and CI asserts on them verbatim.
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Scalar), "scalar");
    EXPECT_STREQ(dbbKernelKindName(DbbKernelKind::Avx512), "avx512");
}

} // namespace
} // namespace s2ta
