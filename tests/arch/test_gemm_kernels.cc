/** @file Property tests for the SIMD tiers: the VNNI dense dot must
 *  match its scalar loop bit for bit, and the forced-cap dispatcher
 *  used by the benches' --simd flag must switch it off below its
 *  tier (dbbGemm at both caps: tests/arch/test_gemm_plan.cc). On
 *  x86-64 every build compiles both tiers, so each probe must report
 *  exactly what the CPU has — a tier test can only skip because the
 *  CPU lacks the tier, never because the build dropped it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "base/random.hh"

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
    const bool vnni = __builtin_cpu_supports("avx512bw") &&
                      __builtin_cpu_supports("avx512vnni");
    EXPECT_EQ(dbbVnniKernelSupportedImpl(), vnni);
    EXPECT_EQ(dbbAvx512KernelSupportedImpl(), vnni);
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
    // switch the VNNI dense dot off (a forced "scalar" run may not
    // execute a single AVX-512 instruction); the avx512 cap falls
    // back to the widest tier.
    dbbForceKernelCap(DbbKernelKind::Scalar);
    EXPECT_EQ(dbbKernelCap(), DbbKernelKind::Scalar);
    EXPECT_EQ(dbbActiveKernel(), DbbKernelKind::Scalar);
    EXPECT_FALSE(dbbVnniDenseEnabled());
    dbbForceKernelCap(DbbKernelKind::Avx512); // restore auto
    EXPECT_EQ(dbbKernelCap(), DbbKernelKind::Avx512);
    EXPECT_EQ(dbbVnniDenseEnabled(), dbbVnniKernelSupportedImpl());
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
