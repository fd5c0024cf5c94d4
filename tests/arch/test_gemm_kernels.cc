/** @file Property tests for the SIMD tiers: dbbGemm over the packed
 *  weights must match gemmReference bit for bit at both dispatch caps
 *  (the SSE2 tile and the VNNI tile), serial and row-sharded, across
 *  tails in M (the 4-row tile), N (the 16-column panel and 32-column
 *  tile) and K (the 4-byte quad), on grouped and depthwise problems;
 *  and the forced-cap dispatcher used by the benches' --simd flag
 *  must switch the VNNI tile off below its tier. On x86-64 every
 *  build compiles both tiers, so each probe must report exactly what
 *  the CPU has — a tier test can only skip because the CPU lacks the
 *  tier, never because the build dropped it. Each problem's
 *  activations end where its last row does, so the ASan build catches
 *  a load past the last activation row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"

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

/** An m x k x n GEMM of @p groups groups over the whole INT8 range,
 *  about a third of each operand zero. */
GemmProblem
randomProblem(int m, int k, int n, int groups, Rng &rng)
{
    GemmProblem p(m, k, n, groups);
    for (std::vector<int8_t> *v : {&p.a, &p.w})
        for (int8_t &x : *v)
            x = rng.bernoulli(0.3)
                    ? int8_t{0}
                    : static_cast<int8_t>(rng.uniformInt(-128, 127));
    return p;
}

/**
 * dbbGemm on @p p at both caps, serial and sharded over 2 and 4
 * lanes, against gemmReference. The output starts as a sentinel,
 * so an element no tile writes fails too.
 */
void
expectEveryTierMatchesReference(const GemmProblem &p)
{
    static ThreadPool two(1), four(3);
    SCOPED_TRACE("m " + std::to_string(p.m) + " k " + std::to_string(p.k) +
                 " n " + std::to_string(p.n) + " groups " +
                 std::to_string(p.groups));
    const GemmPlan plan = GemmPlan::build(p);
    const std::vector<int32_t> want = gemmReference(p);
    for (const DbbKernelKind cap :
         {DbbKernelKind::Scalar, DbbKernelKind::Avx512}) {
        dbbForceKernelCap(cap);
        for (ThreadPool *pool : {static_cast<ThreadPool *>(nullptr), &two,
                                 &four}) {
            std::vector<int32_t> out(want.size(), 0x7F7F7F7F);
            dbbGemm(plan, out.data(), pool);
            EXPECT_EQ(out, want)
                << "cap " << dbbKernelKindName(cap) << " lanes "
                << (pool == nullptr ? 1 : pool->workers() + 1);
        }
    }
    dbbForceKernelCap(DbbKernelKind::Avx512);
}

TEST(GemmKernels, TilesMatchReferenceAcrossTails)
{
    // Every k against every n; m walks 1 and the three 4-row tails
    // (and a row block and a half where the operands stay small).
    Rng rng(0x7117);
    const int ms[] = {1, 5, 6, 7, 98, 99};
    int next_m = 0;
    for (const int k : {1, 2, 3, 4, 5, 63, 65, 2305}) {
        for (const int n : {1, 15, 16, 17, 31, 33, 1000}) {
            int m = ms[next_m++ % 6];
            if (static_cast<int64_t>(k) * n > 100000)
                m = std::min(m, 7);
            expectEveryTierMatchesReference(randomProblem(m, k, n, 1, rng));
        }
    }
}

TEST(GemmKernels, TilesMatchReferenceAcrossStripes)
{
    // More rows than one row stripe and one row block, with a
    // 1-row tail: sharded stripes end mid-block.
    Rng rng(0x7118);
    expectEveryTierMatchesReference(randomProblem(601, 65, 33, 1, rng));
    expectEveryTierMatchesReference(randomProblem(301, 2305, 17, 1, rng));
}

TEST(GemmKernels, GroupedAndDepthwiseMatchReference)
{
    // Groups of 16 columns or more run the tiles group by group
    // (their activations and outputs interleave in each row); groups
    // of one column (depthwise) run the per-output dot.
    Rng rng(0x7119);
    for (const int k : {1, 3, 5, 63, 65})
        for (const int n : {16, 17, 33})
            expectEveryTierMatchesReference(randomProblem(7, k, n, 3, rng));
    for (const int k : {1, 2, 3, 4, 5, 9, 63, 65, 2305})
        for (const int m : {1, 6, 99})
            expectEveryTierMatchesReference(
                randomProblem(m, k, 1, k > 100 ? 4 : 32, rng));
}

TEST(GemmKernels, BiasCorrectionAtTheInt8Extremes)
{
    // vpdpbusd multiplies (a ^ 0x80) as unsigned: every activation at
    // -128 biases to 0, and weights alternating -128 and 127 give
    // the largest column sums the 128 x colsum correction meets.
    for (const int k : {4, 5, 2305}) {
        GemmProblem p(5, k, 33);
        std::fill(p.a.begin(), p.a.end(), int8_t{-128});
        for (size_t x = 0; x < p.w.size(); ++x)
            p.w[x] = x % 2 == 0 ? int8_t{127} : int8_t{-128};
        expectEveryTierMatchesReference(p);
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
    // switch the VNNI tile off (a forced "scalar" run may not
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
