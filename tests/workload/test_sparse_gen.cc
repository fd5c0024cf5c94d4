/** @file Unit tests for the sparse workload generators. */

#include <gtest/gtest.h>

#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(SparseGen, UnstructuredGemmHitsExactPerVectorCounts)
{
    Rng rng(1);
    const GemmProblem p =
        makeUnstructuredGemm(10, 40, 6, 0.75, 0.5, rng);
    for (int i = 0; i < p.m; ++i) {
        int nz = 0;
        for (int kk = 0; kk < p.k; ++kk)
            nz += p.actAt(i, kk) != 0;
        EXPECT_EQ(nz, 20) << "row " << i; // 50% of 40
    }
    for (int j = 0; j < p.n; ++j) {
        int nz = 0;
        for (int kk = 0; kk < p.k; ++kk)
            nz += p.wgtAt(kk, j) != 0;
        EXPECT_EQ(nz, 10) << "col " << j; // 25% of 40
    }
}

TEST(SparseGen, DbbGemmBoundsEveryBlock)
{
    Rng rng(2);
    const GemmProblem p = makeDbbGemm(6, 48, 5, 3, 2, rng);
    for (int i = 0; i < p.m; ++i) {
        for (int b = 0; b < p.k / 8; ++b) {
            int nz = 0;
            for (int e = 0; e < 8; ++e)
                nz += p.actAt(i, b * 8 + e) != 0;
            EXPECT_EQ(nz, 2);
        }
    }
    for (int j = 0; j < p.n; ++j) {
        for (int b = 0; b < p.k / 8; ++b) {
            int nz = 0;
            for (int e = 0; e < 8; ++e)
                nz += p.wgtAt(b * 8 + e, j) != 0;
            EXPECT_EQ(nz, 3);
        }
    }
}

TEST(SparseGen, UnstructuredTensorHitsExactGlobalCount)
{
    Rng rng(3);
    const Int8Tensor t =
        makeUnstructuredTensor({7, 9, 13}, 0.6, rng);
    int64_t nz = 0;
    for (int64_t i = 0; i < t.size(); ++i)
        nz += t.flat(i) != 0;
    const int64_t expect =
        std::llround(static_cast<double>(t.size()) * 0.4);
    EXPECT_EQ(nz, expect);
}

TEST(SparseGen, DbbTensorHandlesPartialTail)
{
    Rng rng(4);
    const Int8Tensor t = makeDbbTensor({3, 3, 11}, 2, rng);
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
            int nz_full = 0, nz_tail = 0;
            for (int c = 0; c < 8; ++c)
                nz_full += t(y, x, c) != 0;
            for (int c = 8; c < 11; ++c)
                nz_tail += t(y, x, c) != 0;
            EXPECT_EQ(nz_full, 2);
            EXPECT_EQ(nz_tail, 2); // min(2, 3)
        }
    }
}

TEST(SparseGen, ZeroAndFullSparsityEdges)
{
    Rng rng(5);
    const GemmProblem dense =
        makeUnstructuredGemm(4, 16, 4, 0.0, 0.0, rng);
    EXPECT_DOUBLE_EQ(dense.actSparsity(), 0.0);
    EXPECT_DOUBLE_EQ(dense.wgtSparsity(), 0.0);
    const GemmProblem empty =
        makeUnstructuredGemm(4, 16, 4, 1.0, 1.0, rng);
    EXPECT_DOUBLE_EQ(empty.actSparsity(), 1.0);
    EXPECT_DOUBLE_EQ(empty.wgtSparsity(), 1.0);
}

// makeDbbWeights draws in (ky, kx, oc, c) order and writes through a
// transposing chunk; it must equal makeDbbTensor over (ky, kx, oc, c)
// transposed element by element, across chunk edges (oc 1..130) and
// tail blocks (c 13).
TEST(SparseGen, DbbWeightsAreTheTransposedDbbTensor)
{
    for (int oc : {1, 7, 64, 65, 130}) {
        for (int bz : {4, 8}) {
            Rng a(19), b(19);
            const Int8Tensor t = makeDbbTensor({2, 3, oc, 13}, 3, a, bz);
            const Int8Tensor w = makeDbbWeights({2, 3, 13, oc}, 3, b, bz);
            for (int ky = 0; ky < 2; ++ky)
                for (int kx = 0; kx < 3; ++kx)
                    for (int c = 0; c < 13; ++c)
                        for (int o = 0; o < oc; ++o)
                            ASSERT_EQ(w(ky, kx, c, o), t(ky, kx, o, c))
                                << "oc " << oc << " bz " << bz;
            EXPECT_EQ(a.uniformInt(0, 1 << 30), b.uniformInt(0, 1 << 30))
                << "streams drifted apart";
        }
    }
}

TEST(SparseGen, DeterministicForFixedSeed)
{
    Rng a(7), b(7);
    const GemmProblem p1 = makeDbbGemm(4, 32, 4, 4, 2, a);
    const GemmProblem p2 = makeDbbGemm(4, 32, 4, 4, 2, b);
    EXPECT_EQ(p1.a, p2.a);
    EXPECT_EQ(p1.w, p2.w);
}

} // anonymous namespace
} // namespace s2ta
