/** @file Unit tests for the operand non-zero profile: the dense
 *  reference scan, and the mask-derived profile against it. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/array_model.hh"
#include "core/dbb.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(OperandProfile, CountsMatchBruteForce)
{
    Rng rng(1);
    const GemmProblem p =
        makeUnstructuredGemm(13, 24, 9, 0.6, 0.4, rng);
    const OperandProfile prof = OperandProfile::build(p);

    // Brute-force recount.
    int64_t matched = 0;
    for (int i = 0; i < p.m; ++i) {
        int row_nz = 0;
        for (int kk = 0; kk < p.k; ++kk)
            row_nz += p.actAt(i, kk) != 0;
        EXPECT_EQ(prof.row_nz[static_cast<size_t>(i)], row_nz);
    }
    for (int j = 0; j < p.n; ++j) {
        int col_nz = 0;
        for (int kk = 0; kk < p.k; ++kk)
            col_nz += p.wgtAt(kk, j) != 0;
        EXPECT_EQ(prof.col_nz[static_cast<size_t>(j)], col_nz);
    }
    for (int i = 0; i < p.m; ++i)
        for (int j = 0; j < p.n; ++j)
            for (int kk = 0; kk < p.k; ++kk)
                matched += p.actAt(i, kk) != 0 &&
                           p.wgtAt(kk, j) != 0;
    EXPECT_EQ(prof.matched_products, matched);
}

TEST(OperandProfile, ExactSparsityFromGenerator)
{
    Rng rng(2);
    // 50% weight, 75% activation sparsity with exact per-vector
    // counts.
    const GemmProblem p =
        makeUnstructuredGemm(16, 32, 8, 0.5, 0.75, rng);
    const OperandProfile prof = OperandProfile::build(p);
    EXPECT_EQ(prof.act_nnz, 16 * 8);  // 25% of 32 per row
    EXPECT_EQ(prof.wgt_nnz, 8 * 16);  // 50% of 32 per column
}

TEST(OperandProfile, MatchedProductsIdentity)
{
    // matched == sum_k actNz(k) * wgtNz(k) by definition; verify
    // the identity holds on structured data too.
    Rng rng(3);
    const GemmProblem p = makeDbbGemm(10, 40, 6, 4, 2, rng);
    const OperandProfile prof = OperandProfile::build(p);
    int64_t expect = 0;
    for (int kk = 0; kk < p.k; ++kk)
        expect += static_cast<int64_t>(
                      prof.act_nz_at_k[static_cast<size_t>(kk)]) *
                  prof.wgt_nz_at_k[static_cast<size_t>(kk)];
    EXPECT_EQ(prof.matched_products, expect);
    // DBB 2/8 activations: exactly 2 per block per row.
    EXPECT_EQ(prof.act_nnz, 10ll * (40 / 8) * 2);
    EXPECT_EQ(prof.wgt_nnz, 6ll * (40 / 8) * 4);
}

void
expectProfilesEqual(const OperandProfile &a, const OperandProfile &b)
{
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.row_nz, b.row_nz);
    EXPECT_EQ(a.col_nz, b.col_nz);
    EXPECT_EQ(a.act_nz_at_k, b.act_nz_at_k);
    EXPECT_EQ(a.wgt_nz_at_k, b.wgt_nz_at_k);
    EXPECT_EQ(a.act_nnz, b.act_nnz);
    EXPECT_EQ(a.wgt_nnz, b.wgt_nnz);
    EXPECT_EQ(a.matched_products, b.matched_products);
}

/** The unpadded im2col GEMM of one ungrouped layer with random
 *  DBB operands: profile positions then carry the kernel-tap
 *  structure (zero pad rings, per-tap channel segments) instead of
 *  uniform noise. */
GemmProblem
convGemm(const Conv2dShape &shape, Rng &rng)
{
    const Int8Tensor input = makeDbbTensor(
        {shape.in_h, shape.in_w, shape.in_c},
        1 << rng.uniformInt(0, 3), rng);
    const Int8Tensor weights = makeDbbWeights(
        {shape.kernel_h, shape.kernel_w, shape.in_c, shape.out_c},
        static_cast<int>(rng.uniformInt(1, 8)), rng);
    return im2colLowerAll(shape, input, weights, 1)[0];
}

TEST(OperandProfile, FromDbbMatchesDenseScanOnConvCorpus)
{
    // fromDbb counts mask bits eight blocks at a time in byte-wide
    // counters, flushed every 255 vectors and at the end of each
    // eight-block column; the dense scan is the reference. Small
    // random layers, then vectors of 126 to 144 blocks (1152
    // positions: a 3x3 kernel over 128 channels) with ragged block
    // and column tails, and 289 or 529 output rows and 300 output
    // channels, so the counters flush inside a column.
    // {in_c, h, w, out_c, kernel_h, kernel_w, stride, pad, groups}
    std::vector<Conv2dShape> layers = {
        {112, 9, 9, 40, 3, 3, 1, 1, 1},     // K 1008: 126 blocks
        {1015, 9, 9, 24, 1, 1, 1, 0, 1},    // 127, tail of 7
        {1024, 17, 17, 300, 1, 1, 1, 0, 1}, // 128; m 289, n 300
        {113, 17, 17, 24, 3, 3, 1, 1, 1},   // 128, tail of 1
        {1031, 9, 9, 24, 1, 1, 1, 0, 1},    // 129, tail of 7
        {128, 23, 23, 300, 3, 3, 1, 1, 1},  // 144; m 529
    };
    Rng rng(0xF0CC);
    const int kern[] = {1, 2, 3, 5};
    for (int trial = 0; trial < 12; ++trial) {
        layers.push_back(
            {static_cast<int>(rng.uniformInt(1, 24)),
             static_cast<int>(rng.uniformInt(6, 14)),
             static_cast<int>(rng.uniformInt(6, 14)),
             static_cast<int>(rng.uniformInt(1, 24)),
             kern[rng.uniformInt(0, 3)], kern[rng.uniformInt(0, 3)],
             static_cast<int>(rng.uniformInt(1, 2)),
             static_cast<int>(rng.uniformInt(0, 1)), 1});
    }
    for (const Conv2dShape &shape : layers) {
        const GemmProblem p = convGemm(shape, rng);
        const OperandProfile ref = OperandProfile::build(p);
        for (const int bz : {4, 8}) {
            SCOPED_TRACE("m " + std::to_string(p.m) + " k " +
                         std::to_string(p.k) + " n " +
                         std::to_string(p.n) + " bz " +
                         std::to_string(bz));
            const DbbSpec all{bz, bz};
            expectProfilesEqual(
                OperandProfile::fromDbb(
                    p, DbbMatrix::fromActivations(p, all),
                    DbbMatrix::fromWeights(p, all)),
                ref);
        }
    }
}

} // anonymous namespace
} // namespace s2ta
