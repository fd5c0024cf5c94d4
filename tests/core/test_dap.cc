/** @file Unit tests for Dynamic Activation Pruning (software
 *  reference and the Fig. 8 hardware cascade model). */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>

#include "base/random.hh"
#include "core/dap.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(DapUnit, MatchesFig8Example)
{
    // Paper Fig. 8 input block; for 4/8 DBB the output elements are
    // [4, 5, -7, 6] (positions 1, 3, 7, 5 in magnitude order).
    const std::array<int8_t, 8> blk = {0, 4, 1, 5, 2, 6, -1, -7};
    DapUnit dap;
    const auto res = dap.process(blk, 4);
    ASSERT_EQ(res.winner_positions.size(), 4u);
    EXPECT_EQ(res.winner_positions[0], 7); // |-7|
    EXPECT_EQ(res.winner_positions[1], 5); // |6|
    EXPECT_EQ(res.winner_positions[2], 3); // |5|
    EXPECT_EQ(res.winner_positions[3], 1); // |4|
    EXPECT_EQ(res.comparisons, 4 * 7);
}

class DapAgreement : public ::testing::TestWithParam<int>
{
};

TEST_P(DapAgreement, HardwareCascadeEqualsReference)
{
    const int nnz = GetParam();
    Rng rng(static_cast<uint64_t>(100 + nnz));
    DapUnit dap;
    for (int trial = 0; trial < 2000; ++trial) {
        std::array<int8_t, 8> blk{};
        for (auto &v : blk) {
            v = rng.bernoulli(0.35)
                    ? 0
                    : static_cast<int8_t>(rng.uniformInt(-128, 127));
        }
        const Mask8 ref = dapSelectMask(blk, nnz);
        const auto hw = dap.process(blk, nnz);
        EXPECT_EQ(hw.mask, ref)
            << "nnz=" << nnz << " trial=" << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSupportedNnz, DapAgreement,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(DapUnit, DenseBypassFlagsNonZerosWithoutComparisons)
{
    const std::array<int8_t, 8> blk = {0, 4, 0, 5, 0, 6, 0, -7};
    DapUnit dap;
    const auto res = dap.process(blk, 8);
    EXPECT_EQ(res.comparisons, 0);
    EXPECT_EQ(maskPopcount(res.mask), 4);
}

TEST(DapUnit, StopsEarlyWhenOnlyZerosRemain)
{
    const std::array<int8_t, 8> blk = {0, 0, 9, 0, 0, 0, 0, 0};
    DapUnit dap;
    const auto res = dap.process(blk, 4);
    // One non-zero: later stages select nothing and the mask stays
    // at one bit, but every stage's comparators still switch.
    EXPECT_EQ(maskPopcount(res.mask), 1);
    ASSERT_EQ(res.winner_positions.size(), 1u);
    EXPECT_EQ(res.winner_positions[0], 2);
    EXPECT_EQ(res.comparisons, 4 * 7);
}

TEST(DapUnitDeath, UnsupportedNnzRejected)
{
    const std::array<int8_t, 8> blk{};
    DapUnit dap; // max_stages = 5
    EXPECT_DEATH(dap.process(blk, 6), "unsupported NNZ");
    EXPECT_DEATH(dap.process(blk, 0), "unsupported NNZ");
}

TEST(DapPrune, TensorEnforcesBoundAndCountsDrops)
{
    Rng rng(7);
    Int8Tensor t = makeUnstructuredTensor({4, 4, 16}, 0.3, rng);
    const DapStats st = dapPruneTensor(t, 3);
    // Every 8-channel block now has at most 3 non-zeros.
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            for (int b = 0; b < 2; ++b) {
                int nz = 0;
                for (int c = 0; c < 8; ++c)
                    nz += t(y, x, b * 8 + c) != 0;
                EXPECT_LE(nz, 3);
            }
        }
    }
    EXPECT_GT(st.nonzeros_dropped, 0);
    EXPECT_GT(st.l2_retained, 0.5);
    EXPECT_LT(st.l2_retained, 1.0);
    // 4*4*2 blocks, 3 stages of 7 comparisons each.
    EXPECT_EQ(st.blocks, 32);
    EXPECT_EQ(st.comparisons, 32 * 3 * 7);
}

TEST(DapPrune, TopNnzKeepsLargestMagnitudesPerBlock)
{
    Int8Tensor t({1, 1, 8});
    const int8_t vals[8] = {3, -100, 7, 50, -2, 60, 1, -4};
    for (int c = 0; c < 8; ++c)
        t(0, 0, c) = vals[c];
    dapPruneTensor(t, 3);
    EXPECT_EQ(t(0, 0, 1), -100);
    EXPECT_EQ(t(0, 0, 5), 60);
    EXPECT_EQ(t(0, 0, 3), 50);
    EXPECT_EQ(t(0, 0, 0), 0);
    EXPECT_EQ(t(0, 0, 2), 0);
}

TEST(DapPrune, AlreadyStructuredTensorLossless)
{
    Rng rng(8);
    Int8Tensor t = makeDbbTensor({4, 4, 16}, 2, rng);
    const DapStats st = dapPruneTensor(t, 2);
    EXPECT_EQ(st.nonzeros_dropped, 0);
    EXPECT_DOUBLE_EQ(st.l2_retained, 1.0);
}

TEST(DapPrune, GemmVariantPrunesRows)
{
    Rng rng(9);
    GemmProblem p = makeUnstructuredGemm(4, 32, 4, 0.5, 0.2, rng);
    dapPruneActivations(p, 2);
    for (int i = 0; i < p.m; ++i) {
        for (int b = 0; b < p.k / 8; ++b) {
            int nz = 0;
            for (int e = 0; e < 8; ++e)
                nz += p.actAt(i, b * 8 + e) != 0;
            EXPECT_LE(nz, 2);
        }
    }
}

/**
 * Per-block reference for dapPruneTensor: each BZ-block (a tail
 * block of r < 8 channels as an r-wide unit) goes through the
 * DapUnit comparator cascade, the tensor is pruned to its masks,
 * and the L2 energy is accumulated in double.
 */
DapStats
cascadeReference(Int8Tensor &t, int nnz)
{
    const int channels = t.dim(t.rank() - 1);
    DapStats st;
    double l2_before = 0.0, l2_after = 0.0;
    for (int64_t base = 0; base < t.size(); base += channels) {
        for (int off = 0; off < channels; off += 8) {
            const int len = std::min(8, channels - off);
            const int bound = std::min(nnz, len);
            const std::span<int8_t> blk(t.data() + base + off,
                                        static_cast<size_t>(len));
            for (const int8_t v : blk) {
                st.nonzeros_before += v != 0;
                l2_before += static_cast<double>(v) * v;
            }
            Mask8 keep;
            if (bound == len) {
                // Dense bypass: a len-wide unit in its 8/8 mode.
                const DapUnit unit(DapConfig{len, len});
                const auto res = unit.process(blk, len);
                EXPECT_EQ(res.comparisons, 0);
                keep = res.mask;
                ++st.bypassed_blocks;
            } else {
                const DapUnit unit(DapConfig{len, std::min(5, len)});
                const auto res = unit.process(blk, bound);
                keep = res.mask;
                st.comparisons += res.comparisons;
                ++st.blocks;
            }
            for (int i = 0; i < len; ++i) {
                int8_t &v = blk[static_cast<size_t>(i)];
                if (maskTest(keep, i)) {
                    l2_after += static_cast<double>(v) * v;
                } else {
                    st.nonzeros_dropped += v != 0;
                    v = 0;
                }
            }
        }
    }
    st.l2_retained = l2_before > 0.0 ? l2_after / l2_before : 1.0;
    return st;
}

/**
 * A tensor whose blocks hold a uniformly random number of
 * non-zeros (0 to the block length), so every bound meets blocks
 * under, at and over it. Half the blocks draw from a 3-magnitude
 * alphabet so the cascade's lowest-index tie-break is exercised.
 */
Int8Tensor
mixedDensityTensor(const std::vector<int> &shape, Rng &rng)
{
    Int8Tensor t(shape);
    const int channels = shape.back();
    for (int64_t base = 0; base < t.size(); base += channels) {
        for (int off = 0; off < channels; off += 8) {
            const int len = std::min(8, channels - off);
            const int nz = static_cast<int>(rng.uniformInt(0, len));
            const bool ties = rng.bernoulli(0.5);
            for (int pos : rng.chooseK(len, nz)) {
                int8_t v = rng.nonZeroInt8();
                if (ties) {
                    v = static_cast<int8_t>(
                        (rng.bernoulli(0.5) ? 1 : -1) *
                        (1 + rng.uniformInt(0, 2)) * 40);
                }
                t.data()[base + off + pos] = v;
            }
        }
    }
    return t;
}

TEST(DapPrune, TensorMatchesPerBlockCascade)
{
    // Channel counts with a 5-wide tail block (13), whole blocks
    // only (72) and a tensor narrower than one block (3).
    const std::vector<std::vector<int>> shapes = {
        {6, 7, 13}, {3, 5, 72}, {4, 4, 3}};
    for (const int nnz : {1, 2, 3, 4, 5, 8}) {
        for (size_t s = 0; s < shapes.size(); ++s) {
            Rng rng(0xDA0 + 16 * static_cast<uint64_t>(nnz) + s);
            const Int8Tensor input = mixedDensityTensor(shapes[s], rng);
            Int8Tensor pruned = input;
            Int8Tensor expected = input;
            const DapStats got = dapPruneTensor(pruned, nnz);
            const DapStats ref = cascadeReference(expected, nnz);
            const std::string at = "nnz " + std::to_string(nnz) +
                                   " shape " + std::to_string(s);
            EXPECT_EQ(got.blocks, ref.blocks) << at;
            EXPECT_EQ(got.bypassed_blocks, ref.bypassed_blocks) << at;
            EXPECT_EQ(got.comparisons, ref.comparisons) << at;
            EXPECT_EQ(got.nonzeros_dropped, ref.nonzeros_dropped) << at;
            EXPECT_EQ(got.nonzeros_before, ref.nonzeros_before) << at;
            EXPECT_TRUE(got.l2_retained == ref.l2_retained)
                << at << ": " << got.l2_retained << " vs "
                << ref.l2_retained;
            EXPECT_TRUE(pruned == expected) << at;
            if (nnz < std::min(8, shapes[s].back())) {
                EXPECT_GT(ref.nonzeros_dropped, 0) << at;
            }
        }
    }
}

TEST(ChooseLayerNnz, DenseDataNeedsBypass)
{
    Rng rng(10);
    // Nearly dense activations: no small NNZ can retain 98% energy.
    Int8Tensor t = makeUnstructuredTensor({8, 8, 32}, 0.05, rng);
    EXPECT_EQ(chooseLayerNnz(t, 0.98), 8);
}

TEST(ChooseLayerNnz, SparseDataGetsSmallNnz)
{
    Rng rng(11);
    Int8Tensor t = makeDbbTensor({8, 8, 32}, 2, rng);
    EXPECT_LE(chooseLayerNnz(t, 0.98), 2);
}

TEST(ChooseLayerNnz, MonotoneInRetentionThreshold)
{
    Rng rng(12);
    Int8Tensor t = makeUnstructuredTensor({8, 8, 32}, 0.55, rng);
    const int loose = chooseLayerNnz(t, 0.80);
    const int tight = chooseLayerNnz(t, 0.995);
    EXPECT_LE(loose, tight);
}

} // anonymous namespace
} // namespace s2ta
