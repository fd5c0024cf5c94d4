/** @file Unit tests for the DBB block codec and compressed matrix. */

#include <gtest/gtest.h>

#include <array>

#include "base/random.hh"
#include "core/dbb.hh"
#include "core/weight_pruner.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(DbbSpec, Basics)
{
    const DbbSpec s{4, 8};
    EXPECT_TRUE(s.valid());
    EXPECT_DOUBLE_EQ(s.density(), 0.5);
    EXPECT_DOUBLE_EQ(s.sparsity(), 0.5);
    EXPECT_EQ(s.toString(), "4/8");
    EXPECT_FALSE(s.isDense());
    EXPECT_EQ(s.storedBytesPerBlock(), 5);

    const DbbSpec d{8, 8};
    EXPECT_TRUE(d.isDense());
    EXPECT_EQ(d.storedBytesPerBlock(), 8);
}

TEST(DbbBlock, EncodeMatchesFig5Example)
{
    // Paper Fig. 5: a 4/8 block keeps the non-zeros and a
    // positional bitmask.
    const std::array<int8_t, 8> dense = {0, 9, 0, 5, 2, 0, 6, 0};
    const DbbBlock blk = dbbEncode(dense, DbbSpec{4, 8});
    EXPECT_EQ(blk.storedCount(), 4);
    EXPECT_EQ(blk.values[0], 9);
    EXPECT_EQ(blk.values[1], 5);
    EXPECT_EQ(blk.values[2], 2);
    EXPECT_EQ(blk.values[3], 6);
    EXPECT_TRUE(maskTest(blk.mask, 1));
    EXPECT_TRUE(maskTest(blk.mask, 3));
    EXPECT_TRUE(maskTest(blk.mask, 4));
    EXPECT_TRUE(maskTest(blk.mask, 6));
    EXPECT_EQ(maskPopcount(blk.mask), 4);
}

TEST(DbbBlock, RoundTripRandomBlocks)
{
    Rng rng(3);
    const DbbSpec spec{4, 8};
    for (int trial = 0; trial < 500; ++trial) {
        std::array<int8_t, 8> dense{};
        const int nnz = static_cast<int>(rng.uniformInt(0, 4));
        for (int pos : rng.chooseK(8, nnz))
            dense[static_cast<size_t>(pos)] = rng.nonZeroInt8();

        const DbbBlock blk = dbbEncode(dense, spec);
        std::array<int8_t, 8> back{};
        dbbDecode(blk, spec, back);
        EXPECT_EQ(dense, back) << "trial " << trial;
    }
}

TEST(DbbBlock, ExpandedAtReturnsZeroForUnsetPositions)
{
    const std::array<int8_t, 8> dense = {0, 0, 0, -3, 0, 0, 0, 0};
    const DbbBlock blk = dbbEncode(dense, DbbSpec{4, 8});
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(blk.expandedAt(i), dense[static_cast<size_t>(i)]);
}

TEST(DbbBlockDeath, OverDenseBlockRejected)
{
    const std::array<int8_t, 8> dense = {1, 2, 3, 4, 5, 0, 0, 0};
    EXPECT_DEATH(dbbEncode(dense, DbbSpec{4, 8}), "density bound");
}

TEST(DbbBlock, SatisfiesChecksBound)
{
    const std::array<int8_t, 8> four = {1, 2, 3, 4, 0, 0, 0, 0};
    const std::array<int8_t, 8> five = {1, 2, 3, 4, 5, 0, 0, 0};
    EXPECT_TRUE(dbbSatisfies(four, DbbSpec{4, 8}));
    EXPECT_FALSE(dbbSatisfies(five, DbbSpec{4, 8}));
    EXPECT_TRUE(dbbSatisfies(five, DbbSpec{5, 8}));
}

TEST(DbbMatrix, WeightRoundTrip)
{
    Rng rng(5);
    GemmProblem p = makeDbbGemm(4, 32, 6, 4, 8, rng);
    const DbbMatrix m = DbbMatrix::fromWeights(p, DbbSpec{4, 8});
    EXPECT_EQ(m.vectors(), p.n);
    EXPECT_EQ(m.blocksPerVector(), p.k / 8);

    const auto dense = m.toDense();
    for (int j = 0; j < p.n; ++j)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(dense[static_cast<size_t>(j) * p.k + kk],
                      p.wgtAt(kk, j));
}

TEST(DbbMatrix, ActivationRoundTrip)
{
    Rng rng(6);
    GemmProblem p = makeDbbGemm(5, 24, 3, 8, 3, rng);
    const DbbMatrix m = DbbMatrix::fromActivations(p, DbbSpec{3, 8});
    const auto dense = m.toDense();
    for (int i = 0; i < p.m; ++i)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(dense[static_cast<size_t>(i) * p.k + kk],
                      p.actAt(i, kk));
}

TEST(DbbMatrix, CompressionRatioMatchesFormula)
{
    Rng rng(7);
    GemmProblem p = makeDbbGemm(4, 64, 4, 4, 8, rng);
    const DbbMatrix m = DbbMatrix::fromWeights(p, DbbSpec{4, 8});
    // 4/8 DBB: 5 bytes stored per 8 dense bytes (Sec. 4: "37.5%
    // reduction in weight operand bandwidth").
    EXPECT_EQ(m.compressedBytes(), m.denseBytes() * 5 / 8);
    // Fully occupied blocks -> occupancy 1.
    EXPECT_DOUBLE_EQ(m.occupancy(), 1.0);
}

/** Random int8 operand data: about half zeros, the rest spanning
 *  the full range (including -128 and 127). */
void
fillRandom(std::vector<int8_t> &v, Rng &rng)
{
    for (int8_t &x : v) {
        x = rng.bernoulli(0.5)
                ? 0
                : static_cast<int8_t>(rng.uniformInt(-128, 127));
    }
}

/** dbbEncode of dense block @p b of weight column @p j (zero past
 *  K): the per-element reference the tiled encoder must match. */
DbbBlock
referenceWeightBlock(const GemmProblem &p, const DbbSpec &spec, int j,
                     int b)
{
    std::array<int8_t, 8> blk{};
    for (int e = 0; e < spec.bz && b * spec.bz + e < p.k; ++e)
        blk[static_cast<size_t>(e)] = p.wgtAt(b * spec.bz + e, j);
    return dbbEncode(std::span<const int8_t>(blk.data(),
                                             static_cast<size_t>(spec.bz)),
                     spec);
}

/** The same for block @p b of activation row @p i. */
DbbBlock
referenceActivationBlock(const GemmProblem &p, const DbbSpec &spec,
                         int i, int b)
{
    std::array<int8_t, 8> blk{};
    for (int e = 0; e < spec.bz && b * spec.bz + e < p.k; ++e)
        blk[static_cast<size_t>(e)] = p.actAt(i, b * spec.bz + e);
    return dbbEncode(std::span<const int8_t>(blk.data(),
                                             static_cast<size_t>(spec.bz)),
                     spec);
}

bool
sameBlock(const DbbBlock &x, const DbbBlock &y)
{
    return x.mask == y.mask && x.values == y.values;
}

TEST(DbbMatrix, EncodersMatchPerBlockReferenceAcrossTileEdges)
{
    // K = 1027 leaves a ragged tail block for every bz > 1 and, in
    // blocks, crosses the encoder's 64-block tile edge (twice at bz
    // 8); N = 101 crosses its 32-column edge three times and ends
    // in a 5-column tile. Every block of both operands must equal
    // the independent per-element dbbEncode of its dense block,
    // and expanding the blocks must give back the operands.
    for (int bz = 1; bz <= 8; ++bz) {
        Rng rng(static_cast<uint64_t>(0xD0 + bz));
        GemmProblem p(37, 1027, 101);
        fillRandom(p.a, rng);
        fillRandom(p.w, rng);
        const DbbSpec spec{bz, bz};
        const int nb = (p.k + bz - 1) / bz;

        const DbbMatrix wm = DbbMatrix::fromWeights(p, spec);
        ASSERT_EQ(wm.vectors(), p.n);
        ASSERT_EQ(wm.blocksPerVector(), nb);
        for (int j = 0; j < p.n; ++j) {
            for (int b = 0; b < nb; ++b) {
                ASSERT_TRUE(sameBlock(
                    wm.block(j, b),
                    referenceWeightBlock(p, spec, j, b)))
                    << "bz " << bz << " col " << j << " block " << b;
            }
        }

        const DbbMatrix am = DbbMatrix::fromActivations(p, spec);
        ASSERT_EQ(am.vectors(), p.m);
        ASSERT_EQ(am.blocksPerVector(), nb);
        for (int i = 0; i < p.m; ++i) {
            for (int b = 0; b < nb; ++b) {
                ASSERT_TRUE(sameBlock(
                    am.block(i, b),
                    referenceActivationBlock(p, spec, i, b)))
                    << "bz " << bz << " row " << i << " block " << b;
            }
        }

        GemmProblem back(p.m, p.k, p.n);
        wm.weightsInto(back);
        am.activationsInto(back);
        EXPECT_EQ(back.w, p.w) << "bz " << bz;
        EXPECT_EQ(back.a, p.a) << "bz " << bz;
    }
}

/** A 2/8-bounded operand pair (K = 1027, N = 101) whose every block
 *  satisfies the bound. */
GemmProblem
boundedProblem()
{
    Rng rng(0xDB);
    GemmProblem p(9, 1027, 101);
    for (int kk = 0; kk < p.k; ++kk) {
        for (int j = 0; j < p.n; ++j)
            if ((kk + j) % 4 == 0)
                p.wgtAt(kk, j) = rng.nonZeroInt8();
        for (int i = 0; i < p.m; ++i)
            if ((kk + i) % 4 == 1)
                p.actAt(i, kk) = rng.nonZeroInt8();
    }
    return p;
}

TEST(DbbMatrixDeath, OverDenseBlockInLastTileRejected)
{
    const DbbSpec spec{2, 8};
    GemmProblem p = boundedProblem();
    (void)DbbMatrix::fromWeights(p, spec);
    (void)DbbMatrix::fromActivations(p, spec);

    // Weights: three non-zeros in the last column's ragged tail
    // block (rows 1024..1026), the last tile in both dimensions.
    GemmProblem w = p;
    for (int kk = 1024; kk < 1027; ++kk)
        w.wgtAt(kk, w.n - 1) = 5;
    EXPECT_DEATH((void)DbbMatrix::fromWeights(w, spec), "violates");

    // Activations: three non-zeros in the last row's tail block.
    GemmProblem a = p;
    for (int kk = 1024; kk < 1027; ++kk)
        a.actAt(a.m - 1, kk) = -5;
    EXPECT_DEATH((void)DbbMatrix::fromActivations(a, spec), "violates");
}

TEST(DbbMatrixDeath, NonZeroInPaddingTailRejected)
{
    // Expanding blocks back into K = 1027 (a 3-element tail block
    // at bz 8) must refuse a mask bit in the padding positions.
    GemmProblem p = boundedProblem();
    const DbbSpec spec{8, 8};
    const int nb = (p.k + 7) / 8;
    const DbbMatrix wm = DbbMatrix::fromWeights(p, spec);
    const DbbMatrix am = DbbMatrix::fromActivations(p, spec);
    std::vector<DbbBlock> wb(wm.vectorBlocks(0),
                             wm.vectorBlocks(0) +
                                 static_cast<size_t>(p.n) * nb);
    std::vector<DbbBlock> ab(am.vectorBlocks(0),
                             am.vectorBlocks(0) +
                                 static_cast<size_t>(p.m) * nb);
    wb.back().mask = maskSet(wb.back().mask, 3);
    ab.back().mask = maskSet(ab.back().mask, 7);
    const DbbMatrix bad_w =
        DbbMatrix::fromParts(spec, p.n, nb, std::move(wb));
    const DbbMatrix bad_a =
        DbbMatrix::fromParts(spec, p.m, nb, std::move(ab));
    GemmProblem out(p.m, p.k, p.n);
    EXPECT_DEATH(bad_w.weightsInto(out), "padding tail");
    EXPECT_DEATH(bad_a.activationsInto(out), "padding tail");
}

} // anonymous namespace
} // namespace s2ta
