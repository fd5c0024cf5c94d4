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

TEST(DbbMatrix, CompressionRatioMatchesFormula)
{
    Rng rng(7);
    GemmProblem p = makeDbbGemm(4, 64, 4, 4, 8, rng);
    const DbbMatrix m = DbbMatrix::fromWeights(p, DbbSpec{4, 8});
    // 4/8 DBB: 5 bytes stored per 8 dense bytes (Sec. 4: "37.5%
    // reduction in weight operand bandwidth").
    EXPECT_EQ(m.compressedBytes(), m.denseBytes() * 5 / 8);
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
 *  K): the per-element reference the mask builder must match. */
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

/** The dense elements of modeled block @p b of weight column (or,
 *  with @p weights false, activation row) @p v in @p p's modeled
 *  layout: each segment of p.seg stored values starts a block, and
 *  its padding up to modeledSeg() reads zero. */
std::array<int8_t, 8>
modeledBlock(const GemmProblem &p, int bz, bool weights, int v, int b)
{
    std::array<int8_t, 8> blk{};
    for (int e = 0; e < bz; ++e) {
        const int pos = b * bz + e;
        const int s = pos / p.modeledSeg(), t = pos % p.modeledSeg();
        if (t >= p.seg)
            continue;
        const int kk = s * p.seg + t;
        blk[static_cast<size_t>(e)] =
            weights ? p.wgtAt(kk, v) : p.actAt(v, kk);
    }
    return blk;
}

TEST(DbbMatrix, MaskBuildersMatchPerBlockReference)
{
    // K = 1027 leaves a ragged tail block for every bz > 1. The
    // column counts sit on both sides of the transpose's 8 x 8
    // squares. Every mask of both operands must equal the
    // independent per-element dbbEncode of its dense block.
    for (int bz = 1; bz <= 8; ++bz) {
        for (const int n : {1, 15, 17, 63, 65, 101}) {
            SCOPED_TRACE("n " + std::to_string(n));
            Rng rng(static_cast<uint64_t>(0xD0 + bz + 16 * n));
            GemmProblem p(37, 1027, n);
            fillRandom(p.a, rng);
            fillRandom(p.w, rng);
            const DbbSpec spec{bz, bz};
            const int nb = (p.k + bz - 1) / bz;

            const DbbMatrix wm = DbbMatrix::fromWeights(p, spec);
            ASSERT_EQ(wm.vectors(), p.n);
            ASSERT_EQ(wm.blocksPerVector(), nb);
            for (int j = 0; j < p.n; ++j) {
                for (int b = 0; b < nb; ++b) {
                    ASSERT_EQ(wm.mask(j, b),
                              referenceWeightBlock(p, spec, j, b).mask)
                        << "bz " << bz << " col " << j << " block " << b;
                }
            }

            const DbbMatrix am = DbbMatrix::fromActivations(p, spec);
            ASSERT_EQ(am.vectors(), p.m);
            ASSERT_EQ(am.blocksPerVector(), nb);
            for (int i = 0; i < p.m; ++i) {
                for (int b = 0; b < nb; ++b) {
                    ASSERT_EQ(am.mask(i, b),
                              referenceActivationBlock(p, spec, i, b).mask)
                        << "bz " << bz << " row " << i << " block " << b;
                }
            }
        }
    }

    // One- and three-value segments (a depthwise tap, a 3-channel
    // stem) modeled padded to bz 8: each segment is one block whose
    // positions past the stored values stay unset, at column counts
    // on both sides of the mask builder's 8-column words.
    const DbbSpec spec{8, 8};
    for (const int seg : {1, 3}) {
        for (const int n : {1, 15, 17, 63, 65, 101}) {
            Rng rng(static_cast<uint64_t>(0x5E0 + seg + 16 * n));
            GemmProblem p(21, 342 * seg, n);
            p.seg = seg;
            p.seg_align = 8;
            fillRandom(p.a, rng);
            fillRandom(p.w, rng);
            const DbbMatrix wm = DbbMatrix::fromWeights(p, spec);
            const DbbMatrix am = DbbMatrix::fromActivations(p, spec);
            ASSERT_EQ(wm.blocksPerVector(), 342);
            ASSERT_EQ(am.blocksPerVector(), 342);
            for (int b = 0; b < 342; ++b) {
                for (int j = 0; j < p.n; ++j) {
                    const auto blk = modeledBlock(p, 8, true, j, b);
                    ASSERT_EQ(wm.mask(j, b), dbbEncode(blk, spec).mask)
                        << "seg " << seg << " n " << n << " col " << j
                        << " block " << b;
                }
                for (int i = 0; i < p.m; ++i) {
                    const auto blk = modeledBlock(p, 8, false, i, b);
                    ASSERT_EQ(am.mask(i, b), dbbEncode(blk, spec).mask)
                        << "seg " << seg << " n " << n << " row " << i
                        << " block " << b;
                }
            }
        }
    }
}

TEST(DbbMatrix, TransposedWeightsAcrossTileEdges)
{
    // The dense mirror is transposed in bands of 512 rows by 32
    // columns, so ragged K and N edges must land exactly.
    for (const int k : {1, 7, 8, 513, 1027}) {
        Rng rng(static_cast<uint64_t>(0x7A + k));
        GemmProblem p(1, k, 101);
        fillRandom(p.w, rng);
        const std::vector<int8_t> wt = transposedWeights(p);
        ASSERT_EQ(wt.size(), p.w.size());
        for (int j = 0; j < p.n; ++j)
            for (int kk = 0; kk < p.k; ++kk)
                ASSERT_EQ(wt[static_cast<size_t>(j) * p.k + kk],
                          p.wgtAt(kk, j))
                    << "k " << k << " col " << j << " row " << kk;
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

} // anonymous namespace
} // namespace s2ta
