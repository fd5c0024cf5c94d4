/** @file Direct convolution vs im2col+GEMM equivalence tests. */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "base/random.hh"
#include "tensor/conv.hh"

namespace s2ta {
namespace {

/** Fill a tensor with ~50% random non-zeros. */
void
randomFill(Int8Tensor &t, Rng &rng)
{
    for (int64_t i = 0; i < t.size(); ++i)
        t.flat(i) = rng.bernoulli(0.5) ? rng.nonZeroInt8() : 0;
}

/** The scalar engine's path: one padded GEMM per group, each
 *  result scattered into the output. */
Int32Tensor
viaIm2col(const Conv2dShape &shape, const Int8Tensor &input,
          const Int8Tensor &weights, int align)
{
    Int32Tensor out({shape.outH(), shape.outW(), shape.out_c}, 0);
    const std::vector<GemmProblem> problems =
        im2colLowerAll(shape, input, weights, align);
    for (int g = 0; g < shape.groups; ++g) {
        scatterGemmResult(shape, g,
                          gemmReference(problems[static_cast<size_t>(g)]),
                          out);
    }
    return out;
}

/** The fast engine's path: one grouped GEMM whose result is the
 *  output tensor. */
Int32Tensor
viaGroupedIm2col(const Conv2dShape &shape, const Int8Tensor &input,
                 const Int8Tensor &weights, int align, int batch = 1)
{
    std::vector<int> out_shape = {shape.outH(), shape.outW(),
                                  shape.out_c};
    if (batch > 1)
        out_shape.insert(out_shape.begin(), batch);
    return Int32Tensor(out_shape,
                       gemmReference(im2colLowerGrouped(
                           shape, input, weights, align, batch)));
}

/**
 * The grouped lowering stores exactly im2colLowerAll's values minus
 * the padding: group g's column block of @p grouped, tap by tap,
 * holds the first groupInC entries of each of @p padded[g]'s
 * channel segments, and every padding entry of @p padded is zero.
 */
void
expectGroupedIsUnpadded(const Conv2dShape &shape,
                        const GemmProblem &grouped,
                        const std::vector<GemmProblem> &padded)
{
    const int gc = shape.groupInC();
    const int taps = shape.kernel_h * shape.kernel_w;
    ASSERT_EQ(grouped.groups, shape.groups);
    ASSERT_EQ(grouped.k, taps * gc);
    ASSERT_EQ(grouped.seg, gc);
    for (int g = 0; g < shape.groups; ++g) {
        const GemmProblem &p = padded[static_cast<size_t>(g)];
        ASSERT_EQ(grouped.m, p.m);
        ASSERT_EQ(grouped.n, p.n);
        ASSERT_EQ(grouped.modeledK(), p.k);
        const int seg = p.k / taps;
        for (int t = 0; t < taps; ++t) {
            for (int c = 0; c < seg; ++c) {
                const int kk = t * seg + c;
                for (int i = 0; i < p.m; ++i) {
                    const int8_t want =
                        c < gc ? grouped.actAt(i, g * grouped.k +
                                                      t * gc + c)
                               : 0;
                    ASSERT_EQ(p.actAt(i, kk), want)
                        << "group " << g << " row " << i << " k " << kk;
                }
                for (int j = 0; j < p.n; ++j) {
                    const int8_t want =
                        c < gc ? grouped.wgtAt(t * gc + c,
                                               g * grouped.n + j)
                               : 0;
                    ASSERT_EQ(p.wgtAt(kk, j), want)
                        << "group " << g << " col " << j << " k " << kk;
                }
            }
        }
    }
}

TEST(ConvShape, OutputGeometry)
{
    Conv2dShape s{3, 227, 227, 96, 11, 11, 4, 0, 1};
    EXPECT_TRUE(s.valid());
    EXPECT_EQ(s.outH(), 55);
    EXPECT_EQ(s.outW(), 55);
    EXPECT_EQ(s.denseMacs(),
              55ll * 55 * 96 * 11 * 11 * 3);
}

TEST(ConvShape, DepthwiseGrouping)
{
    Conv2dShape s{32, 14, 14, 32, 3, 3, 1, 1, 32};
    EXPECT_TRUE(s.valid());
    EXPECT_EQ(s.groupInC(), 1);
    EXPECT_EQ(s.groupOutC(), 1);
}

TEST(ConvShape, InvalidShapesRejected)
{
    Conv2dShape s{3, 8, 8, 16, 3, 3, 1, 1, 2}; // in_c % groups != 0
    EXPECT_FALSE(s.valid());
    Conv2dShape z{0, 8, 8, 16, 3, 3, 1, 1, 1};
    EXPECT_FALSE(z.valid());
}

/** (in_c, size, out_c, kernel, stride, pad, groups, align). */
using ConvCase = std::tuple<int, int, int, int, int, int, int, int>;

class ConvEquivalence : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvEquivalence, Im2colMatchesDirect)
{
    const auto [in_c, size, out_c, kernel, stride, pad, groups,
                align] = GetParam();
    Conv2dShape shape{in_c, size, size, out_c, kernel, kernel,
                      stride, pad, groups};
    ASSERT_TRUE(shape.valid());

    Rng rng(static_cast<uint64_t>(in_c * 131 + size * 17 + kernel));
    Int8Tensor input({shape.in_h, shape.in_w, shape.in_c});
    Int8Tensor weights({shape.kernel_h, shape.kernel_w,
                        shape.groupInC(), shape.out_c});
    randomFill(input, rng);
    randomFill(weights, rng);

    const Int32Tensor direct = convReference(shape, input, weights);
    EXPECT_TRUE(direct == viaIm2col(shape, input, weights, align));
    EXPECT_TRUE(direct ==
                viaGroupedIm2col(shape, input, weights, align));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalence,
    ::testing::Values(
        // 1x1 pointwise
        ConvCase{16, 6, 24, 1, 1, 0, 1, 8},
        // 3x3 same-pad
        ConvCase{8, 9, 12, 3, 1, 1, 1, 8},
        // channel count not a multiple of the alignment
        ConvCase{5, 7, 9, 3, 1, 1, 1, 8},
        // strided, no padding
        ConvCase{3, 11, 7, 3, 2, 0, 1, 8},
        // large kernel, big stride (AlexNet conv1 style)
        ConvCase{3, 23, 8, 11, 4, 0, 1, 8},
        // depthwise
        ConvCase{16, 8, 16, 3, 1, 1, 16, 8},
        // grouped (2 groups)
        ConvCase{8, 6, 12, 3, 1, 1, 2, 8},
        // no channel alignment (dense baselines)
        ConvCase{5, 7, 9, 3, 1, 1, 1, 1},
        // stride 2 with pad
        ConvCase{12, 10, 6, 3, 2, 1, 1, 8}));

TEST(Im2col, BatchedLoweringMatchesDirectPerSample)
{
    // A batched lowering against convReference on each sample:
    // batch folds into the GEMM M axis and the batched scatter must
    // land sample s in output slab s.
    const Conv2dShape shape{8, 7, 7, 12, 3, 3, 1, 1, 2};
    const int batch = 3;
    Rng rng(0xB47);
    Int8Tensor input({batch, shape.in_h, shape.in_w, shape.in_c});
    Int8Tensor weights({shape.kernel_h, shape.kernel_w,
                        shape.groupInC(), shape.out_c});
    randomFill(input, rng);
    randomFill(weights, rng);

    Int32Tensor out(
        {batch, shape.outH(), shape.outW(), shape.out_c}, 0);
    const auto problems =
        im2colLowerAll(shape, input, weights, 8, batch);
    // The grouped lowering stores the same values without padding
    // and computes the same output in one GEMM.
    expectGroupedIsUnpadded(
        shape, im2colLowerGrouped(shape, input, weights, 8, batch),
        problems);
    for (int g = 0; g < shape.groups; ++g) {
        scatterGemmResult(
            shape, g,
            gemmReference(problems[static_cast<size_t>(g)]), out,
            batch);
    }
    EXPECT_TRUE(out ==
                viaGroupedIm2col(shape, input, weights, 8, batch));

    const int64_t in_stride = static_cast<int64_t>(shape.in_h) *
                              shape.in_w * shape.in_c;
    const int64_t out_stride = static_cast<int64_t>(shape.outH()) *
                               shape.outW() * shape.out_c;
    for (int s = 0; s < batch; ++s) {
        Int8Tensor one({shape.in_h, shape.in_w, shape.in_c});
        for (int64_t i = 0; i < in_stride; ++i)
            one.flat(i) = input.flat(s * in_stride + i);
        const Int32Tensor ref =
            convReference(shape, one, weights);
        for (int64_t i = 0; i < out_stride; ++i) {
            ASSERT_EQ(out.flat(s * out_stride + i), ref.flat(i))
                << "sample " << s << " element " << i;
        }
    }
}

TEST(Im2col, PadsChannelSegmentsToAlignment)
{
    Conv2dShape shape{3, 4, 4, 2, 3, 3, 1, 1, 1};
    Int8Tensor input({4, 4, 3}, 1);
    Int8Tensor weights({3, 3, 3, 2}, 1);
    const std::vector<GemmProblem> padded =
        im2colLowerAll(shape, input, weights, 8);
    ASSERT_EQ(padded.size(), 1u);
    const GemmProblem &p = padded[0];
    // Each of the 9 kernel taps gets an 8-aligned channel segment.
    EXPECT_EQ(p.k, 9 * 8);
    EXPECT_EQ(p.m, 16);
    EXPECT_EQ(p.n, 2);
    // Padding positions must be zero in both operands.
    for (int tap = 0; tap < 9; ++tap) {
        for (int c = 3; c < 8; ++c) {
            EXPECT_EQ(p.wgtAt(tap * 8 + c, 0), 0);
            EXPECT_EQ(p.actAt(5, tap * 8 + c), 0);
        }
    }
    // The grouped lowering models the same padded K but stores only
    // the 27 real values per row.
    const GemmProblem g = im2colLowerGrouped(shape, input, weights, 8);
    EXPECT_EQ(g.k, 9 * 3);
    EXPECT_EQ(g.modeledK(), 9 * 8);
    EXPECT_TRUE(g.padded());
    EXPECT_EQ(g.a.size(), 16u * 27);
    expectGroupedIsUnpadded(shape, g, padded);
}

} // anonymous namespace
} // namespace s2ta
