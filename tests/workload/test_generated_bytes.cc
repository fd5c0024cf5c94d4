/**
 * @file
 * Golden digests of the generated workload bytes.
 *
 * Every generator draws from one seeded Rng in a fixed order, so its
 * output is a pure function of the seed. The FNV-1a digests below
 * were recorded from the generators as first written (per-block
 * sorted chooseK draws, a stride-n column scatter for GEMM weights,
 * and a full channel-innermost temporary transposed element by
 * element for model weights); any rewrite must reproduce them byte
 * for byte, or every golden result downstream moves.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "nn/model_zoo.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

constexpr uint64_t kSeed = 0x5EED;

/** FNV-1a (64-bit) over @p n bytes, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const int8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= static_cast<uint8_t>(p[i]);
        h *= 0x100000001b3ull;
    }
    return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t
digest(const Int8Tensor &t, uint64_t h = kFnvBasis)
{
    return fnv1a(h, t.data(), static_cast<size_t>(t.size()));
}

/** Every layer's input, then its weights, in layer order. */
uint64_t
digest(const ModelWorkload &mw)
{
    uint64_t h = kFnvBasis;
    for (const LayerWorkload &wl : mw.layers)
        h = digest(wl.weights, digest(wl.input, h));
    return h;
}

uint64_t
digest(const GemmProblem &p)
{
    return fnv1a(fnv1a(kFnvBasis, p.a.data(), p.a.size()), p.w.data(),
                 p.w.size());
}

// The five zoo models cover dense (unstructured) first layers,
// grouped and depthwise layers with padded channel segments, and
// out_c values that are not a multiple of any tile width (AlexNet
// fc8's 1000, LeNet-5's 6, 16 and 10).
TEST(GeneratedBytes, ZooModelWorkloads)
{
    const struct
    {
        ModelSpec spec;
        uint64_t digest;
    } cases[] = {
        {leNet5(), 0x7ef8f4f88b5f46cbull},
        {alexNet(), 0xc1db0806b14ea023ull},
        {vgg16(), 0x6af067ead4a4d492ull},
        {mobileNetV1(), 0xc75a2c07fc187709ull},
        {resNet50(), 0x8364d6f623ca6a00ull},
    };
    for (const auto &c : cases) {
        Rng rng(kSeed);
        EXPECT_EQ(digest(buildModelWorkload(c.spec, rng)), c.digest)
            << c.spec.name;
    }
}

TEST(GeneratedBytes, DistinctBatch)
{
    Rng rng(kSeed);
    const ModelWorkload base = buildModelWorkload(alexNet(), rng);
    EXPECT_EQ(digest(withDistinctBatch(base, 3, 0xBA7C4)),
              0x4dda29c3be3999a0ull);
}

TEST(GeneratedBytes, DbbGemm)
{
    Rng rng(kSeed);
    EXPECT_EQ(digest(makeDbbGemm(37, 96, 45, 3, 2, rng)),
              0xc6a36bf8a36b81a9ull);
    EXPECT_EQ(digest(makeDbbGemm(29, 100, 70, 1, 3, rng, 4)),
              0xb705b4f770d5bbb3ull);
    EXPECT_EQ(digest(makeDbbGemm(5, 64, 130, 8, 0, rng)),
              0xc8d772da7e1ecc51ull);
}

// k > 64 takes chooseK's heap path, k <= 64 the per-vector sampler.
TEST(GeneratedBytes, UnstructuredGemm)
{
    Rng rng(kSeed);
    EXPECT_EQ(digest(makeUnstructuredGemm(9, 200, 11, 0.6, 0.3, rng)),
              0x63c99b1dbe5a342cull);
    EXPECT_EQ(digest(makeUnstructuredGemm(13, 40, 70, 0.25, 0.5, rng)),
              0x45f3fb47b8910f2aull);
}

// Channels 3 and 13 leave tail blocks shorter than bz.
TEST(GeneratedBytes, DbbTensorTails)
{
    const struct
    {
        int channels, bz, nnz;
        uint64_t digest;
    } cases[] = {
        {3, 4, 2, 0xc53b5b5487b00fd1ull},
        {13, 4, 3, 0x8120c13f7aaf0570ull},
        {3, 8, 2, 0x3c7fab8798336e0full},
        {13, 8, 3, 0x9177db10c4504e22ull},
    };
    Rng rng(kSeed);
    for (const auto &c : cases) {
        EXPECT_EQ(digest(makeDbbTensor({5, 7, c.channels}, c.nnz, rng,
                                       c.bz)),
                  c.digest)
            << "channels " << c.channels << " bz " << c.bz;
    }
}

} // anonymous namespace
} // namespace s2ta
