/** @file Unit tests for the GemmPlan mask/profile cache and the
 *  dbbGemm kernel, including the grouped plan of a whole conv layer
 *  against the per-group plans of the scalar engine's lowering, and
 *  a conv plan's input-space masks against the lowered-then-masked
 *  plan. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>

#include "../integration/fuzz_layer.hh"
#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "arch/plan_cache.hh"
#include "base/thread_pool.hh"
#include "core/weight_pruner.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

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

TEST(GemmPlan, MaskProfileMatchesDenseScan)
{
    Rng rng(0xA1);
    for (int trial = 0; trial < 8; ++trial) {
        const int m = static_cast<int>(rng.uniformInt(1, 40));
        const int k = static_cast<int>(rng.uniformInt(1, 130));
        const int n = static_cast<int>(rng.uniformInt(1, 40));
        const GemmProblem p = makeUnstructuredGemm(
            m, k, n, rng.uniformReal(0.0, 0.95),
            rng.uniformReal(0.0, 0.95), rng);
        const GemmPlan plan = GemmPlan::build(p);
        expectProfilesEqual(plan.profile(), OperandProfile::build(p));
    }
}

TEST(GemmPlan, TailBlocksEncodeLosslessly)
{
    // K not a multiple of bz: the tail block zero-pads, and every
    // mask bit must still match the dense operand.
    Rng rng(0xA2);
    const GemmProblem p =
        makeUnstructuredGemm(5, 21, 7, 0.4, 0.4, rng);
    const GemmPlan plan = GemmPlan::build(p);
    EXPECT_EQ(plan.act().blocksPerVector(), 3);
    for (int i = 0; i < p.m; ++i)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(plan.act().nonZeroAt(i, kk), p.actAt(i, kk) != 0);
    for (int j = 0; j < p.n; ++j)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(plan.wgt().nonZeroAt(j, kk), p.wgtAt(kk, j) != 0);
}

TEST(GemmPlan, PackedWeightsAreTheWeightTensorInPanels)
{
    // A layer's compute entry, as Accelerator::prepareLayer builds
    // it, packs the weight tensor (the K x out_c matrix) where it
    // lies and keeps no other copy. Every byte of every group's
    // panels must be the tensor's weight or a zero pad (K to whole
    // quads, N to whole panels), every panel's sums its columns'
    // sums, and the block starts 64-byte aligned. An events-only
    // entry packs nothing. K per group (taps x channels) hits every
    // quad tail; N per group every panel tail.
    Rng rng(0xA3);
    const Conv2dShape shapes[] = {
        {8, 5, 5, 16, 1, 1, 1, 0, 1},  // K 8, one full panel
        {3, 6, 6, 17, 3, 3, 1, 1, 1},  // K 27, a 1-column panel
        {6, 4, 4, 40, 1, 1, 1, 0, 2},  // K 3, 20 columns per group
        {5, 4, 4, 33, 1, 2, 1, 0, 1},  // K 10, three panels
        {4, 5, 5, 4, 3, 3, 1, 1, 4}};  // depthwise: K 9, N 1
    for (const Conv2dShape &s : shapes) {
        LayerWorkload wl;
        wl.name = "packed";
        wl.shape = s;
        wl.input = Int8Tensor({s.in_h, s.in_w, s.in_c});
        wl.weights = Int8Tensor({s.kernel_h, s.kernel_w, s.groupInC(),
                                 s.out_c});
        for (Int8Tensor *t : {&wl.input, &wl.weights})
            for (int64_t i = 0; i < t->size(); ++i)
                t->flat(i) = static_cast<int8_t>(rng.uniformInt(-128, 127));
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::saZvcg();
        const Accelerator acc(cfg);
        NetworkRunOptions opt;
        opt.compute_output = true;
        const PreparedLayer prep = acc.prepareLayer(wl, opt);
        ASSERT_EQ(prep.cached.size(), 1u);
        const CachedPlan &entry = *prep.cached.front();
        const GemmProblem &p = entry.problem;
        EXPECT_TRUE(p.w.empty()) << "the entry copied the weights";
        const int8_t *packed = entry.plan.packedWeights();
        ASSERT_NE(packed, nullptr);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(packed) % 64, 0u);
        const int quads = (p.k + 3) / 4;
        const int panels = (p.n + kPanelCols - 1) / kPanelCols;
        const size_t stride = packedPanelStride(p.k);
        ASSERT_EQ(entry.plan.packedBytes(),
                  static_cast<size_t>(p.groups) * panels * stride);
        const int8_t *w = wl.weights.data();
        const size_t ld = static_cast<size_t>(s.out_c);
        for (int g = 0; g < p.groups; ++g) {
            for (int pn = 0; pn < panels; ++pn) {
                const int8_t *panel =
                    packed + (static_cast<size_t>(g) * panels + pn) * stride;
                int32_t sums[kPanelCols];
                std::memcpy(sums, panel + quads * kQuadBytes, sizeof(sums));
                for (int c = 0; c < kPanelCols; ++c) {
                    const int j = pn * kPanelCols + c;
                    int32_t sum = 0;
                    for (int kk = 0; kk < 4 * quads; ++kk) {
                        const bool real = kk < p.k && j < p.n;
                        const int8_t want =
                            real ? w[kk * ld + static_cast<size_t>(g) * p.n + j]
                                 : int8_t{0};
                        sum += want;
                        ASSERT_EQ(panel[(kk / 4) * kQuadBytes + c * 4 + kk % 4],
                                  want)
                            << "group " << g << " col " << j << " row " << kk;
                    }
                    EXPECT_EQ(sums[c], sum) << "group " << g << " col " << j;
                }
            }
        }
        opt.compute_output = false;
        const PreparedLayer events = acc.prepareLayer(wl, opt);
        EXPECT_EQ(events.cached.front()->plan.packedWeights(), nullptr);
    }
}

TEST(GemmPlan, DbbGemmMatchesReferenceAcrossDensities)
{
    // One contraction at every density, from near-empty operands to
    // dense ones, at both dispatch caps (the SSE2 dot, and the VNNI
    // dot where the CPU has it) and at K around the dots' 16- and
    // 64-byte batch widths.
    Rng rng(0xA4);
    for (const int k : {8, 64, 72, 1152}) {
        for (int wgt_nnz : {1, 4, 8}) {
            for (int act_nnz : {1, 4, 8}) {
                const GemmProblem p =
                    makeDbbGemm(33, k, 17, wgt_nnz, act_nnz, rng);
                const GemmPlan plan = GemmPlan::build(p);
                const auto want = gemmReference(p);
                for (const DbbKernelKind cap :
                     {DbbKernelKind::Scalar, DbbKernelKind::Avx512}) {
                    dbbForceKernelCap(cap);
                    std::vector<int32_t> out(
                        static_cast<size_t>(p.m) * p.n);
                    dbbGemm(plan, out.data());
                    EXPECT_EQ(out, want)
                        << "K " << k << " W" << wgt_nnz << "/8 A"
                        << act_nnz << "/8 cap "
                        << dbbKernelKindName(cap);
                }
            }
        }
    }
    dbbForceKernelCap(DbbKernelKind::Avx512);
}

TEST(GemmPlan, OnePlanServesMultipleModels)
{
    Rng rng(0xA5);
    GemmProblem p = makeDbbGemm(24, 64, 20, 4, 4, rng);
    const GemmPlan plan = GemmPlan::build(p);
    const auto ref = gemmReference(p);
    RunOptions opt;
    opt.compute_output = true;
    for (const ArrayConfig &cfg :
         {ArrayConfig::saZvcg(), ArrayConfig::saSmt(2),
          ArrayConfig::s2taW(), ArrayConfig::s2taAw(4)}) {
        EXPECT_EQ(makeArrayModel(cfg)->run(plan, opt).output, ref)
            << cfg.name();
    }
}

/**
 * The fast engine's one plan per conv layer against the scalar
 * engine's lowering, one padded GEMM per group: at alignment 1
 * blocks straddle taps; at the block size every tap's channel
 * segment is modeled padded (stored unpadded). Either way each
 * group's masks and profile must equal its per-group plan's byte for
 * byte, and the grouped kernel, serial or row-sharded, must write
 * the per-group reference results where scatterGemmResult places
 * them.
 */
void
expectGroupedPlanMatchesPerGroup(const LayerWorkload &wl, int bz,
                                 ThreadPool &pool)
{
    const Conv2dShape &s = wl.shape;
    std::vector<int> out_shape = {s.outH(), s.outW(), s.out_c};
    if (wl.batch > 1)
        out_shape.insert(out_shape.begin(), wl.batch);
    for (const int align : {1, bz}) {
        SCOPED_TRACE("groups " + std::to_string(s.groups) + " gc " +
                     std::to_string(s.groupInC()) + " align " +
                     std::to_string(align) + " bz " +
                     std::to_string(bz));
        const GemmProblem grouped = im2colLowerGrouped(
            s, wl.input, wl.weights, align, wl.batch);
        const GemmPlan plan = GemmPlan::build(grouped, bz, true);
        const std::vector<GemmProblem> per = im2colLowerAll(
            s, wl.input, wl.weights, align, wl.batch);
        ASSERT_EQ(grouped.groups, s.groups);
        ASSERT_EQ(per.size(), static_cast<size_t>(s.groups));
        Int32Tensor want(out_shape, 0);
        for (int g = 0; g < s.groups; ++g) {
            const GemmProblem &p = per[static_cast<size_t>(g)];
            const GemmPlan ref = GemmPlan::build(p, bz, false);
            ASSERT_EQ(grouped.m, p.m);
            ASSERT_EQ(grouped.modeledK(), p.k);
            ASSERT_EQ(grouped.n, p.n);
            const int nb = ref.act().blocksPerVector();
            ASSERT_EQ(plan.act().blocksPerVector(), nb);
            ASSERT_EQ(plan.wgt().blocksPerVector(), nb);
            EXPECT_EQ(std::memcmp(plan.act().vectorMasks(g * p.m),
                                  ref.act().vectorMasks(0),
                                  static_cast<size_t>(p.m) * nb),
                      0)
                << "group " << g << " activation masks";
            EXPECT_EQ(std::memcmp(plan.wgt().vectorMasks(g * p.n),
                                  ref.wgt().vectorMasks(0),
                                  static_cast<size_t>(p.n) * nb),
                      0)
                << "group " << g << " weight masks";
            expectProfilesEqual(plan.profile(g), ref.profile());
            scatterGemmResult(s, g, gemmReference(p), want, wl.batch);
        }
        std::vector<int32_t> got(static_cast<size_t>(want.size()));
        dbbGemm(plan, got.data());
        EXPECT_TRUE(Int32Tensor(out_shape, got) == want);
        dbbGemm(plan, got.data(), &pool);
        EXPECT_TRUE(Int32Tensor(out_shape, got) == want)
            << "row-sharded";
    }
}

/** Rows of lowered-then-masked rows whose blocks straddle taps, and
 *  rows with a padding tap, that expectMasksOnlyPlanMatchesComputePlan
 *  checked: a test over neither would prove nothing about them. */
struct GatherCoverage
{
    int64_t straddling_rows = 0;
    int64_t padded_rows = 0;
};

/**
 * A conv layer's plans, as Accelerator::prepareLayer builds them on
 * @p lanes lanes: the events-only one, which masks the input and
 * keeps no operand, and the compute one, which also holds the lowered
 * activations for the kernel, must hold the same input masks. Both
 * are checked against the lowered-then-masked plan of the same
 * layer, at alignment 1 (an SA-family design) and at @p bz (S2TA):
 * the reference's weight masks and every group's profile byte for
 * byte, and every lowered row the plan gathers (actRow, each row of
 * each group) equal to the reference's row masks.
 */
void
expectMasksOnlyPlanMatchesComputePlan(const LayerWorkload &wl, int bz,
                                   int lanes, GatherCoverage &cover)
{
    ArrayConfig sa = ArrayConfig::saZvcg();
    sa.bz = bz;
    ArrayConfig s2ta = ArrayConfig::s2taW();
    s2ta.bz = bz;
    s2ta.tpe.b = bz;
    s2ta.weight_dbb = DbbSpec{std::min(4, bz), bz};
    for (const ArrayConfig &array : {sa, s2ta}) {
        const int align = array.kind == ArchKind::S2taW ? bz : 1;
        SCOPED_TRACE("groups " + std::to_string(wl.shape.groups) +
                     " gc " + std::to_string(wl.shape.groupInC()) +
                     " kernel " + std::to_string(wl.shape.kernel_h) + "x" +
                     std::to_string(wl.shape.kernel_w) + " stride " +
                     std::to_string(wl.shape.stride) + " pad " +
                     std::to_string(wl.shape.pad) + " batch " +
                     std::to_string(wl.batch) + " align " +
                     std::to_string(align) + " bz " + std::to_string(bz) +
                     " lanes " + std::to_string(lanes));
        AcceleratorConfig cfg;
        cfg.array = array;
        cfg.sim_threads = lanes;
        const Accelerator acc(cfg);
        NetworkRunOptions opt;
        const PreparedLayer events = acc.prepareLayer(wl, opt);
        opt.compute_output = true;
        const PreparedLayer compute = acc.prepareLayer(wl, opt);
        ASSERT_EQ(events.cached.size(), 1u);
        ASSERT_EQ(compute.cached.size(), 1u);
        EXPECT_FALSE(events.cached.front()->plan.problem().hasOperands());
        EXPECT_EQ(events.cached.front()->plan.packedWeights(), nullptr);
        const DbbMatrix &in_masks = events.cached.front()->plan.act();
        const DbbMatrix &compute_masks = compute.cached.front()->plan.act();
        ASSERT_EQ(in_masks.vectors(), compute_masks.vectors());
        ASSERT_EQ(in_masks.blocksPerVector(),
                  compute_masks.blocksPerVector());
        EXPECT_EQ(std::memcmp(in_masks.vectorMasks(0),
                              compute_masks.vectorMasks(0),
                              static_cast<size_t>(in_masks.vectors()) *
                                  in_masks.blocksPerVector()),
                  0)
            << "input masks";

        const GemmProblem lowered = im2colLowerGrouped(
            wl.shape, wl.input, wl.weights, align, wl.batch);
        const GemmPlan ref = GemmPlan::build(lowered, bz, false);
        const int m = lowered.m;
        const int nb = ref.act().blocksPerVector();
        const bool straddles = lowered.modeledSeg() % bz != 0;
        for (const GemmPlan *plan : {&events.cached.front()->plan,
                                     &compute.cached.front()->plan}) {
            ASSERT_EQ(plan->rowBlocks(), nb);
            ASSERT_EQ(plan->wgt().vectors(), ref.wgt().vectors());
            ASSERT_EQ(plan->wgt().blocksPerVector(), nb);
            EXPECT_EQ(std::memcmp(plan->wgt().vectorMasks(0),
                                  ref.wgt().vectorMasks(0),
                                  static_cast<size_t>(ref.wgt().vectors()) *
                                      nb),
                      0)
                << "weight masks";
            ASSERT_EQ(plan->profiles().size(), ref.profiles().size());
            for (int g = 0; g < wl.shape.groups; ++g) {
                SCOPED_TRACE("group " + std::to_string(g));
                expectProfilesEqual(plan->profile(g), ref.profile(g));
            }
            std::vector<int32_t> pixels(
                static_cast<size_t>(plan->rowTaps()));
            std::vector<Mask8> scratch(static_cast<size_t>(nb));
            for (int i = 0; i < m; ++i) {
                plan->rowPixels(i, pixels.data());
                const bool padding_tap =
                    std::find(pixels.begin(), pixels.end(), -1) !=
                    pixels.end();
                cover.padded_rows += padding_tap;
                cover.straddling_rows += straddles;
                for (int g = 0; g < wl.shape.groups; ++g) {
                    const Mask8 *row =
                        plan->actRow(g, pixels.data(), scratch.data());
                    ASSERT_EQ(std::memcmp(row, ref.act().vectorMasks(g * m + i),
                                          static_cast<size_t>(nb)),
                              0)
                        << "gathered row " << i << " of group " << g
                        << (padding_tap ? " (a padding tap)" : "");
                }
            }
        }
    }
}

/** A conv layer of @p groups groups of @p gc channels whose segments
 *  the fuzzer never draws, about 60% dense in both operands. */
LayerWorkload
oddSegmentLayer(int gc, int groups, Rng &rng)
{
    LayerWorkload wl;
    wl.shape = {gc * groups, 6, 5, 3 * groups, 3, 2, 1, 1, groups};
    wl.input = Int8Tensor({6, 5, gc * groups});
    for (int64_t i = 0; i < wl.input.size(); ++i)
        wl.input.flat(i) = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
    wl.weights = Int8Tensor({3, 2, gc, 3 * groups});
    for (int64_t i = 0; i < wl.weights.size(); ++i)
        wl.weights.flat(i) = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
    return wl;
}

/** @p wl at @p batch samples: the input redrawn at the fuzzer's
 *  bound, so each sample holds its own values. */
LayerWorkload
atBatch(LayerWorkload wl, int batch, Rng &rng)
{
    wl.batch = batch;
    std::vector<int> in = {wl.shape.in_h, wl.shape.in_w, wl.shape.in_c};
    if (batch > 1)
        in.insert(in.begin(), batch);
    wl.input = makeDbbTensor(in, wl.act_nnz, rng);
    return wl;
}

TEST(GemmPlan, MasksOnlyPlanMatchesComputePlan)
{
    // The conv fuzzer's shapes at bz 4 and 8 (1, 4, 8 or 16 channels
    // per group, every kernel, stride and padding it draws), each at
    // batch 1 and 2, on 1 lane and on 4, where a plan masks its
    // weight bands and derives its group profiles across the lanes;
    // then 3-, 12- and 20-channel groups, whose padded segments span
    // a partly filled first, second or third block.
    GatherCoverage cover;
    Rng rng(0x6D00);
    std::vector<LayerWorkload> odd;
    for (const int gc : {3, 12, 20})
        for (const int groups : {1, 2})
            odd.push_back(oddSegmentLayer(gc, groups, rng));
    for (const int lanes : {1, 4}) {
        for (uint64_t trial = 0; trial < 24; ++trial) {
            for (const int bz : {4, 8}) {
                SCOPED_TRACE("fuzz trial " + std::to_string(trial));
                Rng fuzz_rng(0x6C00 + trial * 2 + (bz == 8));
                const LayerWorkload wl = fuzzLayer(fuzz_rng, bz);
                for (const int batch : {1, 2}) {
                    expectMasksOnlyPlanMatchesComputePlan(
                        atBatch(wl, batch, fuzz_rng), bz, lanes, cover);
                }
            }
        }
        for (const LayerWorkload &wl : odd)
            expectMasksOnlyPlanMatchesComputePlan(wl, 8, lanes, cover);
    }

    // Larger layers: a dense 3x3, a strided depthwise layer at batch
    // 2, a 3-channel 7x7 stem at stride 2 (padding taps on every
    // side), and a 1x1 layer over rows wider than 256 KB.
    const std::pair<Conv2dShape, int> large[] = {
        {{64, 24, 24, 16, 3, 3, 1, 1, 1}, 1},
        {{64, 32, 32, 64, 3, 3, 2, 1, 64}, 2},
        {{3, 112, 112, 8, 7, 7, 2, 3, 1}, 1},
        {{270000, 1, 1, 2, 1, 1, 1, 0, 1}, 3}};
    for (const auto &[shape, batch] : large) {
        LayerWorkload wl;
        wl.shape = shape;
        wl.batch = batch;
        std::vector<int> in = {shape.in_h, shape.in_w, shape.in_c};
        if (batch > 1)
            in.insert(in.begin(), batch);
        wl.input = Int8Tensor(in);
        wl.weights = Int8Tensor({shape.kernel_h, shape.kernel_w,
                                 shape.groupInC(), shape.out_c});
        for (Int8Tensor *t : {&wl.input, &wl.weights}) {
            int8_t *v = t->data();
            for (int64_t i = 0; i < t->size(); ++i)
                v[i] = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
        }
        for (const int lanes : {1, 4})
            expectMasksOnlyPlanMatchesComputePlan(wl, 8, lanes, cover);
    }
    EXPECT_GT(cover.straddling_rows, 0);
    EXPECT_GT(cover.padded_rows, 0);
}

TEST(GemmPlan, GroupedPlanMatchesPerGroupPlans)
{
    ThreadPool pool(2);
    // The conv fuzzer's shapes: 1, 4 or 8 channels per group.
    for (uint64_t trial = 0; trial < 48; ++trial) {
        SCOPED_TRACE("fuzz trial " + std::to_string(trial));
        Rng rng(0x6A00 + trial);
        const int bz = rng.bernoulli(0.5) ? 4 : 8;
        expectGroupedPlanMatchesPerGroup(fuzzLayer(rng, bz), bz, pool);
    }
    // Segments the fuzzer never draws: a 3-channel stem and groups
    // of 12 and 20 channels, whose padded segments span a partly
    // filled second or third block.
    Rng rng(0x6B00);
    for (const int gc : {3, 12, 20})
        for (const int groups : {1, 2})
            expectGroupedPlanMatchesPerGroup(
                oddSegmentLayer(gc, groups, rng), 8, pool);
}

TEST(GemmPlanDeath, DensityViolationsAreFatal)
{
    Rng rng(0xA6);
    const GemmProblem p = makeDbbGemm(8, 32, 8, 6, 6, rng);
    const GemmPlan plan = GemmPlan::build(p);
    EXPECT_DEATH(plan.checkWeights(DbbSpec{4, 8}),
                 "pruneWeightsDbb");
    EXPECT_DEATH(plan.checkActivations(DbbSpec{4, 8}), "DAP");
    // The bounds the operands do satisfy pass (and memoize).
    plan.checkWeights(DbbSpec{6, 8});
    plan.checkWeights(DbbSpec{6, 8});
    plan.checkActivations(DbbSpec{6, 8});
}

TEST(GemmPlanDeath, ConvPlanChecksEveryInputPixel)
{
    // A conv plan checks its input's blocks, pixels no tap reads
    // included: a 1x1 stride-2 layer reads pixels (0, 0), (0, 2),
    // (2, 0) and (2, 2) of a 4x4 input, and pixel (1, 1), read by no
    // tap, holds a block over the 4/8 bound. The lowered plan never
    // sees that pixel and passes; the conv plan fails on it.
    const Conv2dShape s = {8, 4, 4, 8, 1, 1, 2, 0, 1};
    Int8Tensor input({4, 4, 8});
    for (int c = 0; c < 4; ++c)
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x)
                input(y, x, c) = 1;
    for (int c = 4; c < 8; ++c)
        input(1, 1, c) = 1;
    Int8Tensor weights({1, 1, 8, 8});
    for (int64_t i = 0; i < weights.size(); ++i)
        weights.flat(i) = i % 2 == 0 ? 1 : 0;
    const GemmProblem lowered = im2colLowerGrouped(s, input, weights, 8);
    GemmPlan::build(lowered, 8, false).checkActivations(DbbSpec{4, 8});
    const GemmProblem dims = im2colActivationDims(s, 8);
    const GemmPlan plan = GemmPlan::build(dims, s, input.data(),
                                          weights.data(), 8, false);
    EXPECT_DEATH(plan.checkActivations(DbbSpec{4, 8}),
                 "pixel 5, block 0.*DAP");
    plan.checkActivations(DbbSpec{8, 8});
}

TEST(GemmPlanDeath, DbbGemmNeedsAComputePlan)
{
    Rng rng(0xA8);
    const GemmProblem p = makeDbbGemm(8, 16, 8, 4, 4, rng);
    const GemmPlan plan = GemmPlan::build(p, 8, false);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    EXPECT_DEATH(dbbGemm(plan, out.data()), "compute plan");
}

TEST(GemmPlanDeath, PlanWithoutOperandsRefusesKernelAndScalarEngine)
{
    // An events-only cache entry keeps masks and profiles, and no
    // operand: the kernel and the scalar engine, which read the
    // operands, must refuse it rather than read empty vectors.
    Rng rng(0xAA);
    const GemmProblem p = makeDbbGemm(8, 16, 8, 4, 4, rng);
    const CachedPlan entry(p, 8);
    ASSERT_FALSE(entry.plan.problem().hasOperands());
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    EXPECT_DEATH(dbbGemm(entry.plan, out.data()), "compute plan");
    RunOptions scalar;
    scalar.engine = EngineKind::Scalar;
    scalar.compute_output = false;
    scalar.validate_operands = false;
    for (const ArrayConfig &cfg :
         {ArrayConfig::saZvcg(), ArrayConfig::saSmt(2),
          ArrayConfig::s2taW(), ArrayConfig::s2taAw(4)}) {
        EXPECT_DEATH(makeArrayModel(cfg)->run(entry.plan, scalar),
                     "holds its operands")
            << cfg.name();
    }
}

TEST(GemmPlanDeath, ShallowPlanRefusesEncodedAccess)
{
    Rng rng(0xA7);
    const GemmProblem p = makeDbbGemm(8, 16, 8, 4, 4, rng);
    const GemmPlan plan = GemmPlan::shallow(p);
    EXPECT_FALSE(plan.encoded());
    EXPECT_DEATH(plan.profile(), "shallow");
}

TEST(GemmPlanDeath, ScalarEngineRefusesGroupedAndPaddedPlans)
{
    // The scalar engine rescans a plan's stored operands as one
    // K-wide row per vector: an encoded conv plan with a group axis
    // or modeled segment padding must be fatal there, not silently
    // mis-strided.
    Rng rng(0xA9);
    RunOptions scalar;
    scalar.engine = EngineKind::Scalar;
    scalar.validate_operands = false;
    // Depthwise at alignment 1 (grouped) and 8 (grouped and
    // padded), and a 3-channel stem at 8 (padded).
    for (const auto &[in_c, groups, align] :
         {std::tuple{4, 4, 1}, std::tuple{4, 4, 8},
          std::tuple{3, 1, 8}}) {
        const Conv2dShape s = {in_c, 5, 5, 4, 3, 3, 1, 1, groups};
        Int8Tensor input({5, 5, in_c});
        for (int64_t i = 0; i < input.size(); ++i)
            input.flat(i) = rng.nonZeroInt8();
        Int8Tensor weights({3, 3, in_c / groups, 4});
        for (int64_t i = 0; i < weights.size(); ++i)
            weights.flat(i) = rng.nonZeroInt8();
        // The plan refers to its problem, which must outlive it.
        const GemmProblem p =
            im2colLowerGrouped(s, input, weights, align);
        ASSERT_TRUE(p.groups > 1 || p.padded());
        const GemmPlan plan = GemmPlan::build(p, 8, true);
        for (const ArrayConfig &cfg :
             {ArrayConfig::saZvcg(), ArrayConfig::s2taAw(4)}) {
            if (cfg.kind == ArchKind::S2taAw && align == 1)
                continue; // K 9 is not a whole number of blocks
            const auto model = makeArrayModel(cfg);
            EXPECT_DEATH(model->run(plan, scalar), "plain GEMMs")
                << cfg.name() << " groups " << groups << " align "
                << align;
        }
    }
}

TEST(GemmPlan, ValidationSkippableViaRunOptions)
{
    // With validation off, operands violating the bound still run
    // (the engine models the datapath on whatever it is given).
    Rng rng(0xA8);
    GemmProblem p = makeDbbGemm(8, 32, 8, 6, 4, rng);
    const auto model = makeArrayModel(ArrayConfig::s2taW());
    RunOptions opt;
    opt.compute_output = false;
    opt.validate_operands = false;
    const GemmRun run = model->run(p, opt);
    EXPECT_GT(run.events.cycles, 0);
}

} // anonymous namespace
} // namespace s2ta
