/** @file Unit tests for the GemmPlan mask/profile cache and the
 *  dbbGemm kernel, including the grouped plan of a whole conv layer
 *  against the per-group plans of the scalar engine's lowering. */

#include <gtest/gtest.h>

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
            EXPECT_EQ(plan.actNonZero(i, kk), p.actAt(i, kk) != 0);
    for (int j = 0; j < p.n; ++j)
        for (int kk = 0; kk < p.k; ++kk)
            EXPECT_EQ(plan.wgtNonZero(kk, j), p.wgtAt(kk, j) != 0);
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

/**
 * The events-only plan of a conv layer, as Accelerator::prepareLayer
 * builds it (the masks of the lowered activations and of the weight
 * tensor in place, no operand kept), against the compute plan of
 * the same lowering, at alignment 1 (an SA-family design) and at
 * @p bz (S2TA): both operands' masks and every group's profile must
 * be equal byte for byte.
 */
void
expectMasksOnlyPlanMatchesComputePlan(const LayerWorkload &wl, int bz,
                                      int lanes)
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
                     " align " + std::to_string(align) + " bz " +
                     std::to_string(bz) + " lanes " +
                     std::to_string(lanes));
        AcceleratorConfig cfg;
        cfg.array = array;
        cfg.sim_threads = lanes;
        const PreparedLayer prep =
            Accelerator(cfg).prepareLayer(wl, NetworkRunOptions{});
        ASSERT_EQ(prep.cached.size(), 1u);
        const GemmPlan &masks_only = prep.cached.front()->plan;
        EXPECT_FALSE(masks_only.problem().hasOperands());
        EXPECT_EQ(masks_only.packedWeights(), nullptr);

        const GemmProblem lowered = im2colLowerGrouped(
            wl.shape, wl.input, wl.weights, align, wl.batch);
        const GemmPlan full = GemmPlan::build(lowered, bz, true);
        for (const auto &[got, want] :
             {std::pair{&masks_only.act(), &full.act()},
              std::pair{&masks_only.wgt(), &full.wgt()}}) {
            ASSERT_EQ(got->vectors(), want->vectors());
            ASSERT_EQ(got->blocksPerVector(), want->blocksPerVector());
            EXPECT_EQ(std::memcmp(got->vectorMasks(0),
                                  want->vectorMasks(0),
                                  static_cast<size_t>(got->vectors()) *
                                      got->blocksPerVector()),
                      0);
        }
        ASSERT_EQ(masks_only.profiles().size(), full.profiles().size());
        for (int g = 0; g < wl.shape.groups; ++g) {
            SCOPED_TRACE("group " + std::to_string(g));
            expectProfilesEqual(masks_only.profile(g), full.profile(g));
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

TEST(GemmPlan, MasksOnlyPlanMatchesComputePlan)
{
    // Every layer at 1 lane and at 4, where an events-only plan
    // lowers and masks its bands, masks its weight bands and derives
    // its group profiles across the lanes. The conv fuzzer's shapes,
    // then 3-, 12- and 20-channel groups, whose padded segments span
    // a partly filled first, second or third block.
    Rng rng(0x6D00);
    std::vector<LayerWorkload> odd;
    for (const int gc : {3, 12, 20})
        for (const int groups : {1, 2})
            odd.push_back(oddSegmentLayer(gc, groups, rng));
    for (const int lanes : {1, 4}) {
        for (uint64_t trial = 0; trial < 48; ++trial) {
            SCOPED_TRACE("fuzz trial " + std::to_string(trial));
            Rng fuzz_rng(0x6C00 + trial);
            const int bz = fuzz_rng.bernoulli(0.5) ? 4 : 8;
            expectMasksOnlyPlanMatchesComputePlan(fuzzLayer(fuzz_rng, bz),
                                                  bz, lanes);
        }
        for (const LayerWorkload &wl : odd)
            expectMasksOnlyPlanMatchesComputePlan(wl, 8, lanes);
    }

    // An events-only plan lowers its activations in bands of about
    // 256 KB of rows. These layers span two or three bands, the last
    // one partial: a dense 3x3, a strided depthwise layer at batch 2,
    // a 3-channel stem, and rows wider than a band (one row each).
    const std::pair<Conv2dShape, int> banded[] = {
        {{64, 24, 24, 16, 3, 3, 1, 1, 1}, 1},
        {{64, 32, 32, 64, 3, 3, 2, 1, 64}, 2},
        {{3, 112, 112, 8, 7, 7, 2, 3, 1}, 1},
        {{270000, 1, 1, 2, 1, 1, 1, 0, 1}, 3}};
    for (const auto &[shape, batch] : banded) {
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
            expectMasksOnlyPlanMatchesComputePlan(wl, 8, lanes);
    }
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
    const CachedPlan entry(p, DbbMatrix::fromActivations(p, DbbSpec{8, 8}),
                           p.w.data(), 8);
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
