/** @file Unit tests for the GemmPlan mask/profile cache and the
 *  dbbGemm kernel, including the grouped plan of a whole conv layer
 *  against the per-group plans of the scalar engine's lowering. */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>

#include "../integration/fuzz_layer.hh"
#include "arch/gemm_plan.hh"
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

TEST(GemmPlan, DenseMirrorExactlyWhenRequested)
{
    // Every density gets the transposed weight mirror when outputs
    // are requested, and none gets it otherwise.
    Rng rng(0xA3);
    for (const int nnz : {1, 4, 8}) {
        const GemmProblem p = makeDbbGemm(6, 40, 9, nnz, nnz, rng);
        EXPECT_EQ(GemmPlan::build(p, 8, false).wgtDenseT(), nullptr);
        const GemmPlan plan = GemmPlan::build(p, 8, true);
        const int8_t *wt = plan.wgtDenseT();
        ASSERT_NE(wt, nullptr) << nnz;
        for (int j = 0; j < p.n; ++j)
            for (int kk = 0; kk < p.k; ++kk)
                EXPECT_EQ(wt[static_cast<size_t>(j) * p.k + kk],
                          p.wgtAt(kk, j));
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
    for (const int gc : {3, 12, 20}) {
        for (const int groups : {1, 2}) {
            LayerWorkload wl;
            wl.shape = {gc * groups, 6, 5, 3 * groups, 3, 2, 1, 1,
                        groups};
            wl.input = Int8Tensor({6, 5, gc * groups});
            for (int64_t i = 0; i < wl.input.size(); ++i)
                wl.input.flat(i) =
                    rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
            wl.weights = Int8Tensor({3, 2, gc, 3 * groups});
            for (int64_t i = 0; i < wl.weights.size(); ++i)
                wl.weights.flat(i) =
                    rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
            expectGroupedPlanMatchesPerGroup(wl, 8, pool);
        }
    }
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

TEST(GemmPlanDeath, DbbGemmNeedsTheMirror)
{
    Rng rng(0xA8);
    const GemmProblem p = makeDbbGemm(8, 16, 8, 4, 4, rng);
    const GemmPlan plan = GemmPlan::build(p, 8, false);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    EXPECT_DEATH(dbbGemm(plan, out.data()), "dense mirror");
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
