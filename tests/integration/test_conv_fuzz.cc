/** @file Seeded conv-shape fuzzer: a randomized sweep over kernel
 *  sizes (square and rectangular), odd strides, paddings, grouped
 *  and depthwise fan-outs, batches 1-3 and DBB block sizes 4 and 8,
 *  asserting on every shape, for one design of each family (SA-SMT
 *  T2Q2, S2TA-W and S2TA-AW), that the fast DBB engine matches the
 *  scalar reference engine bit for bit (outputs and event counters)
 *  on every way a layer's plan can reach it: built uncached, a
 *  resident PlanCache hit, and a rebuild after eviction (an entry
 *  cap of one). The fast engine runs a layer as one grouped GEMM,
 *  so each cached leg counts exactly one entry per layer. The three
 *  designs cover what the fast engine models differently:
 *  alignment-1 blocks that straddle taps (SA-SMT), the SMT sampler's
 *  coordinates shared by every group, and the per-group rounding of
 *  S2TA-W's accumulator estimate. At batch 1 the scalar engine must
 *  also match the direct convolution reference.
 *
 *  Reproducing a failure: every trial derives its own seed and the
 *  failure message carries it. Re-run just that trial with
 *
 *      S2TA_FUZZ_SEED=<seed> ctest -R integration/test_conv_fuzz
 *
 *  (any base accepted by strtoull, so the printed hex form pastes
 *  directly). When the env var is set the sweep collapses to that
 *  single seed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arch/plan_cache.hh"
#include "fuzz_layer.hh"
#include "tensor/conv.hh"

namespace s2ta {
namespace {

std::string
describe(const LayerWorkload &wl, int bz, uint64_t seed)
{
    char buf[208];
    std::snprintf(
        buf, sizeof(buf),
        "conv %dx%dx%d -> %d k%dx%d s%d p%d g%d b%d A%d W%d bz%d; "
        "repro: S2TA_FUZZ_SEED=0x%llx ctest -R "
        "integration/test_conv_fuzz",
        wl.shape.in_h, wl.shape.in_w, wl.shape.in_c, wl.shape.out_c,
        wl.shape.kernel_h, wl.shape.kernel_w, wl.shape.stride,
        wl.shape.pad, wl.shape.groups, wl.batch, wl.act_nnz,
        wl.wgt_nnz, bz, static_cast<unsigned long long>(seed));
    return buf;
}

/** Bitwise equality with the scalar reference run. */
void
expectSameRun(const LayerRun &got, const LayerRun &ref,
              const char *path)
{
    EXPECT_TRUE(got.output == ref.output) << path << " output";
    EXPECT_TRUE(got.events == ref.events) << path << " events";
    EXPECT_EQ(got.dense_macs, ref.dense_macs) << path;
}

/** One design of each family at block size @p bz. */
std::vector<ArrayConfig>
fuzzDesigns(int bz)
{
    ArrayConfig smt = ArrayConfig::saSmt(2);
    smt.bz = bz;
    ArrayConfig w = ArrayConfig::s2taW();
    w.bz = bz;
    w.tpe.b = bz;
    w.weight_dbb = DbbSpec{std::min(4, bz), bz};
    ArrayConfig aw = ArrayConfig::s2taAw(4);
    aw.bz = bz;
    aw.weight_dbb = DbbSpec{std::min(4, bz), bz};
    return {smt, w, aw};
}

/** Run @p wl on one design on the scalar engine and on the fast
 *  engine through every plan path, and check them against each
 *  other (and the direct reference at batch 1). */
void
fuzzOneDesign(const LayerWorkload &wl, const ArrayConfig &array)
{
    SCOPED_TRACE(array.name());
    const int bz = array.bz;
    AcceleratorConfig cfg;
    cfg.array = array;
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);

    NetworkRunOptions fast;
    fast.compute_output = true;
    NetworkRunOptions scalar = fast;
    scalar.engine = EngineKind::Scalar;
    const LayerRun sr = acc.runLayer(wl, scalar);
    expectSameRun(acc.runLayer(wl, fast), sr, "uncached");

    // Resident hit: the second run finds the layer's one plan.
    PlanCache resident;
    NetworkRunOptions cached = fast;
    cached.plan_cache = &resident;
    expectSameRun(acc.runLayer(wl, cached), sr, "cold cache");
    expectSameRun(acc.runLayer(wl, cached), sr, "resident hit");
    EXPECT_EQ(resident.stats().misses, 1);
    EXPECT_EQ(resident.stats().hits, 1);

    // Eviction: with an entry cap of one, an unrelated plan evicts
    // the layer, so the second run lowers and encodes it again.
    PlanCache capped(/*max_entries=*/1);
    NetworkRunOptions evicting = fast;
    evicting.plan_cache = &capped;
    expectSameRun(acc.runLayer(wl, evicting), sr, "evict populate");
    capped.acquire(GemmProblem(1, 1, 1), bz, true);
    expectSameRun(acc.runLayer(wl, evicting), sr, "rebuilt after eviction");
    EXPECT_EQ(capped.stats().misses, 3);
    EXPECT_EQ(capped.stats().evictions, 2);

    if (wl.batch == 1) {
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(sr.output == ref) << "scalar vs direct reference";
    }
}

/** Run one seed's layer on every fuzzed design. */
void
fuzzOneSeed(uint64_t seed)
{
    Rng rng(seed);
    const int bz = rng.bernoulli(0.5) ? 4 : 8;
    const LayerWorkload wl = fuzzLayer(rng, bz);
    SCOPED_TRACE(describe(wl, bz, seed));
    for (const ArrayConfig &array : fuzzDesigns(bz))
        fuzzOneDesign(wl, array);
}

TEST(ConvFuzz, RandomShapeSweepEveryPlanPathVsScalar)
{
    if (const char *env = std::getenv("S2TA_FUZZ_SEED")) {
        // Single-seed repro mode.
        fuzzOneSeed(std::strtoull(env, nullptr, 0));
        return;
    }
    const uint64_t base = 0xF0220000ULL;
    for (int trial = 0; trial < 48; ++trial) {
        fuzzOneSeed(base + static_cast<uint64_t>(trial));
        if (::testing::Test::HasFailure()) {
            // One broken shape is enough; later trials would bury
            // the repro line.
            break;
        }
    }
}

} // anonymous namespace
} // namespace s2ta
