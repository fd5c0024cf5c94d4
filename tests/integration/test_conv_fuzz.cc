/** @file Seeded conv-shape fuzzer: a randomized sweep over kernel
 *  sizes (square and rectangular), odd strides, paddings, grouped
 *  and depthwise fan-outs, batches 1-3 and DBB block sizes 4 and 8,
 *  asserting on every shape that the fast DBB engine matches the
 *  scalar reference engine bit for bit (outputs and event counters)
 *  on every way a plan can reach it: built uncached, a resident
 *  PlanCache hit, a spill-tier rehydration (resident budget below
 *  one plan), and a partial miss (an entry cap below the layer's
 *  group count, so the second run re-lowers only the evicted
 *  groups). At batch 1 the scalar engine must also match the direct
 *  convolution reference.
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

/** Run one seed's layer on the scalar engine and on the fast engine
 *  through every plan path, and check them against each other (and
 *  the direct reference at batch 1). */
void
fuzzOneSeed(uint64_t seed)
{
    Rng rng(seed);
    const int bz = rng.bernoulli(0.5) ? 4 : 8;
    const LayerWorkload wl = fuzzLayer(rng, bz);
    SCOPED_TRACE(describe(wl, bz, seed));

    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::s2taAw(4);
    cfg.array.bz = bz;
    cfg.array.weight_dbb = DbbSpec{std::min(4, bz), bz};
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);

    NetworkRunOptions fast;
    fast.compute_output = true;
    NetworkRunOptions scalar = fast;
    scalar.engine = EngineKind::Scalar;
    const LayerRun sr = acc.runLayer(wl, scalar);
    expectSameRun(acc.runLayer(wl, fast), sr, "uncached");

    // Resident hit: the second run finds every group's plan.
    PlanCache resident;
    NetworkRunOptions cached = fast;
    cached.plan_cache = &resident;
    expectSameRun(acc.runLayer(wl, cached), sr, "cold cache");
    expectSameRun(acc.runLayer(wl, cached), sr, "resident hit");
    EXPECT_EQ(resident.stats().hits, wl.shape.groups);

    // Spill rehydration: a 1-byte resident budget keeps only the
    // newest plan, and one unrelated plan pushes the layer's last
    // group out too, so the second run rehydrates every group.
    PlanCache spill(0, /*max_bytes=*/1, /*spill_max_bytes=*/1 << 30);
    NetworkRunOptions spilled = fast;
    spilled.plan_cache = &spill;
    expectSameRun(acc.runLayer(wl, spilled), sr, "spill populate");
    spill.acquire(GemmProblem(1, 1, 1), bz, true);
    expectSameRun(acc.runLayer(wl, spilled), sr, "spill rehydration");
    EXPECT_EQ(spill.stats().spill_hits, wl.shape.groups);

    // Partial miss: an entry cap of half the groups keeps only the
    // newest groups resident, so the second run hits those and
    // re-lowers each evicted group on its own.
    const int groups = wl.shape.groups;
    const int keep = std::max(1, groups / 2);
    PlanCache partial(/*max_entries=*/static_cast<size_t>(keep));
    NetworkRunOptions capped = fast;
    capped.plan_cache = &partial;
    expectSameRun(acc.runLayer(wl, capped), sr, "partial populate");
    expectSameRun(acc.runLayer(wl, capped), sr, "partial miss");
    EXPECT_EQ(partial.stats().misses, 2 * groups - keep);

    if (wl.batch == 1) {
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(sr.output == ref) << "scalar vs direct reference";
    }
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
