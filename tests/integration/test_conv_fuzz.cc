/** @file Seeded conv-shape fuzzer: a randomized sweep over kernel
 *  sizes (square and rectangular), odd strides, paddings, grouped
 *  and depthwise fan-outs, batches 1-3 and DBB block sizes 4 and 8,
 *  asserting on every shape that the fast DBB engine matches the
 *  scalar reference engine bit for bit (outputs and event counters)
 *  on every way a plan can reach it: built uncached, a resident
 *  PlanCache hit, a spill-tier rehydration (resident budget below
 *  one plan), and a PlanStore hydration from a temp directory. At
 *  batch 1 the scalar engine must also match the direct convolution
 *  reference.
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

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "arch/accelerator.hh"
#include "arch/plan_store.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/**
 * One fuzzed conv layer. Spatial geometry is unconstrained (the
 * h/w floor of 6 keeps every kernel/stride/pad draw valid), but the
 * channel structure follows the safe (groups, group-channels)
 * table: makeDbbTensor structures its nnz bound over flat 8-blocks,
 * so in_c must be a multiple of 8 and each group's channel segment
 * must not straddle an 8-block boundary or im2col re-blocking could
 * exceed the declared DBB bound.
 */
/**
 * Every operand bound is drawn at most @p bz and generated over the
 * DAP's flat 8-blocks, so it also holds for each bz-block inside
 * them (bz divides 8).
 */
LayerWorkload
fuzzLayer(Rng &rng, int bz)
{
    LayerWorkload wl;
    wl.name = "fuzz";

    struct Pick
    {
        int groups, gc;
    };
    const Pick picks[] = {{1, 8}, {1, 16}, {2, 4},  {2, 8},
                          {4, 4}, {8, 4},  {16, 1}};
    const Pick pick = picks[rng.uniformInt(0, std::size(picks) - 1)];
    const int gc = pick.gc;
    const int in_c = pick.gc * pick.groups;
    const int goc = pick.groups >= 8
                        ? static_cast<int>(rng.uniformInt(1, 2))
                        : static_cast<int>(rng.uniformInt(1, 3));
    const int out_c = goc * pick.groups;

    const int kern_pick[] = {1, 2, 3, 5};
    const int kh = kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int kw = kern_pick[rng.uniformInt(0, std::size(kern_pick) - 1)];
    const int h = static_cast<int>(rng.uniformInt(6, 14));
    const int w = static_cast<int>(rng.uniformInt(6, 14));
    const int stride = static_cast<int>(rng.uniformInt(1, 3));
    const int pad = static_cast<int>(rng.uniformInt(0, 2));
    const int batch = static_cast<int>(rng.uniformInt(1, 3));

    wl.shape = {in_c, h, w, out_c, kh, kw, stride, pad, pick.groups};
    wl.batch = batch;
    const int act_bounds[] = {1, 2, 4, 8};
    wl.act_nnz = std::min(
        bz, act_bounds[rng.uniformInt(0, std::size(act_bounds) - 1)]);
    wl.wgt_nnz = static_cast<int>(rng.uniformInt(1, bz));

    std::vector<int> in_shape = {h, w, in_c};
    if (batch > 1)
        in_shape.insert(in_shape.begin(), batch);
    wl.input = makeDbbTensor(in_shape, wl.act_nnz, rng);

    // W-DBB blocks run along the input-channel dimension: generate
    // channel-innermost and transpose into (kh, kw, gc, oc).
    const Int8Tensor tmp = makeDbbTensor(
        {kh, kw, out_c, gc}, std::min(wl.wgt_nnz, gc), rng);
    wl.weights = Int8Tensor({kh, kw, gc, out_c});
    for (int ky = 0; ky < kh; ++ky)
        for (int kx = 0; kx < kw; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < out_c; ++oc)
                    wl.weights(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    return wl;
}

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
    EXPECT_EQ(got.h2d_bytes, ref.h2d_bytes) << path;
    EXPECT_EQ(got.d2h_bytes, ref.d2h_bytes) << path;
}

/** Store directory shared by every trial (keys are content-derived,
 *  so trials never collide), emptied once per process. */
const std::string &
storeDir()
{
    static const std::string dir = [] {
        std::string d = testing::TempDir() + "s2ta_conv_fuzz_store";
        std::filesystem::remove_all(d);
        return d;
    }();
    return dir;
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

    // Store hydration: one process populates, a fresh one hydrates.
    PlanStore store(storeDir());
    PlanCache writer;
    writer.attachStore(&store);
    NetworkRunOptions stored = fast;
    stored.plan_cache = &writer;
    expectSameRun(acc.runLayer(wl, stored), sr, "store populate");
    PlanCache reader;
    reader.attachStore(&store);
    stored.plan_cache = &reader;
    expectSameRun(acc.runLayer(wl, stored), sr, "store hydration");
    EXPECT_EQ(reader.stats().store_hits, wl.shape.groups);
    EXPECT_EQ(reader.stats().misses, 0);

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
