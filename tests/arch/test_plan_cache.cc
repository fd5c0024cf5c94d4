/** @file Tests for the cross-run PlanCache: hit/miss accounting,
 *  deterministic LRU eviction, mutation safety via content
 *  fingerprints, the DAP memo, and — the load-bearing property —
 *  bitwise-identical results with caching on vs off across array
 *  configs, engines, and thread counts. */

#include <gtest/gtest.h>

#include "arch/accelerator.hh"
#include "arch/plan_cache.hh"
#include "arch/plan_store.hh"
#include "base/fault_injection.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

GemmProblem
smallGemm(uint64_t seed, int m = 24, int k = 64, int n = 16)
{
    Rng rng(seed);
    return makeDbbGemm(m, k, n, 4, 4, rng);
}

TEST(PlanCache, HitMissAccounting)
{
    PlanCache cache;
    const GemmProblem p = smallGemm(0xA0);

    const auto e1 = cache.acquire(p, 8, /*dense_mirror=*/false);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().entries, 1);

    const auto e2 = cache.acquire(p, 8, false);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(e1.get(), e2.get()) << "hit must return same entry";

    // A different mirror flag is a different entry (the plan
    // contents differ), as is a different block size.
    cache.acquire(p, 8, true);
    cache.acquire(p, 4, false);
    EXPECT_EQ(cache.stats().misses, 3);
    EXPECT_EQ(cache.stats().entries, 3);
    EXPECT_GT(cache.stats().resident_bytes, 0);
}

TEST(PlanCache, FingerprintGuardsMutatedOperands)
{
    PlanCache cache;
    GemmProblem p = smallGemm(0xA1);
    cache.acquire(p, 8, false);

    // Mutating the operands must never return the stale plan.
    p.a[3] = static_cast<int8_t>(p.a[3] + 1);
    const auto e = cache.acquire(p, 8, false);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(e->problem.a[3], p.a[3]);
}

TEST(PlanCache, EvictionIsLruAndDeterministic)
{
    const GemmProblem a = smallGemm(0xB0);
    const GemmProblem b = smallGemm(0xB1);
    const GemmProblem c = smallGemm(0xB2);

    const auto run = [&](PlanCache &cache) {
        cache.acquire(a, 8, false);
        cache.acquire(b, 8, false);
        cache.acquire(a, 8, false); // promote a over b
        cache.acquire(c, 8, false); // evicts b (LRU)
        cache.acquire(a, 8, false); // still resident
        cache.acquire(b, 8, false); // must be a miss again
        return cache.stats();
    };

    PlanCache c1(/*max_entries=*/2);
    const PlanCache::Stats s1 = run(c1);
    EXPECT_EQ(s1.misses, 4) << "a, b, c, then b again";
    EXPECT_EQ(s1.hits, 2);
    EXPECT_EQ(s1.evictions, 2);
    EXPECT_EQ(s1.entries, 2);

    // The same access sequence on a fresh cache produces exactly
    // the same accounting: eviction order is deterministic.
    PlanCache c2(2);
    const PlanCache::Stats s2 = run(c2);
    EXPECT_EQ(s1.misses, s2.misses);
    EXPECT_EQ(s1.hits, s2.hits);
    EXPECT_EQ(s1.evictions, s2.evictions);
    EXPECT_EQ(s1.resident_bytes, s2.resident_bytes);
}

TEST(PlanCache, ByteBudgetEvictsButKeepsNewestEntry)
{
    // A budget smaller than one entry: the newest entry must stay
    // usable (a sweep over one oversized workload still works).
    PlanCache cache(0, /*max_bytes=*/1);
    const GemmProblem a = smallGemm(0xC0);
    const GemmProblem b = smallGemm(0xC1);
    cache.acquire(a, 8, false);
    EXPECT_EQ(cache.stats().entries, 1);
    cache.acquire(b, 8, false);
    EXPECT_EQ(cache.stats().entries, 1);
    EXPECT_EQ(cache.stats().evictions, 1);
    // b is the resident entry now.
    cache.acquire(b, 8, false);
    EXPECT_EQ(cache.stats().hits, 1);
}

TEST(PlanCache, SpillTierRehydratesEvictedEntriesBitwise)
{
    // Entry-capped resident tier with a spill tier underneath: a
    // cyclic access pattern that LRU-thrashes the resident tier is
    // served by rehydration instead of re-encoding, and every
    // rehydrated plan is indistinguishable from a fresh build.
    PlanCache cache(/*max_entries=*/2, /*max_bytes=*/0,
                    /*spill_max_bytes=*/1 << 30);
    std::vector<GemmProblem> ps;
    for (uint64_t s = 0; s < 4; ++s)
        ps.push_back(smallGemm(0xF0 + s));

    for (int round = 0; round < 2; ++round) {
        for (const GemmProblem &p : ps) {
            const auto e = cache.acquire(p, 8, true);
            const GemmPlan fresh = GemmPlan::build(p, 8, true);
            std::vector<int32_t> got(
                static_cast<size_t>(p.m) * p.n);
            std::vector<int32_t> want(got.size());
            dbbGemm(e->plan, got.data());
            dbbGemm(fresh, want.data());
            EXPECT_EQ(got, want) << "round " << round;
            EXPECT_EQ(e->problem.a, p.a) << "round " << round;
            EXPECT_EQ(e->problem.w, p.w) << "round " << round;
            EXPECT_EQ(e->plan.wgtDenseT() != nullptr,
                      fresh.wgtDenseT() != nullptr);
        }
    }
    const PlanCache::Stats st = cache.stats();
    // Each workload encodes exactly once; the whole second round is
    // rehydration (the 2-entry resident tier can never hold the
    // 4-workload cycle).
    EXPECT_EQ(st.misses, 4);
    EXPECT_EQ(st.spill_hits, 4);
    EXPECT_EQ(st.hits, 0);
    EXPECT_GT(st.spill_entries, 0);
    EXPECT_GT(st.spill_bytes, 0);
    EXPECT_LE(st.spill_bytes, 1 << 30);
}

TEST(PlanCache, SpillBudgetDropsOldestAndStaysBounded)
{
    // A spill budget big enough for roughly one compact entry:
    // older spilled entries are dropped, the accounting stays
    // within budget, and a dropped entry simply re-encodes.
    const GemmProblem probe = smallGemm(0xF8);
    const int64_t one_entry = static_cast<int64_t>(
        spillEncode(CachedPlan(probe, 8, false)).size());
    PlanCache cache(/*max_entries=*/1, 0,
                    /*spill_max_bytes=*/one_entry + 8);
    std::vector<GemmProblem> ps;
    for (uint64_t s = 0; s < 3; ++s)
        ps.push_back(smallGemm(0xF8 + s));
    for (int round = 0; round < 2; ++round)
        for (const GemmProblem &p : ps)
            cache.acquire(p, 8, false);
    const PlanCache::Stats st = cache.stats();
    EXPECT_GT(st.spill_evictions, 0);
    EXPECT_LE(st.spill_bytes, one_entry + 8);
    EXPECT_GT(st.misses, 3) << "dropped entries must re-encode";
    // Whatever tier served it, results must still be correct: the
    // cache never returns a wrong plan, only a slower one.
    const auto e = cache.acquire(ps[0], 8, false);
    EXPECT_EQ(e->problem.a, ps[0].a);
}

TEST(PlanCache, SpillDisabledKeepsLegacyEvictionBehavior)
{
    PlanCache cache(/*max_entries=*/1);
    cache.acquire(smallGemm(0xFA), 8, false);
    cache.acquire(smallGemm(0xFB), 8, false);
    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.evictions, 1);
    EXPECT_EQ(st.spill_entries, 0);
    EXPECT_EQ(st.spill_bytes, 0);
    EXPECT_EQ(st.spill_hits, 0);
}

TEST(PlanCache, StatsSeparateResidentHitsFromRehydrations)
{
    const GemmProblem a = smallGemm(0xFC);
    const GemmProblem b = smallGemm(0xFD);
    PlanCache cache(/*max_entries=*/1, 0,
                    /*spill_max_bytes=*/1 << 30);
    cache.acquire(a, 8, false); // miss
    cache.acquire(a, 8, false); // resident hit
    cache.acquire(b, 8, false); // miss; a spills
    cache.acquire(a, 8, false); // spill hit (rehydration)
    cache.acquire(a, 8, false); // resident hit again
    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.misses, 2);
    EXPECT_EQ(st.hits, 2);
    EXPECT_EQ(st.spill_hits, 1);
}

TEST(PlanCache, InjectedSpillEncodeFaultDegradesToColdRebuild)
{
    const GemmProblem a = smallGemm(0xD0);
    const GemmProblem b = smallGemm(0xD1);
    FaultInjector fi(0x21);
    fi.setRate(FaultSite::SpillEncode, 1.0);
    PlanCache cache(/*max_entries=*/1, 0,
                    /*spill_max_bytes=*/1 << 30);
    cache.setFaultInjector(&fi);

    cache.acquire(a, 8, false); // miss
    cache.acquire(b, 8, false); // miss; a's spill encode faults
    const auto e = cache.acquire(a, 8, false);
    // The dropped entry degrades to a cold re-encode — counted,
    // never wrong.
    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.misses, 3);
    EXPECT_EQ(st.spill_hits, 0);
    EXPECT_EQ(st.spill_entries, 0);
    EXPECT_GT(st.spill_drops, 0);
    EXPECT_EQ(st.spill_drops, fi.injected(FaultSite::SpillEncode));
    EXPECT_EQ(e->problem.a, a.a);
}

TEST(PlanCache, InjectedSpillDecodeFaultFallsBackToColderTier)
{
    const GemmProblem a = smallGemm(0xD2);
    const GemmProblem b = smallGemm(0xD3);
    PlanCache cache(/*max_entries=*/1, 0,
                    /*spill_max_bytes=*/1 << 30);
    cache.acquire(a, 8, false); // miss
    cache.acquire(b, 8, false); // miss; a spills cleanly

    // Decode of the parked image faults: the image is dropped and
    // the lookup degrades to a cold rebuild (no store attached).
    FaultInjector fi(0x22);
    fi.setRate(FaultSite::SpillDecode, 1.0);
    cache.setFaultInjector(&fi);
    const auto e = cache.acquire(a, 8, false);
    const PlanCache::Stats st = cache.stats();
    EXPECT_EQ(st.misses, 3);
    EXPECT_EQ(st.spill_hits, 0);
    EXPECT_GT(st.spill_decode_faults, 0);
    EXPECT_EQ(st.spill_decode_faults,
              fi.injected(FaultSite::SpillDecode));
    EXPECT_EQ(e->problem.a, a.a);
    // The faulted image was dropped, not re-read: a second lookup
    // with faults cleared still re-encodes.
    fi.setRate(FaultSite::SpillDecode, 0.0);
    cache.acquire(b, 8, false); // a spills again... (b evicts a)
    EXPECT_EQ(cache.stats().spill_decode_faults,
              st.spill_decode_faults);
}

TEST(PlanCache, DapMemoComputesOnce)
{
    PlanCache cache;
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        DapStats st;
        st.comparisons = 123;
        return st;
    };
    const uint64_t key = PlanCache::combine(0xD0, 7);
    EXPECT_EQ(cache.dapStats(key, compute).comparisons, 123);
    EXPECT_EQ(cache.dapStats(key, compute).comparisons, 123);
    EXPECT_EQ(computed, 1);
    // A different key computes again.
    cache.dapStats(PlanCache::combine(0xD0, 8), compute);
    EXPECT_EQ(computed, 2);
}

TEST(PlanCache, CachedGemmRunsAreBitwiseIdentical)
{
    Rng rng(0xE0);
    for (int trial = 0; trial < 6; ++trial) {
        const int m = static_cast<int>(rng.uniformInt(1, 80));
        const int k = 8 * static_cast<int>(rng.uniformInt(1, 24));
        const int n = static_cast<int>(rng.uniformInt(1, 64));
        const GemmProblem p = makeDbbGemm(m, k, n, 4, 4, rng);

        for (const ArrayConfig &cfg :
             {ArrayConfig::s2taW(), ArrayConfig::s2taAw(4),
              ArrayConfig::saZvcg(), ArrayConfig::saSmt(2)}) {
            const auto model = makeArrayModel(cfg);
            RunOptions plain;
            plain.compute_output = true;
            const GemmRun ref = model->run(p, plain);

            PlanCache cache;
            RunOptions cached = plain;
            cached.plan_cache = &cache;
            const GemmRun cold = model->run(p, cached);
            const GemmRun warm = model->run(p, cached);
            EXPECT_GE(cache.stats().hits, 1);

            RunOptions scalar = plain;
            scalar.engine = EngineKind::Scalar;
            const GemmRun sc = model->run(p, scalar);

            for (const GemmRun *r : {&cold, &warm, &sc}) {
                EXPECT_EQ(r->output, ref.output)
                    << cfg.name() << " trial " << trial;
                EXPECT_TRUE(r->events == ref.events)
                    << cfg.name() << " trial " << trial;
            }
        }
    }
}

std::vector<LayerWorkload>
testNetwork(Rng &rng)
{
    std::vector<LayerWorkload> layers;
    for (int groups : {1, 4, 16}) {
        LayerWorkload wl;
        wl.name = "l" + std::to_string(groups);
        const int in_c = 16, out_c = 16;
        const int gc = in_c / groups;
        wl.shape = {in_c, 10, 10, out_c, 3, 3, 1, 1, groups};
        wl.act_nnz = 4;
        wl.wgt_nnz = 4;
        wl.input = makeDbbTensor({10, 10, in_c}, 4, rng);
        const Int8Tensor tmp =
            makeDbbTensor({3, 3, out_c, gc}, std::min(4, gc), rng);
        wl.weights = Int8Tensor({3, 3, gc, out_c});
        for (int ky = 0; ky < 3; ++ky)
            for (int kx = 0; kx < 3; ++kx)
                for (int c = 0; c < gc; ++c)
                    for (int oc = 0; oc < out_c; ++oc)
                        wl.weights(ky, kx, c, oc) =
                            tmp(ky, kx, oc, c);
        layers.push_back(std::move(wl));
    }
    return layers;
}

TEST(PlanCache, NetworkSweepIdenticalAcrossCacheAndThreads)
{
    Rng rng(0xE1);
    const std::vector<LayerWorkload> layers = testNetwork(rng);
    const std::vector<ArrayConfig> sweep = {
        ArrayConfig::saZvcg(), ArrayConfig::s2taW(),
        ArrayConfig::s2taAw(4)};

    // Reference: serial, no cache.
    std::vector<NetworkRun> ref;
    for (const ArrayConfig &cfg : sweep) {
        AcceleratorConfig acfg;
        acfg.array = cfg;
        acfg.sim_threads = 1;
        NetworkRunOptions opt;
        opt.compute_output = true;
        ref.push_back(
            Accelerator(acfg).runNetwork(layers, opt));
    }

    for (int threads : {1, 0, 3}) {
        PlanCache cache;
        for (size_t c = 0; c < sweep.size(); ++c) {
            AcceleratorConfig acfg;
            acfg.array = sweep[c];
            acfg.sim_threads = threads;
            NetworkRunOptions opt;
            opt.compute_output = true;
            opt.plan_cache = &cache;
            const NetworkRun nr =
                Accelerator(acfg).runNetwork(layers, opt);
            ASSERT_EQ(nr.layers.size(), ref[c].layers.size());
            EXPECT_TRUE(nr.total == ref[c].total)
                << sweep[c].name() << " threads=" << threads;
            for (size_t i = 0; i < nr.layers.size(); ++i) {
                EXPECT_TRUE(nr.layers[i].output ==
                            ref[c].layers[i].output)
                    << sweep[c].name() << " threads=" << threads
                    << " layer " << i;
                EXPECT_TRUE(nr.layers[i].events ==
                            ref[c].layers[i].events)
                    << sweep[c].name() << " threads=" << threads
                    << " layer " << i;
            }
        }
        // The second and third configs share the DBB-side plans;
        // the sweep must hit for every reused layer.
        EXPECT_GT(cache.stats().hits, 0) << "threads=" << threads;
    }
}

/** A conv layer with @p in_c input channels in @p groups groups,
 *  weights at most 4/8 dense along each tap's channels. */
LayerWorkload
sharingLayer(const char *name, int in_c, int out_c, int groups,
             Rng &rng)
{
    LayerWorkload wl;
    wl.name = name;
    const int gc = in_c / groups;
    wl.shape = {in_c, 9, 9, out_c, 3, 3, 1, 1, groups};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({9, 9, in_c}, 4, rng);
    const Int8Tensor tmp =
        makeDbbTensor({3, 3, out_c, gc}, std::min(4, gc), rng);
    wl.weights = Int8Tensor({3, 3, gc, out_c});
    for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
            for (int c = 0; c < gc; ++c)
                for (int oc = 0; oc < out_c; ++oc)
                    wl.weights(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    return wl;
}

void
expectLayerRunsEqual(const LayerRun &a, const LayerRun &b,
                     const std::string &at)
{
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_TRUE(a.events == b.events) << at;
    EXPECT_EQ(a.dense_macs, b.dense_macs) << at;
    EXPECT_EQ(a.act_nnz_used, b.act_nnz_used) << at;
    EXPECT_EQ(a.memory_bound, b.memory_bound) << at;
    EXPECT_EQ(a.mcu_bound, b.mcu_bound) << at;
    EXPECT_EQ(a.compute_cycles, b.compute_cycles) << at;
    EXPECT_EQ(a.batch, b.batch) << at;
    EXPECT_TRUE(a.output == b.output) << at;
    EXPECT_EQ(a.h2d_bytes, b.h2d_bytes) << at;
    EXPECT_EQ(a.d2h_bytes, b.d2h_bytes) << at;
}

TEST(PlanCache, SaAndS2taShareUnpaddedLayerPlans)
{
    // SA-family designs lower with channel alignment 1 and S2TA
    // designs with bz. When bz divides groupInC no segment is
    // padded and both lower bit-identically, so one plan serves
    // both; a 3-channel stem and a depthwise layer pad their
    // segments under S2TA and keep one plan per alignment.
    Rng rng(0xE3);
    const std::vector<LayerWorkload> layers = {
        sharingLayer("plain", 16, 16, 1, rng),
        sharingLayer("stem", 3, 16, 1, rng),
        sharingLayer("depthwise", 16, 16, 16, rng)};
    const int64_t groups[] = {1, 1, 16};
    const int64_t s2ta_builds[] = {0, 1, 16};

    for (const bool compute_output : {false, true}) {
        PlanCache cache;
        const std::vector<ArrayConfig> designs = {
            ArrayConfig::saZvcg(), ArrayConfig::s2taW()};
        for (size_t d = 0; d < designs.size(); ++d) {
            AcceleratorConfig acfg;
            acfg.array = designs[d];
            acfg.sim_threads = 1;
            const Accelerator acc(acfg);
            NetworkRunOptions plain;
            plain.compute_output = compute_output;
            NetworkRunOptions cached = plain;
            cached.plan_cache = &cache;
            for (size_t l = 0; l < layers.size(); ++l) {
                const std::string at = designs[d].name() + " " +
                                       layers[l].name + " output " +
                                       std::to_string(compute_output);
                const PlanCache::Stats before = cache.stats();
                const LayerRun run = acc.runLayer(layers[l], cached);
                const PlanCache::Stats after = cache.stats();
                const int64_t built = after.misses - before.misses;
                EXPECT_EQ(built, d == 0 ? groups[l] : s2ta_builds[l])
                    << at;
                EXPECT_EQ(after.hits - before.hits,
                          groups[l] - built)
                    << at;
                expectLayerRunsEqual(run, acc.runLayer(layers[l], plain),
                                     at);
            }
        }
    }
}

TEST(PlanCache, AcquireLayerBatchesAndHits)
{
    Rng rng(0xE2);
    const std::vector<LayerWorkload> layers = testNetwork(rng);
    PlanCache cache;
    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::s2taAw(4);
    acfg.sim_threads = 1;
    const Accelerator acc(acfg);
    NetworkRunOptions opt;
    opt.plan_cache = &cache;

    (void)acc.runNetwork(layers, opt);
    const PlanCache::Stats cold = cache.stats();
    // One entry per (layer, group): 1 + 4 + 16, plus DAP memo
    // misses per layer.
    EXPECT_EQ(cold.entries, 21);

    (void)acc.runNetwork(layers, opt);
    const PlanCache::Stats warm = cache.stats();
    EXPECT_EQ(warm.misses, cold.misses)
        << "second pass must not re-encode anything";
    EXPECT_GT(warm.hits, cold.hits);
}

} // anonymous namespace
} // namespace s2ta
