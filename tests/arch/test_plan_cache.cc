/** @file Tests for the cross-run PlanCache: hit/miss accounting,
 *  deterministic LRU eviction, mutation safety via content
 *  fingerprints, the spill tier and its codec's exact roundtrip, the
 *  DAP memo, and — the load-bearing property —
 *  bitwise-identical results with caching on vs off across array
 *  configs, engines, and thread counts. */

#include <gtest/gtest.h>

#include <cstring>

#include "arch/accelerator.hh"
#include "arch/plan_cache.hh"
#include "base/fault_injection.hh"
#include "tensor/conv.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

GemmProblem
smallGemm(uint64_t seed, int m = 24, int k = 64, int n = 16,
          int nnz = 4)
{
    Rng rng(seed);
    return makeDbbGemm(m, k, n, nnz, nnz, rng);
}

/** Full structural equality of two cache entries: operands, group
 *  and segment layout, block masks, mirror, every group's profile,
 *  and the functional output. */
void
expectEntriesEqual(const CachedPlan &a, const CachedPlan &b)
{
    ASSERT_EQ(a.problem.m, b.problem.m);
    ASSERT_EQ(a.problem.k, b.problem.k);
    ASSERT_EQ(a.problem.n, b.problem.n);
    ASSERT_EQ(a.problem.groups, b.problem.groups);
    ASSERT_EQ(a.problem.seg, b.problem.seg);
    ASSERT_EQ(a.problem.seg_align, b.problem.seg_align);
    EXPECT_EQ(a.problem.a, b.problem.a);
    EXPECT_EQ(a.problem.w, b.problem.w);

    ASSERT_TRUE(a.plan.encoded() && b.plan.encoded());
    ASSERT_EQ(a.plan.bz(), b.plan.bz());
    const auto expect_masks_equal = [](const DbbMatrix &x,
                                       const DbbMatrix &y) {
        ASSERT_EQ(x.vectors(), y.vectors());
        ASSERT_EQ(x.blocksPerVector(), y.blocksPerVector());
        EXPECT_EQ(std::memcmp(x.vectorMasks(0), y.vectorMasks(0),
                              static_cast<size_t>(x.vectors()) *
                                  x.blocksPerVector()),
                  0);
    };
    expect_masks_equal(a.plan.act(), b.plan.act());
    expect_masks_equal(a.plan.wgt(), b.plan.wgt());

    ASSERT_EQ(a.plan.wgtDenseT() != nullptr,
              b.plan.wgtDenseT() != nullptr);
    const size_t cols =
        static_cast<size_t>(a.problem.groups) * a.problem.n;
    if (a.plan.wgtDenseT() != nullptr) {
        EXPECT_EQ(std::memcmp(a.plan.wgtDenseT(),
                              b.plan.wgtDenseT(),
                              cols * a.problem.k),
                  0);
        std::vector<int32_t> out_a(
            static_cast<size_t>(a.problem.m) * cols);
        std::vector<int32_t> out_b(out_a.size());
        dbbGemm(a.plan, out_a.data());
        dbbGemm(b.plan, out_b.data());
        EXPECT_EQ(out_a, out_b);
    }

    for (int g = 0; g < a.problem.groups; ++g) {
        const OperandProfile &pa = a.plan.profile(g);
        const OperandProfile &pb = b.plan.profile(g);
        EXPECT_EQ(pa.row_nz, pb.row_nz) << "group " << g;
        EXPECT_EQ(pa.col_nz, pb.col_nz) << "group " << g;
        EXPECT_EQ(pa.act_nz_at_k, pb.act_nz_at_k) << "group " << g;
        EXPECT_EQ(pa.wgt_nz_at_k, pb.wgt_nz_at_k) << "group " << g;
        EXPECT_EQ(pa.act_nnz, pb.act_nnz) << "group " << g;
        EXPECT_EQ(pa.wgt_nnz, pb.wgt_nnz) << "group " << g;
        EXPECT_EQ(pa.matched_products, pb.matched_products)
            << "group " << g;
    }
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

TEST(PlanCache, ResidentBytesAreOperandsMasksAndMirror)
{
    // A resident plan holds its operands, one mask byte per block of
    // each operand and, when outputs were requested, the transposed
    // weight mirror: no compressed value array. K = 67 leaves a
    // ragged tail block on every bz but 1.
    for (const int bz : {8, 5, 1}) {
        for (const bool mirror : {false, true}) {
            Rng rng(0xB1);
            const GemmProblem p =
                makeUnstructuredGemm(24, 67, 16, 0.5, 0.5, rng);
            PlanCache cache;
            cache.acquire(p, bz, mirror);
            const int64_t nb = (p.k + bz - 1) / bz;
            const int64_t want =
                static_cast<int64_t>(p.a.size() + p.w.size()) +
                (static_cast<int64_t>(p.m) + p.n) * nb +
                (mirror ? static_cast<int64_t>(p.k) * p.n : 0);
            EXPECT_EQ(cache.stats().resident_bytes, want)
                << "bz " << bz << " mirror " << mirror;
        }
    }
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

TEST(PlanCache, SpillRoundtripIsExact)
{
    // Both operating points, sparse and dense; the mirror is
    // dropped by the codec and re-derived on rehydration.
    for (const int nnz : {2, 8}) {
        const GemmProblem p = smallGemm(0x52, 40, 72, 24, nnz);
        const CachedPlan entry(p, 8, true);
        const auto bytes = spillEncode(entry);
        // Compact relative to the resident footprint (operands +
        // one mask byte per block + mirror): the codec stores only
        // the DBB blocks, mask byte + stored values each.
        const int64_t nb = entry.plan.act().blocksPerVector();
        const int64_t resident =
            static_cast<int64_t>(p.a.size() + p.w.size()) +
            (static_cast<int64_t>(p.m) + p.n) * nb +
            static_cast<int64_t>(p.k) * p.n;
        EXPECT_LT(static_cast<int64_t>(bytes.size()), resident);
        const auto back = spillDecode(bytes.data(), bytes.size());
        ASSERT_NE(back, nullptr);
        expectEntriesEqual(entry, *back);
    }

    // A depthwise layer's grouped GEMM, its one-channel taps
    // modeled padded to the block size: the image carries the group
    // axis and the segment layout, and only the stored values.
    Rng rng(0x54);
    const Conv2dShape dw{16, 7, 6, 16, 3, 3, 1, 1, 16};
    const Int8Tensor input = makeDbbTensor({7, 6, 16}, 4, rng);
    const Int8Tensor weights = makeDbbTensor({3, 3, 1, 16}, 1, rng);
    for (const bool mirror : {false, true}) {
        const CachedPlan entry(
            im2colLowerGrouped(dw, input, weights, 8), 8, mirror);
        ASSERT_EQ(entry.problem.groups, 16);
        ASSERT_TRUE(entry.problem.padded());
        const auto bytes = spillEncode(entry);
        const auto back = spillDecode(bytes.data(), bytes.size());
        ASSERT_NE(back, nullptr);
        expectEntriesEqual(entry, *back);
    }
}

TEST(PlanCache, SpillRoundtripAcrossTileEdgesIsExact)
{
    // K = 1027 gives a ragged tail block and, at bz 8, three
    // 64-block tiles down K; N = 101 gives four 32-column tiles, the
    // last 5 wide. The spill decoder rebuilds the weights through
    // the encoder's tile in reverse, so every edge must come back
    // exact, with and without the dense mirror.
    for (const int bz : {8, 5}) {
        for (const bool mirror : {false, true}) {
            Rng rng(0x53 + static_cast<uint64_t>(bz));
            GemmProblem p(29, 1027, 101);
            for (int8_t &v : p.a)
                v = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
            for (int8_t &v : p.w)
                v = rng.bernoulli(0.4) ? 0 : rng.nonZeroInt8();
            const CachedPlan entry(p, bz, mirror);
            const auto bytes = spillEncode(entry);
            const auto back = spillDecode(bytes.data(), bytes.size());
            ASSERT_NE(back, nullptr);
            EXPECT_EQ(back->problem.a, p.a) << "bz " << bz;
            EXPECT_EQ(back->problem.w, p.w) << "bz " << bz;
            expectEntriesEqual(entry, *back);
        }
    }
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
    // the lookup degrades to a cold rebuild.
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
}

TEST(PlanCache, SaAndS2taShareUnpaddedLayerPlans)
{
    // SA-family designs lower with channel alignment 1 and S2TA
    // designs with bz. When bz divides groupInC no segment is
    // padded and both lower bit-identically, so one plan serves
    // both; a 3-channel stem and a depthwise layer pad their
    // segments under S2TA and keep one plan per alignment. Every
    // layer, the 16-group depthwise one included, is one entry.
    Rng rng(0xE3);
    const std::vector<LayerWorkload> layers = {
        sharingLayer("plain", 16, 16, 1, rng),
        sharingLayer("stem", 3, 16, 1, rng),
        sharingLayer("depthwise", 16, 16, 16, rng)};
    const int64_t lookups[] = {1, 1, 1};
    const int64_t s2ta_builds[] = {0, 1, 1};

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
                EXPECT_EQ(built, d == 0 ? lookups[l] : s2ta_builds[l])
                    << at;
                EXPECT_EQ(after.hits - before.hits,
                          lookups[l] - built)
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
    // One entry per layer, grouped or not (1, 4 and 16 groups),
    // each lowered once; the DAP memo keeps its own counts.
    EXPECT_EQ(cold.entries, 3);
    EXPECT_EQ(cold.misses, 3);
    EXPECT_EQ(cold.hits, 0);

    (void)acc.runNetwork(layers, opt);
    const PlanCache::Stats warm = cache.stats();
    EXPECT_EQ(warm.misses, cold.misses)
        << "second pass must not re-encode anything";
    EXPECT_EQ(warm.hits, 3);
}

} // anonymous namespace
} // namespace s2ta
