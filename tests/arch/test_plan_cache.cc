/** @file Tests for the cross-run PlanCache: hit/miss accounting,
 *  deterministic LRU eviction and bitwise rebuilds of evicted
 *  entries, mutation safety via content fingerprints and tensor
 *  digests, the DAP memo,
 *  and — the load-bearing property — bitwise-identical results with
 *  caching on vs off, bounded or not, across array configs,
 *  engines, and thread counts. */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <utility>

#include "arch/accelerator.hh"
#include "arch/plan_cache.hh"
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

/** Full structural equality of two cache entries: operands (the
 *  activations of a compute entry, none in an events-only one), group
 *  and segment layout, block masks, packed weights, every group's
 *  profile, and the functional output. */
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

    ASSERT_EQ(a.plan.packedBytes(), b.plan.packedBytes());
    const size_t cols =
        static_cast<size_t>(a.problem.groups) * a.problem.n;
    if (a.plan.packedWeights() != nullptr) {
        EXPECT_EQ(std::memcmp(a.plan.packedWeights(),
                              b.plan.packedWeights(),
                              a.plan.packedBytes()),
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

    const auto e1 = cache.acquire(p, 8, /*compute=*/false);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().entries, 1);

    const auto e2 = cache.acquire(p, 8, false);
    EXPECT_EQ(cache.stats().misses, 1);
    EXPECT_EQ(cache.stats().hits, 1);
    EXPECT_EQ(e1.get(), e2.get()) << "hit must return same entry";

    // A compute entry is a different entry (the plan contents
    // differ), as is a different block size.
    cache.acquire(p, 8, true);
    cache.acquire(p, 4, false);
    EXPECT_EQ(cache.stats().misses, 3);
    EXPECT_EQ(cache.stats().entries, 3);
    EXPECT_GT(cache.stats().resident_bytes, 0);
}

TEST(PlanCache, ResidentBytesCountWhatAnEntryHolds)
{
    // Every resident entry holds one mask byte per block of each
    // operand, and no compressed value array. A compute entry (when
    // outputs were requested) also holds its activations and the
    // packed weights: 16-column panels of ceil(K/4) 64-byte quads
    // and 64 bytes of column sums. An events-only entry holds
    // neither, and no entry keeps the weight operand itself.
    // K = 67 leaves a ragged tail block on every bz but 1, and a
    // ragged quad.
    for (const int bz : {8, 5, 1}) {
        for (const bool compute : {false, true}) {
            Rng rng(0xB1);
            const GemmProblem p =
                makeUnstructuredGemm(24, 67, 16, 0.5, 0.5, rng);
            PlanCache cache;
            const auto e = cache.acquire(p, bz, compute);
            const int64_t nb = (p.k + bz - 1) / bz;
            const int64_t masks = (static_cast<int64_t>(p.m) + p.n) * nb;
            const int64_t packed = (67 + 3) / 4 * 64 + 64;
            const int64_t want =
                compute ? static_cast<int64_t>(p.a.size()) + masks + packed
                        : masks;
            EXPECT_EQ(cache.stats().resident_bytes, want)
                << "bz " << bz << " compute " << compute;
            EXPECT_EQ(e->problem.a.size(), compute ? p.a.size() : 0u);
            EXPECT_TRUE(e->problem.w.empty());
        }
    }
}

TEST(PlanCache, FingerprintGuardsMutatedOperands)
{
    PlanCache cache;
    GemmProblem p = smallGemm(0xA1);
    cache.acquire(p, 8, true);

    // Mutating the operands must never return the stale plan.
    p.a[3] = static_cast<int8_t>(p.a[3] + 1);
    const auto e = cache.acquire(p, 8, true);
    EXPECT_EQ(cache.stats().misses, 2);
    EXPECT_EQ(e->problem.a[3], p.a[3]);
}

TEST(PlanCache, EvictionIsLruAndDeterministic)
{
    const GemmProblem a = smallGemm(0xB0);
    const GemmProblem b = smallGemm(0xB1);
    const GemmProblem c = smallGemm(0xB2);

    const auto run = [&](PlanCache &cache, bool compute) {
        cache.acquire(a, 8, compute);
        const auto first_b = cache.acquire(b, 8, compute);
        cache.acquire(a, 8, compute); // promote a over b
        cache.acquire(c, 8, compute); // evicts b (LRU)
        cache.acquire(a, 8, compute); // still resident
        // A miss again: the dropped entry is rebuilt bit for bit,
        // while the old one lives on for its holder.
        const auto again_b = cache.acquire(b, 8, compute);
        EXPECT_NE(first_b.get(), again_b.get());
        expectEntriesEqual(*first_b, *again_b);
        return cache.stats();
    };

    PlanCache c1(/*max_entries=*/2);
    const PlanCache::Stats s1 = run(c1, false);
    EXPECT_EQ(s1.misses, 4) << "a, b, c, then b again";
    EXPECT_EQ(s1.hits, 2);
    EXPECT_EQ(s1.evictions, 2);
    EXPECT_EQ(s1.entries, 2);

    // The same access sequence on a fresh cache produces exactly
    // the same accounting: eviction order is deterministic.
    PlanCache c2(2);
    const PlanCache::Stats s2 = run(c2, false);
    EXPECT_EQ(s1.misses, s2.misses);
    EXPECT_EQ(s1.hits, s2.hits);
    EXPECT_EQ(s1.evictions, s2.evictions);
    EXPECT_EQ(s1.resident_bytes, s2.resident_bytes);

    // Compute entries (activations and packed weights) go the same
    // way.
    PlanCache c3(2);
    const PlanCache::Stats s3 = run(c3, true);
    EXPECT_EQ(s3.misses, s1.misses);
    EXPECT_EQ(s3.hits, s1.hits);
    EXPECT_EQ(s3.evictions, s1.evictions);
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
    // The dropped entry's bytes left the count with it.
    PlanCache only_b;
    only_b.acquire(b, 8, false);
    EXPECT_EQ(cache.stats().resident_bytes,
              only_b.stats().resident_bytes);
    // b is the resident entry now.
    cache.acquire(b, 8, false);
    EXPECT_EQ(cache.stats().hits, 1);
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

    const auto run_sweep = [&](PlanCache &cache, int threads,
                               const std::string &label) {
        for (size_t c = 0; c < sweep.size(); ++c) {
            AcceleratorConfig acfg;
            acfg.array = sweep[c];
            acfg.sim_threads = threads;
            NetworkRunOptions opt;
            opt.compute_output = true;
            opt.plan_cache = &cache;
            const NetworkRun nr =
                Accelerator(acfg).runNetwork(layers, opt);
            const std::string at = sweep[c].name() + " " + label +
                                   " threads=" + std::to_string(threads);
            ASSERT_EQ(nr.layers.size(), ref[c].layers.size());
            EXPECT_TRUE(nr.total == ref[c].total) << at;
            for (size_t i = 0; i < nr.layers.size(); ++i) {
                EXPECT_TRUE(nr.layers[i].output ==
                            ref[c].layers[i].output)
                    << at << " layer " << i;
                EXPECT_TRUE(nr.layers[i].events ==
                            ref[c].layers[i].events)
                    << at << " layer " << i;
            }
        }
    };

    int64_t footprint = 0;
    for (int threads : {1, 0, 3}) {
        PlanCache cache;
        run_sweep(cache, threads, "unbounded");
        // The second and third configs share the DBB-side plans;
        // the sweep must hit for every reused layer.
        EXPECT_GT(cache.stats().hits, 0) << "threads=" << threads;
        footprint = cache.stats().resident_bytes;
    }

    // A byte budget below the sweep's plan footprint: concurrent
    // lanes evict plans other lanes may still simulate from, and
    // evicted plans are rebuilt on their next use, so results stay
    // bitwise identical while the cache holds its budget.
    const int64_t budget = footprint / 3;
    for (int threads : {0, 3}) {
        PlanCache bounded(0, budget);
        run_sweep(bounded, threads, "bounded");
        const PlanCache::Stats st = bounded.stats();
        EXPECT_GT(st.evictions, 0) << "threads=" << threads;
        EXPECT_TRUE(st.resident_bytes <= budget || st.entries == 1)
            << "threads=" << threads << ": " << st.resident_bytes
            << " bytes in " << st.entries << " entries, budget "
            << budget;
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

/** Write @p v at flat index @p i of the rank-3 or rank-4 @p t through
 *  the multi-index operator(). */
void
writeAtIndex(Int8Tensor &t, int64_t i, int8_t v)
{
    int64_t idx[4] = {};
    for (int d = t.rank() - 1; d >= 0; --d) {
        idx[d] = i % t.dim(d);
        i /= t.dim(d);
    }
    if (t.rank() == 3)
        t(idx[0], idx[1], idx[2]) = v;
    else
        t(idx[0], idx[1], idx[2], idx[3]) = v;
}

TEST(PlanCache, LayerWritesAfterACachedVisitMiss)
{
    // Plan keys and the DAP memo key read the operand tensors'
    // digests, which every write forgets. After a cached visit, a
    // write through any non-const accessor or an assignment must
    // make the next visit a plan miss (a DAP-memo miss too when the
    // input changed), with results equal to an uncached run's. Each
    // write zeroes a non-zero, so masks, events and outputs change.
    using Write = std::function<void(Int8Tensor &, int64_t)>;
    const std::pair<const char *, Write> writes[] = {
        {"data", [](Int8Tensor &t, int64_t i) { t.data()[i] = 0; }},
        {"flat", [](Int8Tensor &t, int64_t i) { t.flat(i) = 0; }},
        {"operator()",
         [](Int8Tensor &t, int64_t i) { writeAtIndex(t, i, 0); }},
        {"fill", [](Int8Tensor &t, int64_t) { t.fill(0); }},
        {"copy-assign",
         [](Int8Tensor &t, int64_t i) {
             Int8Tensor other = t;
             other.flat(i) = 0;
             (void)other.digest();
             t = other;
         }},
        {"move-assign",
         [](Int8Tensor &t, int64_t i) {
             Int8Tensor other = t;
             other.flat(i) = 0;
             t = std::move(other);
         }},
    };
    AcceleratorConfig acfg;
    acfg.array = ArrayConfig::s2taAw(4);
    acfg.sim_threads = 1;
    const Accelerator acc(acfg);
    for (const bool compute_output : {false, true}) {
        for (const bool on_input : {true, false}) {
            for (const auto &[name, write] : writes) {
                const std::string at =
                    std::string(name) + (on_input ? " input" : " weights") +
                    " output " + std::to_string(compute_output);
                Rng rng(0xE4);
                LayerWorkload wl = sharingLayer("plain", 16, 16, 1, rng);
                ASSERT_LT(wl.act_nnz, acfg.array.bz);
                NetworkRunOptions plain;
                plain.compute_output = compute_output;
                NetworkRunOptions cached = plain;
                PlanCache cache;
                cached.plan_cache = &cache;
                (void)acc.runLayer(wl, cached);
                (void)acc.runLayer(wl, cached);
                const PlanCache::Stats warm = cache.stats();
                ASSERT_EQ(warm.misses, 1) << at;
                ASSERT_EQ(warm.hits, 1) << at;

                Int8Tensor &t = on_input ? wl.input : wl.weights;
                const Int8Tensor &ct = t;
                int64_t nz = 0;
                while (ct.flat(nz) == 0)
                    ++nz;
                write(t, nz);
                const LayerRun run = acc.runLayer(wl, cached);
                const PlanCache::Stats after = cache.stats();
                EXPECT_EQ(after.misses - warm.misses, 1) << at;
                EXPECT_EQ(after.hits, warm.hits) << at;
                EXPECT_EQ(after.dap_misses - warm.dap_misses,
                          on_input ? 1 : 0)
                    << at;
                expectLayerRunsEqual(run, acc.runLayer(wl, plain), at);
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
