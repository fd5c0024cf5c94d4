/** @file Tests for the deterministic fault-injection harness:
 *  decisions are pure functions of (seed, site, identity), each
 *  site's decision stream is pinned, rates 0 and 1 are exact,
 *  intermediate rates hit their expected fraction, stall magnitudes
 *  stay in range, and the per-site counters reconcile exactly with
 *  the decisions taken. */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "base/fault_injection.hh"

namespace s2ta {
namespace {

TEST(FaultInjection, DecisionsArePureInSeedSiteIdentity)
{
    FaultInjector a(0x1234);
    FaultInjector b(0x1234);
    a.setRate(FaultSite::LayerCompute, 0.3);
    b.setRate(FaultSite::LayerCompute, 0.3);
    for (uint64_t id = 0; id < 1000; ++id) {
        EXPECT_EQ(a.shouldFail(FaultSite::LayerCompute, id),
                  b.shouldFail(FaultSite::LayerCompute, id))
            << "id " << id;
    }
    // Re-asking the same injector the same question repeats the
    // answer: no hidden call-counter state.
    for (uint64_t id = 0; id < 100; ++id) {
        EXPECT_EQ(a.shouldFail(FaultSite::LayerCompute, id),
                  b.shouldFail(FaultSite::LayerCompute, id));
    }

    // Pinned streams: the decision hash folds int(site) in, so
    // renumbering an enumerator would move every fault behind the
    // overload and fleet artifacts (the values are explicit, so
    // deleting a site moves none of the others). Each site's
    // decisions for identities 0..255 at rate 0.5, folded in
    // identity order, must match the values recorded when the
    // streams were pinned.
    const struct
    {
        FaultSite site;
        uint64_t fold;
    } pinned[] = {
        {FaultSite::SpillEncode, 0x8136736793496749ull},
        {FaultSite::SpillDecode, 0x7953c39ccba59df7ull},
        {FaultSite::LayerCompute, 0x8e3dda9818fcc71aull},
        {FaultSite::LayerStall, 0x13c6b3755d648c0full},
        {FaultSite::ReplicaCrash, 0xe754fb18982716adull},
        {FaultSite::ReplicaStall, 0x235e5983e034a6d2ull},
        {FaultSite::ReplicaRestart, 0x585ae6ed7f713210ull},
    };
    static_assert(std::size(pinned) == kFaultSiteCount);
    for (const auto &p : pinned) {
        FaultInjector fi(0x5EED);
        fi.setRate(p.site, 0.5);
        uint64_t fold = 0;
        for (uint64_t id = 0; id < 256; ++id)
            fold = FaultInjector::combineId(
                fold, fi.shouldFail(p.site, id) ? 1 : 0);
        EXPECT_EQ(fold, p.fold) << faultSiteName(p.site);
    }
    FaultInjector stall(0x5EED);
    stall.setRate(FaultSite::LayerStall, 0.5);
    uint64_t stall_fold = 0;
    for (uint64_t id = 0; id < 256; ++id)
        stall_fold = FaultInjector::combineId(
            stall_fold, static_cast<uint64_t>(stall.stallCycles(id)));
    EXPECT_EQ(stall_fold, 0x099fb93fde2c3371ull);
}

TEST(FaultInjection, SeedAndSiteChangeTheFaultSet)
{
    FaultInjector a(1);
    FaultInjector b(2);
    a.setRate(FaultSite::SpillEncode, 0.5);
    a.setRate(FaultSite::SpillDecode, 0.5);
    b.setRate(FaultSite::SpillEncode, 0.5);
    int seed_diff = 0, site_diff = 0;
    for (uint64_t id = 0; id < 512; ++id) {
        seed_diff += a.shouldFail(FaultSite::SpillEncode, id) !=
                             b.shouldFail(FaultSite::SpillEncode, id)
                         ? 1
                         : 0;
        site_diff += a.shouldFail(FaultSite::SpillEncode, id) !=
                             a.shouldFail(FaultSite::SpillDecode, id)
                         ? 1
                         : 0;
    }
    // Independent fair coins disagree about half the time; anything
    // clearly non-zero proves the seed / site is folded in.
    EXPECT_GT(seed_diff, 100);
    EXPECT_GT(site_diff, 100);
}

TEST(FaultInjection, RateZeroNeverFiresRateOneAlwaysFires)
{
    FaultInjector fi(7);
    fi.setRate(FaultSite::LayerCompute, 1.0);
    for (uint64_t id = 0; id < 256; ++id) {
        EXPECT_FALSE(fi.shouldFail(FaultSite::SpillEncode, id));
        EXPECT_TRUE(fi.shouldFail(FaultSite::LayerCompute, id));
    }
    EXPECT_EQ(fi.injected(FaultSite::SpillEncode), 0);
    EXPECT_EQ(fi.evaluated(FaultSite::SpillEncode), 256);
    EXPECT_EQ(fi.injected(FaultSite::LayerCompute), 256);
    EXPECT_EQ(fi.evaluated(FaultSite::LayerCompute), 256);
}

TEST(FaultInjection, RateMatchesInjectedFraction)
{
    FaultInjector fi(0xABCD);
    fi.setRate(FaultSite::LayerCompute, 0.25);
    const int64_t trials = 20000;
    int64_t fired = 0;
    for (uint64_t id = 0; id < static_cast<uint64_t>(trials); ++id)
        fired += fi.shouldFail(FaultSite::LayerCompute, id) ? 1 : 0;
    // 4-sigma band around 0.25 * 20000 = 5000 (sigma ~ 61).
    EXPECT_NEAR(static_cast<double>(fired), 5000.0, 250.0);
    EXPECT_EQ(fi.injected(FaultSite::LayerCompute), fired);
    EXPECT_EQ(fi.evaluated(FaultSite::LayerCompute), trials);
}

TEST(FaultInjection, CountersAreExactUnderThreads)
{
    FaultInjector fi(0x99);
    fi.setRate(FaultSite::SpillEncode, 0.5);
    constexpr int kThreads = 8;
    constexpr uint64_t kPer = 4000;
    // Every thread asks about the same identity range; decisions
    // are pure, so each evaluation fires or not identically and the
    // totals are exact multiples of the single-thread counts.
    int64_t serial_fired = 0;
    {
        FaultInjector ref(0x99);
        ref.setRate(FaultSite::SpillEncode, 0.5);
        for (uint64_t id = 0; id < kPer; ++id)
            serial_fired +=
                ref.shouldFail(FaultSite::SpillEncode, id) ? 1 : 0;
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fi] {
            for (uint64_t id = 0; id < kPer; ++id)
                fi.shouldFail(FaultSite::SpillEncode, id);
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(fi.evaluated(FaultSite::SpillEncode),
              kThreads * static_cast<int64_t>(kPer));
    EXPECT_EQ(fi.injected(FaultSite::SpillEncode),
              kThreads * serial_fired);
}

TEST(FaultInjection, StallCyclesStayInRangeAndRepeat)
{
    FaultInjector fi(0x77);
    fi.setRate(FaultSite::LayerStall, 1.0);
    fi.setStallCycles(100, 200);
    std::set<int64_t> seen;
    for (uint64_t id = 0; id < 500; ++id) {
        const int64_t c = fi.stallCycles(id);
        EXPECT_GE(c, 100);
        EXPECT_LE(c, 200);
        EXPECT_EQ(fi.stallCycles(id), c) << "id " << id;
        seen.insert(c);
    }
    // The magnitude varies with the identity (not one constant).
    EXPECT_GT(seen.size(), 10u);

    // A non-firing site stalls nothing.
    FaultInjector off(0x77);
    off.setStallCycles(100, 200);
    for (uint64_t id = 0; id < 100; ++id)
        EXPECT_EQ(off.stallCycles(id), 0);
}

TEST(FaultInjection, CombineIdIsOrderDependent)
{
    EXPECT_NE(FaultInjector::combineId(1, 2),
              FaultInjector::combineId(2, 1));
    EXPECT_NE(FaultInjector::combineId(0, 0),
              FaultInjector::combineId(0, 1));
    // Composite identities of distinct (request, attempt) pairs
    // collide only astronomically rarely; spot-check a grid.
    std::set<uint64_t> ids;
    for (uint64_t r = 0; r < 64; ++r)
        for (uint64_t a = 0; a < 8; ++a)
            ids.insert(FaultInjector::combineId(r, a));
    EXPECT_EQ(ids.size(), 64u * 8u);
}

TEST(FaultInjection, SiteNamesAreStable)
{
    EXPECT_STREQ(faultSiteName(FaultSite::SpillEncode),
                 "spill-encode");
    EXPECT_STREQ(faultSiteName(FaultSite::SpillDecode),
                 "spill-decode");
    EXPECT_STREQ(faultSiteName(FaultSite::LayerCompute),
                 "layer-compute");
    EXPECT_STREQ(faultSiteName(FaultSite::LayerStall),
                 "layer-stall");
    EXPECT_STREQ(faultSiteName(FaultSite::ReplicaCrash),
                 "replica-crash");
    EXPECT_STREQ(faultSiteName(FaultSite::ReplicaStall),
                 "replica-stall");
    EXPECT_STREQ(faultSiteName(FaultSite::ReplicaRestart),
                 "replica-restart");
}

TEST(FaultInjection, ReplicaSitesRollIndependently)
{
    // Replica-scoped sites share the per-site identity-hash
    // machinery: the same (replica, slot) identity decides
    // independently per site, deterministically per seed.
    FaultInjector a(0xF1EE7);
    FaultInjector b(0xF1EE7);
    a.setRate(FaultSite::ReplicaCrash, 0.25);
    b.setRate(FaultSite::ReplicaCrash, 0.25);
    a.setRate(FaultSite::ReplicaRestart, 0.5);
    b.setRate(FaultSite::ReplicaRestart, 0.5);
    int crashes = 0;
    for (uint64_t r = 0; r < 4; ++r) {
        for (uint64_t slot = 0; slot < 64; ++slot) {
            const uint64_t id = FaultInjector::combineId(r, slot);
            const bool hit =
                a.shouldFail(FaultSite::ReplicaCrash, id);
            EXPECT_EQ(hit,
                      b.shouldFail(FaultSite::ReplicaCrash, id));
            crashes += hit ? 1 : 0;
        }
    }
    // ~64 expected at rate 0.25 over 256 rolls; the exact count is
    // seed-determined, the band only guards the hash being alive.
    EXPECT_GT(crashes, 20);
    EXPECT_LT(crashes, 120);
    EXPECT_EQ(a.injected(FaultSite::ReplicaCrash), crashes);
    EXPECT_EQ(a.injected(FaultSite::ReplicaRestart), 0);
}

} // namespace
} // namespace s2ta
