/** @file Unit tests for the fixed-size thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"

namespace s2ta {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(3);
    const int64_t n = 10000;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    pool.parallelFor(n, [&](int64_t i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
}

TEST(ThreadPool, AutoSizedPoolCompletesAllWork)
{
    // workers = 0 sizes from the hardware (possibly zero helpers on
    // a single-core host); either way every index must run.
    ThreadPool pool(0);
    std::atomic<int64_t> sum{0};
    pool.parallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, SequentialJobsReuseWorkers)
{
    ThreadPool pool(2);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> count{0};
        pool.parallelFor(64, [&](int64_t) { count.fetch_add(1); });
        ASSERT_EQ(count.load(), 64) << "round " << round;
    }
}

TEST(ThreadPool, NestedJobReachesIdleLanes)
{
    // The outer job's other indices return at once, so while index
    // 0's nested job runs, the other workers are idle: they must
    // take its indices rather than leave it to the lane that
    // published it.
    ThreadPool pool(3);
    std::mutex mu;
    std::set<std::thread::id> ran_on;
    std::vector<std::atomic<int>> hits(32);
    pool.parallelFor(4, [&](int64_t outer) {
        if (outer != 0)
            return;
        pool.parallelFor(32, [&](int64_t i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            hits[static_cast<size_t>(i)].fetch_add(1);
            std::lock_guard<std::mutex> lk(mu);
            ran_on.insert(std::this_thread::get_id());
        });
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_GE(ran_on.size(), 2u);
}

TEST(ThreadPool, NestedCallOnAnotherPoolRunsInline)
{
    // A lane of one pool calling into another pool runs the nested
    // job itself, so two pools never oversubscribe each other.
    ThreadPool outer_pool(2), inner_pool(2);
    std::vector<std::thread::id> outer_on(6), inner_on(6 * 16);
    outer_pool.parallelFor(6, [&](int64_t o) {
        outer_on[static_cast<size_t>(o)] = std::this_thread::get_id();
        inner_pool.parallelFor(16, [&](int64_t i) {
            inner_on[static_cast<size_t>(o * 16 + i)] =
                std::this_thread::get_id();
        });
    });
    for (size_t j = 0; j < inner_on.size(); ++j)
        EXPECT_EQ(inner_on[j], outer_on[j / 16]) << j;
}

TEST(ThreadPool, NestedJobsUnderConcurrentCallersStress)
{
    // Three outside callers, each nesting two deep: every index of
    // every level must run exactly once, and every call returns.
    ThreadPool pool(3);
    constexpr int kCallers = 3, kRounds = 20;
    constexpr int kOuter = 6, kMid = 5, kInner = 4;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(
        kCallers * kRounds * kOuter * kMid * kInner));
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            for (int r = 0; r < kRounds; ++r) {
                const int64_t base =
                    static_cast<int64_t>(c * kRounds + r) * kOuter;
                pool.parallelFor(kOuter, [&](int64_t o) {
                    pool.parallelFor(kMid, [&](int64_t m) {
                        pool.parallelFor(kInner, [&](int64_t i) {
                            hits[static_cast<size_t>(
                                     ((base + o) * kMid + m) * kInner +
                                     i)]
                                .fetch_add(1);
                        });
                    });
                });
            }
        });
    }
    for (std::thread &t : callers)
        t.join();
    for (size_t j = 0; j < hits.size(); ++j)
        ASSERT_EQ(hits[j].load(), 1) << j;
}

TEST(ThreadPool, DeterministicByIndexReduction)
{
    // The pool's contract: write slot i from fn(i), reduce in index
    // order afterwards -> results are schedule-independent.
    ThreadPool pool(4);
    std::vector<int64_t> a(5000), b(5000);
    pool.parallelFor(5000, [&](int64_t i) {
        a[static_cast<size_t>(i)] = i * i + 7;
    });
    for (int64_t i = 0; i < 5000; ++i)
        b[static_cast<size_t>(i)] = i * i + 7;
    EXPECT_EQ(a, b);
    EXPECT_EQ(std::accumulate(a.begin(), a.end(), int64_t{0}),
              std::accumulate(b.begin(), b.end(), int64_t{0}));
}

TEST(ThreadPool, EmptyAndSingleJobsShortCircuit)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(0, [&](int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](int64_t i) {
        EXPECT_EQ(i, 0);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

} // anonymous namespace
} // namespace s2ta
