/** @file Tracer contract: events are recorded with the right
 *  phase/category/payload and export as valid Chrome trace JSON, a
 *  full ring overwrites its oldest events and counts the drops,
 *  clear() empties every ring, concurrent emitters and exporters
 *  are safe (the TSan serve job runs this), disabled tracing costs
 *  no events, and — the load-bearing property — tracing on or off
 *  never changes a NetworkRun bit. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/trace.hh"
#include "serve/model_registry.hh"

namespace s2ta {
namespace obs {
namespace {

/** Events of one (cat, name) in a snapshot. */
std::vector<TraceEvent>
eventsNamed(const std::vector<TraceEvent> &all, const char *cat,
            const char *name)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &ev : all) {
        if (std::strcmp(ev.cat, cat) == 0 &&
            std::strcmp(ev.name, name) == 0)
            out.push_back(ev);
    }
    return out;
}

TEST(Tracer, StartsDisabledAndRecordsNothing)
{
    Tracer t;
    EXPECT_FALSE(t.enabled());
    t.instant("test", "ignored", 1);
    t.counter("test", "ignored", 2);
    t.completeEvent("test", "ignored", 0, 10);
    EXPECT_EQ(t.stats().recorded, 0);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, RecordsAllThreePhasesWithPayloads)
{
    Tracer t;
    t.setEnabled(true);
    const int64_t t0 = t.nowNs();
    t.completeEvent("cat-a", "span", t0, 1234, /*arg=*/7);
    t.instant("cat-b", "mark", 42);
    t.counter("cat-b", "depth", 3);

    const std::vector<TraceEvent> all = t.snapshot();
    ASSERT_EQ(all.size(), 3u);
    const Tracer::Stats st = t.stats();
    EXPECT_EQ(st.recorded, 3);
    EXPECT_EQ(st.dropped, 0);
    EXPECT_EQ(st.threads, 1);

    const auto spans = eventsNamed(all, "cat-a", "span");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].phase, TraceEvent::Phase::Complete);
    EXPECT_EQ(spans[0].ts_ns, t0);
    EXPECT_EQ(spans[0].dur_ns, 1234);
    EXPECT_EQ(spans[0].value, 7);

    const auto marks = eventsNamed(all, "cat-b", "mark");
    ASSERT_EQ(marks.size(), 1u);
    EXPECT_EQ(marks[0].phase, TraceEvent::Phase::Instant);
    EXPECT_EQ(marks[0].value, 42);

    const auto depths = eventsNamed(all, "cat-b", "depth");
    ASSERT_EQ(depths.size(), 1u);
    EXPECT_EQ(depths[0].phase, TraceEvent::Phase::Counter);
    EXPECT_EQ(depths[0].value, 3);
}

TEST(Tracer, SnapshotIsSortedByTimestamp)
{
    Tracer t;
    t.setEnabled(true);
    for (int i = 0; i < 100; ++i)
        t.instant("test", "tick", i);
    const std::vector<TraceEvent> all = t.snapshot();
    ASSERT_EQ(all.size(), 100u);
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i].ts_ns, all[i - 1].ts_ns);
}

TEST(Tracer, FullRingOverwritesOldestAndCountsDrops)
{
    Tracer t(/*ring_capacity=*/8);
    t.setEnabled(true);
    for (int i = 0; i < 20; ++i)
        t.instant("test", "tick", i);

    const Tracer::Stats st = t.stats();
    EXPECT_EQ(st.recorded, 8);
    EXPECT_EQ(st.dropped, 12);

    // The survivors are exactly the newest 8, oldest-first.
    const std::vector<TraceEvent> all = t.snapshot();
    ASSERT_EQ(all.size(), 8u);
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].value, static_cast<int64_t>(12 + i));
}

TEST(Tracer, RingCapacityRoundsUpToPowerOfTwo)
{
    Tracer t(/*ring_capacity=*/5); // rounds to 8
    t.setEnabled(true);
    for (int i = 0; i < 8; ++i)
        t.instant("test", "tick", i);
    EXPECT_EQ(t.stats().recorded, 8);
    EXPECT_EQ(t.stats().dropped, 0);
}

TEST(Tracer, ClearEmptiesEveryRingAndResetsDrops)
{
    Tracer t(/*ring_capacity=*/4);
    t.setEnabled(true);
    for (int i = 0; i < 9; ++i)
        t.instant("test", "tick", i);
    EXPECT_GT(t.stats().dropped, 0);

    t.clear();
    EXPECT_EQ(t.stats().recorded, 0);
    EXPECT_EQ(t.stats().dropped, 0);
    EXPECT_TRUE(t.snapshot().empty());

    // The ring is reusable after a clear.
    t.instant("test", "after", 1);
    EXPECT_EQ(t.stats().recorded, 1);
}

TEST(Tracer, SpanRaiiEmitsOneCompleteEvent)
{
    Tracer t;
    t.setEnabled(true);
    {
        TraceSpan span(t, "test", "scoped", 11);
    }
    const auto spans = t.snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].phase, TraceEvent::Phase::Complete);
    EXPECT_GE(spans[0].dur_ns, 0);
    EXPECT_EQ(spans[0].value, 11);
}

TEST(Tracer, SpanDisabledAtConstructionStaysInert)
{
    Tracer t;
    {
        TraceSpan span(t, "test", "half");
        // Enabling mid-span must not produce a half-timed event.
        t.setEnabled(true);
    }
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, ChromeExportIsWellFormed)
{
    Tracer t;
    t.setEnabled(true);
    t.completeEvent("serve", "simulate", t.nowNs(), 5000, 1);
    t.instant("serve", "admit", 2);
    t.counter("replay", "replay.ready", 4);

    const std::string json = t.chromeTraceJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"serve\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"simulate\""),
              std::string::npos);
    // Balanced braces/brackets (cheap structural sanity; the CI
    // smoke job json.load()s a real trace file).
    int depth = 0;
    for (const char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Tracer, ConcurrentEmittersAndExporterAreSafe)
{
    Tracer t(/*ring_capacity=*/1 << 10);
    t.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kEvents = 2000;
    std::atomic<bool> stop{false};

    // One exporter thread snapshots + reads stats in a loop while
    // the emitters hammer their rings (TSan-observed in CI).
    std::thread exporter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::vector<TraceEvent> snap = t.snapshot();
            for (const TraceEvent &ev : snap)
                ASSERT_GE(ev.ts_ns, 0);
            (void)t.stats();
        }
    });

    std::vector<std::thread> emitters;
    for (int w = 0; w < kThreads; ++w) {
        emitters.emplace_back([&t, w] {
            for (int i = 0; i < kEvents; ++i) {
                switch (i % 3) {
                  case 0:
                    t.instant("load", "tick", w);
                    break;
                  case 1:
                    t.counter("load", "value", i);
                    break;
                  default: {
                    TraceSpan span(t, "load", "work", i);
                  } break;
                }
            }
        });
    }
    for (std::thread &th : emitters)
        th.join();
    stop.store(true, std::memory_order_relaxed);
    exporter.join();

    const Tracer::Stats st = t.stats();
    EXPECT_EQ(st.threads, kThreads);
    EXPECT_EQ(st.recorded + st.dropped,
              static_cast<int64_t>(kThreads) * kEvents);
}

/** The property every hook in the serving stack leans on: tracing
 *  is observation only. The same workload through the same cacheless
 *  options must produce bit-identical runs with the global tracer
 *  off, on, and toggled. */
TEST(Tracer, TracingNeverChangesNetworkRunBits)
{
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::s2taAw(4);
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    serve::ModelRegistry registry;
    const ModelWorkload &mw = registry.workload("lenet5", 1);
    NetworkRunOptions opt;
    opt.validate_operands = false;

    Tracer &g = Tracer::global();
    const bool was_enabled = g.enabled();

    g.setEnabled(false);
    const NetworkRun off = acc.runNetwork(mw.layers, opt);
    g.setEnabled(true);
    const NetworkRun on = acc.runNetwork(mw.layers, opt);
    g.setEnabled(was_enabled);

    ASSERT_EQ(off.layers.size(), on.layers.size());
    EXPECT_TRUE(off.total == on.total);
    EXPECT_EQ(off.dense_macs, on.dense_macs);
    for (size_t i = 0; i < off.layers.size(); ++i) {
        EXPECT_TRUE(off.layers[i].events == on.layers[i].events);
        EXPECT_TRUE(off.layers[i].output == on.layers[i].output);
    }
}

} // namespace
} // namespace obs
} // namespace s2ta
