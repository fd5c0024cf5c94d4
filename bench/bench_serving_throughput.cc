/**
 * @file
 * Sustained serving throughput: many concurrent inference streams
 * (mixed zoo models, per-request batch sizes > 1) pushed through
 * ONE Accelerator instance with one PlanCache shared across every
 * stream and model — the scenario a weight-static compressed format
 * amortizes best, since repeated (model, batch) requests re-hit the
 * same encoded plans.
 *
 * Two phases over the same request trace:
 *  - cold single-stream: all requests in one FIFO stream, serial
 *    scheduler lane, fresh PlanCache — the naive driver that
 *    re-lowers and re-encodes on first sight of each workload;
 *  - warm multi-stream: the trace spread round-robin over several
 *    streams, request-level fan-out enabled, PlanCache pre-warmed —
 *    the steady state of a serving deployment.
 *
 * Reports sustained GEMM simulations per second for both phases and
 * GATES that warm multi-stream beats cold single-stream by a fixed
 * factor. Also verifies the serving correctness contract: every
 * completion is bitwise identical to a standalone fresh-accelerator
 * run of the same workload, and every stream completes its requests
 * strictly in submission order.
 *
 * Usage: bench_serving_throughput [--smoke] [--json PATH]
 *          [--threads N] [--arch NAME] [--reps N] [--cache-mb N]
 *          [--spill-mb N]
 *        (--model / --no-plan-cache / --engine are rejected: the
 *         trace is mixed-model by definition and the shared cache
 *         is the measured engine)
 *
 * The shared PlanCache runs under a resident-byte budget
 * (--cache-mb, default 1440). The full trace's plans need ~0.81 GB
 * resident, so the default no longer evicts; budgets below that
 * exercise real LRU eviction. Much smaller budgets LRU-thrash the
 * cyclic trace — hit rates collapse and, without a spill tier, the
 * gate legitimately fails. --spill-mb turns that cliff into graceful
 * degradation: evicted plans are kept in compact serialized form
 * (mask + values, zero runs RLE-coded; masks, mirror and operands
 * dropped and re-derived) and rehydrate on hit, which
 * costs a fraction of the full im2col-lower + re-encode miss, so
 * the gate holds at budgets below the eviction cliff.
 *
 * Emits BENCH_serving_throughput.json (schema checked in CI).
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"

using namespace s2ta;
using namespace s2ta::bench;

namespace {

/** Warm multi-stream must beat cold single-stream by this factor. */
constexpr double kThroughputGate = 1.5;

/** One trace entry: a zoo model at a batch size. */
struct TraceItem
{
    const char *model;
    int batch;
};

/**
 * The mixed request trace. Full mode interleaves ResNet-50, AlexNet
 * and MobileNetV1 at batches 1/2/4 over four streams; smoke mode is
 * the CI-sized version of the same shape (two models, two streams,
 * batches 1/2).
 */
std::vector<TraceItem>
traceItems(bool smoke)
{
    if (smoke) {
        return {{"lenet5", 1}, {"mobilenetv1", 2}, {"lenet5", 2},
                {"mobilenetv1", 1}, {"lenet5", 4}, {"lenet5", 1},
                {"mobilenetv1", 2}, {"lenet5", 2}};
    }
    return {{"resnet50", 1},    {"alexnet", 2}, {"mobilenetv1", 1},
            {"resnet50", 2},    {"alexnet", 4}, {"mobilenetv1", 2},
            {"resnet50", 1},    {"alexnet", 2}, {"mobilenetv1", 1},
            {"resnet50", 2},    {"alexnet", 4}, {"mobilenetv1", 2},
            {"resnet50", 1},    {"alexnet", 2}, {"mobilenetv1", 2},
            {"resnet50", 2},    {"alexnet", 4}, {"mobilenetv1", 1},
            {"resnet50", 1},    {"alexnet", 2}, {"mobilenetv1", 2},
            {"resnet50", 2},    {"alexnet", 4}, {"mobilenetv1", 1}};
}

/** Index a per-stream completion grouping by request id. */
std::map<uint64_t, const serve::Completion *>
byId(const std::vector<std::vector<serve::Completion>> &by_stream)
{
    std::map<uint64_t, const serve::Completion *> out;
    for (const auto &stream : by_stream)
        for (const auto &c : stream)
            out.emplace(c.id, &c);
    return out;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(!args.model.empty(), "--model",
                    "the serving trace mixes several models by "
                    "definition");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "the cross-stream plan cache is the measured "
                    "engine");
    args.rejectFlag(args.engine_given, "--engine",
                    "the measured engine is the plan-cached fast "
                    "path (the scalar engine bypasses the plan "
                    "cache entirely)");
    args.rejectFlag(args.replicas_given, "--replicas",
                    "this bench serves one accelerator; fleet "
                    "scaling lives in bench_fleet_serving");
    args.rejectFlag(args.placement_given, "--placement",
                    "single-accelerator serving has nothing to "
                    "place; fleet routing lives in "
                    "bench_fleet_serving");
    const std::string json_path =
        args.json.empty() ? "BENCH_serving_throughput.json"
                          : args.json;
    // Bound the shared cache: a serving deployment cannot hold every
    // encoding resident forever.
    const int cache_budget_mb =
        args.cache_mb_given ? args.cache_mb : 1440;
    const int64_t cache_budget_bytes =
        static_cast<int64_t>(cache_budget_mb) << 20;
    const int64_t spill_budget_bytes =
        static_cast<int64_t>(args.spill_mb) << 20;

    banner("Serving throughput",
           "Multi-stream, multi-model, batch>1 streaming through "
           "one Accelerator + shared PlanCache");

    const std::vector<TraceItem> trace = traceItems(args.smoke);
    const int streams = args.smoke ? 2 : 4;

    // One accelerator instance for the whole deployment.
    AcceleratorConfig acfg;
    acfg.array = args.arch == "s2ta-w" ? ArrayConfig::s2taW()
                                       : ArrayConfig::s2taAw(4);
    acfg.sim_threads = args.ctx.threads;
    const Accelerator acc(acfg);

    // Build every servable workload up front (the registry is the
    // deployment's model store; generation cost is not serving
    // cost). Workload content depends only on the registry seed and
    // the model name, never on request order.
    serve::ModelRegistry registry;
    std::vector<const ModelWorkload *> requests;
    requests.reserve(trace.size());
    int64_t trace_gemms = 0;
    for (const TraceItem &it : trace) {
        const ModelWorkload &mw =
            registry.workload(it.model, it.batch);
        requests.push_back(&mw);
        trace_gemms += serve::StreamScheduler::gemmCount(mw);
    }
    // Distinct (model, batch) workloads actually requested (the
    // registry may additionally hold batch-1 bases that only back
    // batched variants).
    std::vector<const ModelWorkload *> distinct;
    for (const ModelWorkload *mw : requests) {
        bool seen = false;
        for (const ModelWorkload *d : distinct)
            seen = seen || d == mw;
        if (!seen)
            distinct.push_back(mw);
    }
    std::printf("trace: %zu requests over %d streams, %zu distinct "
                "(model, batch) workloads, %lld GEMMs\n\n",
                trace.size(), streams, distinct.size(),
                static_cast<long long>(trace_gemms));

    // Simulation knobs shared by every phase: events-only (serving
    // sweeps don't materialize functional outputs), generator
    // structure trusted, caller-chosen engine.
    NetworkRunOptions run_opt;
    run_opt.engine = args.ctx.engine;
    run_opt.validate_operands = false;

    // ---- phase 1: cold single-stream ----------------------------
    // Fresh cache every rep; all requests in one stream, one
    // scheduler lane. This is the naive driver a serving deployment
    // starts from.
    PlanCache cold_cache(0, cache_budget_bytes,
                         spill_budget_bytes);
    double cold_seconds = 0.0;
    std::vector<std::vector<serve::Completion>> cold_runs;
    std::vector<uint64_t> cold_ids;
    for (int rep = 0; rep < args.reps; ++rep) {
        cold_cache.clear();
        serve::StreamScheduler::Options copts;
        copts.run = run_opt;
        copts.run.plan_cache = &cold_cache;
        copts.threads = 1;
        serve::StreamScheduler cold(acc, copts);
        std::vector<uint64_t> ids;
        ids.reserve(requests.size());
        for (const ModelWorkload *mw : requests)
            ids.push_back(cold.submit(0, *mw));
        const double t0 = benchNow();
        auto runs = cold.drain();
        const double dt = benchNow() - t0;
        if (rep == 0 || dt < cold_seconds) {
            cold_seconds = dt;
            cold_runs = std::move(runs);
            cold_ids = std::move(ids);
        }
    }
    // Drop the cold encodings before warming the serving cache so
    // the two phases never hold plans resident twice.
    cold_cache.clear();
    std::printf("cold single-stream:  %.3f s (%.1f GEMMs/s)\n",
                cold_seconds,
                static_cast<double>(trace_gemms) / cold_seconds);

    // ---- phase 2: warm multi-stream -----------------------------
    // The trace spread round-robin over the streams, request-level
    // fan-out on, shared cache pre-warmed by an unmeasured pass —
    // the steady state under sustained traffic.
    BenchCache warm_tiers(args, cache_budget_mb);
    serve::StreamScheduler::Options wopts;
    wopts.run = run_opt;
    wopts.run.plan_cache = warm_tiers.cachePtr();
    wopts.threads = args.ctx.threads;
    const auto submit_trace = [&](serve::StreamScheduler &s) {
        std::vector<uint64_t> ids;
        ids.reserve(requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
            ids.push_back(s.submit(static_cast<int>(i) % streams,
                                   *requests[i]));
        }
        return ids;
    };
    {
        serve::StreamScheduler warmup(acc, wopts);
        submit_trace(warmup);
        warmup.drain();
    }
    double warm_seconds = 0.0;
    std::vector<std::vector<serve::Completion>> warm_runs;
    std::vector<uint64_t> warm_ids;
    PlanCache::Stats warm_stats;
    for (int rep = 0; rep < args.reps; ++rep) {
        serve::StreamScheduler warm(acc, wopts);
        std::vector<uint64_t> ids = submit_trace(warm);
        // Counters accumulate for the cache's lifetime; the
        // steady-state hit rate is this rep's delta, not the total
        // (which would fold in the warmup's misses).
        const PlanCache::Stats before = warm_tiers.cache.stats();
        const double t0 = benchNow();
        auto runs = warm.drain();
        const double dt = benchNow() - t0;
        if (rep == 0 || dt < warm_seconds) {
            warm_seconds = dt;
            warm_runs = std::move(runs);
            warm_ids = std::move(ids);
            warm_stats = warm_tiers.cache.stats();
            warm_stats.hits -= before.hits;
            warm_stats.misses -= before.misses;
            warm_stats.spill_hits -= before.spill_hits;
            warm_stats.evictions -= before.evictions;
            warm_stats.spill_evictions -= before.spill_evictions;
        }
    }
    std::printf("warm multi-stream:   %.3f s (%.1f GEMMs/s)\n",
                warm_seconds,
                static_cast<double>(trace_gemms) / warm_seconds);

    // ---- correctness: serving == standalone ---------------------
    // Every completion (cold and warm) must be bitwise identical to
    // a standalone fresh-accelerator serial run of its workload: no
    // cache sharing, stream interleaving, or fan-out may change a
    // single event count.
    bool reference_equal = true;
    {
        AcceleratorConfig ref_cfg = acfg;
        ref_cfg.sim_threads = 1;
        const Accelerator ref_acc(ref_cfg);
        NetworkRunOptions ref_opt = run_opt; // no plan cache
        std::vector<NetworkRun> ref_by_workload(distinct.size());
        for (size_t d = 0; d < distinct.size(); ++d) {
            ref_by_workload[d] =
                ref_acc.runNetwork(distinct[d]->layers, ref_opt);
        }
        const auto ref_for = [&](const ModelWorkload *mw)
            -> const NetworkRun & {
            for (size_t d = 0; d < distinct.size(); ++d)
                if (distinct[d] == mw)
                    return ref_by_workload[d];
            s2ta_panic("request workload not in distinct set");
        };
        // Match completions to submitted requests by id, so the
        // check is independent of the scheduler's admission policy.
        const auto check = [&](const auto &by_stream,
                               const std::vector<uint64_t> &ids,
                               const char *what) {
            const auto completions = byId(by_stream);
            if (completions.size() != requests.size()) {
                reference_equal = false;
                return;
            }
            for (size_t i = 0; i < requests.size(); ++i) {
                const auto it = completions.find(ids[i]);
                if (it == completions.end() ||
                    !bitwiseEqualRuns(it->second->run,
                                      ref_for(requests[i]))) {
                    reference_equal = false;
                    std::printf("%s MISMATCH on request %zu\n",
                                what, i);
                }
            }
        };
        check(cold_runs, cold_ids, "COLD");
        check(warm_runs, warm_ids, "WARM");
    }

    // ---- correctness: per-stream in-order completion ------------
    bool in_order = true;
    for (const auto &stream : warm_runs) {
        for (size_t i = 1; i < stream.size(); ++i)
            in_order = in_order && stream[i - 1].id < stream[i].id;
    }

    const double cold_rate =
        static_cast<double>(trace_gemms) / cold_seconds;
    const double warm_rate =
        static_cast<double>(trace_gemms) / warm_seconds;
    const double factor = warm_rate / cold_rate;
    // Lookups resolve in one of three tiers; the resident hit rate
    // is RAM hits over all of them, so rehydrations never
    // masquerade as free hits in the artifact.
    const int64_t warm_lookups =
        warm_stats.hits + warm_stats.spill_hits + warm_stats.misses;
    const double hit_rate =
        warm_lookups == 0
            ? 0.0
            : static_cast<double>(warm_stats.hits) /
                  static_cast<double>(warm_lookups);
    std::printf(
        "\nwarm/cold throughput: %.2fx (gate %.1fx) | warm cache "
        "hit rate %.1f%% (%lld hits / %lld rehydrations / %lld "
        "misses, %lld entries, %.1f MB resident of %d MB budget, "
        "%lld evictions; spill: %lld entries, %.1f MB of %d MB, "
        "%lld dropped)\n"
        "equivalence: reference %s, in-order streams %s\n",
        factor, kThroughputGate, 100.0 * hit_rate,
        static_cast<long long>(warm_stats.hits),
        static_cast<long long>(warm_stats.spill_hits),
        static_cast<long long>(warm_stats.misses),
        static_cast<long long>(warm_stats.entries),
        static_cast<double>(warm_stats.resident_bytes) /
            static_cast<double>(1 << 20),
        cache_budget_mb,
        static_cast<long long>(warm_stats.evictions),
        static_cast<long long>(warm_stats.spill_entries),
        static_cast<double>(warm_stats.spill_bytes) /
            static_cast<double>(1 << 20),
        args.spill_mb,
        static_cast<long long>(warm_stats.spill_evictions),
        reference_equal ? "ok" : "FAIL", in_order ? "ok" : "FAIL");

    JsonWriter jw;
    jw.field("bench", "serving_throughput")
        .field("smoke", args.smoke)
        .field("arch", acfg.array.name())
        .field("simd_kernel", benchSimdKernel())
        .field("engine",
               args.ctx.engine == EngineKind::Scalar ? "scalar"
                                                     : "fast")
        .field("streams", streams)
        .field("requests", static_cast<int64_t>(trace.size()))
        .field("distinct_workloads",
               static_cast<int64_t>(distinct.size()))
        .field("gemms", trace_gemms)
        .field("reps", args.reps)
        .field("cold_seconds", cold_seconds)
        .field("warm_seconds", warm_seconds)
        .field("cold_gemms_per_sec", cold_rate, 1)
        .field("warm_gemms_per_sec", warm_rate, 1)
        .field("warm_over_cold", factor, 3)
        .field("throughput_gate", kThroughputGate, 1)
        .field("cache_hits", warm_stats.hits)
        .field("cache_misses", warm_stats.misses)
        .field("cache_hit_rate", hit_rate, 4)
        .field("cache_entries", warm_stats.entries)
        .field("cache_resident_bytes", warm_stats.resident_bytes)
        .field("cache_budget_mb", cache_budget_mb)
        .field("cache_evictions", warm_stats.evictions)
        .field("spill_budget_mb", args.spill_mb)
        .field("spill_hits", warm_stats.spill_hits)
        .field("spill_entries", warm_stats.spill_entries)
        .field("spill_bytes", warm_stats.spill_bytes)
        .field("spill_evictions", warm_stats.spill_evictions)
        .field("bitwise_equal_reference", reference_equal)
        .field("in_order_streams", in_order);
    jw.write(json_path);

    if (!reference_equal)
        s2ta_fatal("serving outputs diverged from standalone runs");
    if (!in_order)
        s2ta_fatal("a stream completed out of submission order");
    if (factor < kThroughputGate) {
        s2ta_fatal("warm multi-stream throughput %.2fx cold is "
                   "below the %.1fx gate", factor, kThroughputGate);
    }
    return 0;
}
