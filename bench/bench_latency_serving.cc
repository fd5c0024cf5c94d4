/**
 * @file
 * Latency-aware serving QoS: a mixed multi-model request trace with
 * seeded open-loop Poisson arrivals and per-request deadlines,
 * replayed in *virtual time* (request service time = simulated
 * NetworkRun cycles at the accelerator clock) over N virtual lanes
 * under each admission policy (round-robin, earliest-deadline-
 * first, shortest-job-first), at several arrival rates.
 *
 * For every (rate, policy) the streaming telemetry reports exact
 * p50/p95/p99 latency, mean queueing delay, and the deadline-miss
 * rate; per-stream queueing breakdowns and the latency histogram
 * are printed for the gated (highest-load) rate. Three gates:
 *
 *  - EDF's deadline-miss rate <= round-robin's on the gated trace
 *    (the point of deadline-aware admission);
 *  - every policy produces bitwise-identical NetworkRuns (policies
 *    reorder timing, never computation);
 *  - virtual timings are identical when the whole bench reruns with
 *    serial simulation (threads cannot leak into virtual time).
 *
 * Usage: bench_latency_serving [--smoke] [--json PATH]
 *          [--threads N] [--arch s2ta-w|s2ta-aw] [--cache-mb N]
 *        (--model / --no-plan-cache / --engine / --reps are
 *         rejected: the trace is mixed-model by definition, the
 *         shared budgeted cache is part of the scenario, results
 *         are engine-independent, and virtual time needs no
 *         best-of-N)
 *
 * Emits BENCH_latency_serving.json (schema checked in CI).
 */

#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"
#include "serve/telemetry.hh"

using namespace s2ta;
using namespace s2ta::bench;

namespace {

/** One trace entry: a zoo model at a batch size. */
struct TraceItem
{
    const char *model;
    int batch;
};

/** The deployed (model, batch) mix requests cycle through. */
std::vector<TraceItem>
traceItems(bool smoke)
{
    if (smoke) {
        return {{"lenet5", 1}, {"mobilenetv1", 1}, {"lenet5", 2},
                {"mobilenetv1", 2}, {"lenet5", 4}};
    }
    // Batches capped at 2: the nine-workload batch-4 mix would
    // outgrow any sane cache budget and LRU-thrash the (wall-clock)
    // simulation without changing the virtual-time results.
    return {{"resnet50", 1}, {"alexnet", 1}, {"mobilenetv1", 1},
            {"resnet50", 2}, {"alexnet", 2}, {"mobilenetv1", 2}};
}

/** One generated request of the open-loop trace. */
struct TraceRequest
{
    const ModelWorkload *workload = nullptr;
    int stream = 0;
    double arrival_s = 0.0;
    double deadline_s = serve::kNoDeadline;
};

/** Outcome of one (rate, policy) replay. */
struct PolicyResult
{
    serve::LatencyTelemetry telemetry;
    /** Per request id: the run, for cross-policy bitwise checks. */
    std::map<uint64_t, NetworkRun> runs;
    /** Per request id: (arrival, start, finish), for determinism
     *  checks. */
    std::map<uint64_t, std::array<double, 3>> timings;
};

constexpr double kMsPerS = 1e3;

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(!args.model.empty(), "--model",
                    "the latency trace mixes several models by "
                    "definition");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "the shared budgeted plan cache is part of the "
                    "serving scenario");
    args.rejectFlag(args.engine_given, "--engine",
                    "virtual-time latencies are engine-independent "
                    "(cycle totals are bitwise equal across "
                    "engines); the simulation always runs the "
                    "plan-cached fast path");
    args.rejectFlag(args.reps_given, "--reps",
                    "virtual time is deterministic; there is no "
                    "wall-clock noise to best-of");
    args.rejectFlag(args.replicas_given, "--replicas",
                    "this bench serves one accelerator; fleet "
                    "scaling lives in bench_fleet_serving");
    args.rejectFlag(args.placement_given, "--placement",
                    "single-accelerator serving has nothing to "
                    "place; fleet routing lives in "
                    "bench_fleet_serving");
    const std::string json_path = args.json.empty()
                                      ? "BENCH_latency_serving.json"
                                      : args.json;

    banner("Latency-aware serving",
           "Virtual-clock QoS: Poisson arrivals + deadlines over "
           "virtual lanes under rr/edf/sjf admission");

    const std::vector<TraceItem> items = traceItems(args.smoke);
    const int streams = args.smoke ? 3 : 6;
    const int requests = args.smoke ? 15 : 36;
    const serve::VirtualClockConfig clock{/*lanes=*/2,
                                          /*clock_ghz=*/1.0};
    const int cache_budget_mb =
        args.cache_mb_given ? args.cache_mb : 2048;

    // One accelerator + one budgeted PlanCache for the whole
    // deployment; simulation threads only change wall clock, never
    // virtual time (gated below).
    AcceleratorConfig acfg;
    acfg.array = args.arch == "s2ta-w" ? ArrayConfig::s2taW()
                                       : ArrayConfig::s2taAw(4);
    acfg.sim_threads = args.ctx.threads;
    const Accelerator acc(acfg);
    BenchCache shared(args, cache_budget_mb);

    NetworkRunOptions run_opt;
    run_opt.validate_operands = false;
    run_opt.plan_cache = shared.cachePtr();

    // Servable workloads (generation cost is not serving cost) and
    // per-workload service estimates from one unmeasured pass —
    // which also warms the shared cache, as a deployment's first
    // requests would.
    serve::ModelRegistry registry;
    std::vector<const ModelWorkload *> deployed;
    std::map<const ModelWorkload *, double> est_service_s;
    for (const TraceItem &it : items) {
        const ModelWorkload &mw =
            registry.workload(it.model, it.batch);
        deployed.push_back(&mw);
        if (!est_service_s.count(&mw)) {
            const NetworkRun nr = acc.runNetwork(mw.layers, run_opt);
            est_service_s.emplace(
                &mw, clock.cyclesToSeconds(nr.total.cycles));
        }
    }

    // Offered load: rates are chosen relative to deployment
    // capacity (lanes / mean service time over the request mix), so
    // the same utilization points are exercised no matter the model
    // mix or architecture.
    double mean_service_s = 0.0;
    for (int i = 0; i < requests; ++i) {
        mean_service_s += est_service_s.at(
            deployed[static_cast<size_t>(i) % deployed.size()]);
    }
    mean_service_s /= requests;
    const double capacity_rps = clock.lanes / mean_service_s;
    const std::vector<double> utilizations =
        args.smoke ? std::vector<double>{0.7, 1.4}
                   : std::vector<double>{0.6, 1.0, 1.4};
    const size_t gated = utilizations.size() - 1;

    std::printf("trace: %d requests over %d streams, %zu deployed "
                "workloads | %d virtual lanes @ %.1f GHz, mean "
                "service %.3f ms, capacity %.1f req/s\n\n",
                requests, streams, deployed.size(), clock.lanes,
                clock.clock_ghz, mean_service_s * kMsPerS,
                capacity_rps);

    const std::vector<serve::PolicyKind> policies = {
        serve::PolicyKind::RoundRobin,
        serve::PolicyKind::EarliestDeadlineFirst,
        serve::PolicyKind::ShortestJobFirst,
    };

    // Replay one trace under one policy; simulation threads and the
    // accelerator are parameters so the determinism gate can rerun
    // the gated trace fully serial.
    const auto replay = [&](const std::vector<TraceRequest> &trace,
                            serve::PolicyKind kind,
                            const Accelerator &on, int threads) {
        PolicyResult pr;
        serve::StreamScheduler::Options opts;
        opts.run = run_opt;
        opts.threads = threads;
        opts.clock = clock;
        opts.policy = &serve::policyFor(kind);
        opts.on_complete = [&](const serve::Completion &c) {
            pr.telemetry.record(c.sample());
            pr.timings.emplace(
                c.id, std::array<double, 3>{c.arrival_s, c.start_s,
                                            c.finish_s});
        };
        serve::StreamScheduler sched(on, opts);
        for (const TraceRequest &r : trace) {
            sched.submit(r.stream, *r.workload, r.arrival_s,
                         r.deadline_s);
        }
        auto by_stream = sched.drain();
        for (auto &stream : by_stream)
            for (auto &c : stream)
                pr.runs.emplace(c.id, std::move(c.run));
        return pr;
    };

    JsonWriter jw;
    jw.field("bench", "latency_serving")
        .field("smoke", args.smoke)
        .field("arch", acfg.array.name())
        .field("simd_kernel", benchSimdKernel())
        .field("streams", streams)
        .field("requests", requests)
        .field("lanes", clock.lanes)
        .field("clock_ghz", clock.clock_ghz, 1)
        .field("rates_evaluated",
               static_cast<int64_t>(utilizations.size()))
        .field("mean_service_ms", mean_service_s * kMsPerS, 3)
        .field("cache_budget_mb", cache_budget_mb);

    bool bitwise_equal_policies = true;
    bool deterministic_timing = true;
    bool edf_le_rr = true;
    double gated_rr_miss = 0.0, gated_edf_miss = 0.0;

    for (size_t ri = 0; ri < utilizations.size(); ++ri) {
        const double util = utilizations[ri];
        const double rate = util * capacity_rps;

        // The trace is identical for every policy: seeded Poisson
        // arrivals, streams assigned round-robin, deadline =
        // arrival + slack x the workload's estimated service time
        // (slack uniform in [2, 10), seeded).
        Rng trace_rng(0xA221E5 + static_cast<uint64_t>(ri));
        const std::vector<double> arrivals =
            serve::poissonArrivals(requests, rate, trace_rng);
        std::vector<TraceRequest> trace(
            static_cast<size_t>(requests));
        for (int i = 0; i < requests; ++i) {
            TraceRequest &r = trace[static_cast<size_t>(i)];
            r.workload = deployed[static_cast<size_t>(i) %
                                  deployed.size()];
            r.stream = i % streams;
            r.arrival_s = arrivals[static_cast<size_t>(i)];
            const double slack = trace_rng.uniformReal(2.0, 10.0);
            r.deadline_s = r.arrival_s +
                           slack * est_service_s.at(r.workload);
        }

        std::printf("rate %.1f req/s (utilization %.1f)%s\n", rate,
                    util, ri == gated ? "  [gated]" : "");
        std::map<serve::PolicyKind, PolicyResult> results;
        for (const serve::PolicyKind kind : policies) {
            PolicyResult pr = replay(trace, kind, acc,
                                     args.ctx.threads);
            const serve::LatencyQuantiles q =
                pr.telemetry.quantiles();
            std::printf("  %-3s  p50 %8.3f ms  p95 %8.3f ms  p99 "
                        "%8.3f ms  miss %2lld/%2lld (%.0f%%)\n",
                        serve::policyName(kind), q.p50_s * kMsPerS,
                        q.p95_s * kMsPerS, q.p99_s * kMsPerS,
                        static_cast<long long>(
                            pr.telemetry.deadlineMisses()),
                        static_cast<long long>(
                            pr.telemetry.deadlineRequests()),
                        100.0 * pr.telemetry.missRate());
            results.emplace(kind, std::move(pr));
        }

        // Policies reorder timing, never computation.
        const PolicyResult &rr =
            results.at(serve::PolicyKind::RoundRobin);
        for (const serve::PolicyKind kind : policies) {
            const PolicyResult &pr = results.at(kind);
            for (const auto &[id, run] : rr.runs) {
                if (!bitwiseEqualRuns(run, pr.runs.at(id))) {
                    bitwise_equal_policies = false;
                    std::printf("  %s RUN MISMATCH on request "
                                "%llu\n", serve::policyName(kind),
                                static_cast<unsigned long long>(
                                    id));
                }
            }
        }

        if (ri == gated) {
            const PolicyResult &edf = results.at(
                serve::PolicyKind::EarliestDeadlineFirst);
            gated_rr_miss = rr.telemetry.missRate();
            gated_edf_miss = edf.telemetry.missRate();
            edf_le_rr = gated_edf_miss <= gated_rr_miss;
            jw.field("gated_rate_rps", rate, 3)
                .field("gated_utilization", util, 2);
            for (const serve::PolicyKind kind : policies) {
                const PolicyResult &pr = results.at(kind);
                const serve::LatencyQuantiles q =
                    pr.telemetry.quantiles();
                const std::string p = serve::policyName(kind);
                double queue_sum = 0.0;
                for (const auto &[stream, sd] :
                     pr.telemetry.byStream())
                    queue_sum += sd.queue_sum_s;
                jw.field(p + "_p50_ms", q.p50_s * kMsPerS, 4)
                    .field(p + "_p95_ms", q.p95_s * kMsPerS, 4)
                    .field(p + "_p99_ms", q.p99_s * kMsPerS, 4)
                    .field(p + "_mean_queue_ms",
                           queue_sum / pr.telemetry.count() *
                               kMsPerS, 4)
                    .field(p + "_deadline_misses",
                           pr.telemetry.deadlineMisses())
                    .field(p + "_deadline_miss_rate",
                           pr.telemetry.missRate(), 4);
            }

            // Per-stream queueing breakdown + latency histogram
            // under EDF: the streaming-telemetry showcase.
            std::printf("\n  per-stream queueing under edf:\n");
            for (const auto &[stream, sd] :
                 edf.telemetry.byStream()) {
                std::printf("    stream %d: %lld reqs, mean queue "
                            "%8.3f ms, max %8.3f ms, %lld "
                            "missed\n", stream,
                            static_cast<long long>(sd.requests),
                            sd.meanQueue() * kMsPerS,
                            sd.queue_max_s * kMsPerS,
                            static_cast<long long>(
                                sd.deadline_misses));
            }
            std::printf("  edf latency histogram:\n");
            for (const serve::HistogramBin &bin :
                 edf.telemetry.histogram()) {
                std::printf("    [%9.3f, %9.3f) ms: %lld\n",
                            bin.lo_s * kMsPerS, bin.hi_s * kMsPerS,
                            static_cast<long long>(bin.count));
            }

            // Determinism: the whole gated trace rerun with serial
            // simulation (fresh serial accelerator, one scheduler
            // lane) must reproduce every virtual timing bit for
            // bit under every policy.
            AcceleratorConfig serial_cfg = acfg;
            serial_cfg.sim_threads = 1;
            const Accelerator serial_acc(serial_cfg);
            for (const serve::PolicyKind kind : policies) {
                const PolicyResult serial =
                    replay(trace, kind, serial_acc, 1);
                const PolicyResult &pr = results.at(kind);
                if (serial.timings != pr.timings) {
                    deterministic_timing = false;
                    std::printf("  %s TIMING MISMATCH under serial "
                                "rerun\n", serve::policyName(kind));
                }
            }
        }
        std::printf("\n");
    }

    const PlanCache::Stats cs = shared.cache.stats();
    const int64_t lookups = cs.hits + cs.misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(cs.hits) /
                           static_cast<double>(lookups);
    std::printf("gates: edf miss %.0f%% vs rr %.0f%% (%s) | "
                "bitwise-equal policies %s | deterministic timing "
                "%s | cache hit rate %.1f%%\n",
                100.0 * gated_edf_miss, 100.0 * gated_rr_miss,
                edf_le_rr ? "ok" : "FAIL",
                bitwise_equal_policies ? "ok" : "FAIL",
                deterministic_timing ? "ok" : "FAIL",
                100.0 * hit_rate);

    jw.field("cache_hits", cs.hits)
        .field("cache_misses", cs.misses)
        .field("cache_evictions", cs.evictions)
        .field("cache_hit_rate", hit_rate, 4)
        .field("edf_miss_le_rr", edf_le_rr)
        .field("bitwise_equal_policies", bitwise_equal_policies)
        .field("deterministic_timing", deterministic_timing);
    jw.write(json_path);

    if (!bitwise_equal_policies)
        s2ta_fatal("policies changed simulation results");
    if (!deterministic_timing)
        s2ta_fatal("virtual timings depend on thread count");
    if (!edf_le_rr) {
        s2ta_fatal("EDF misses %.1f%% of deadlines vs round-robin "
                   "%.1f%% on the gated trace",
                   100.0 * gated_edf_miss, 100.0 * gated_rr_miss);
    }
    return 0;
}
