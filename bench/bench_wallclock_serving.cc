/**
 * @file
 * Wall-clock replay serving: the measured-time validation of the
 * virtual-clock QoS stack (ROADMAP's "measured-time serving" gap).
 *
 * The same seeded Poisson trace the virtual-time latency bench
 * replays is served twice per admission policy:
 *
 *  - **virtual**: through StreamScheduler's discrete-event loop
 *    (exact, deterministic virtual p50/p95/p99);
 *  - **measured**: open-loop against real steady_clock time via
 *    serve::replayWallclock — a feeder thread publishes each
 *    request at its scheduled wall arrival on a real ThreadPool of
 *    N lanes, and completions carry measured instants. Wall
 *    arrivals are the virtual arrivals stretched by a measured
 *    time-scale factor (mean wall service / mean virtual service),
 *    so the replay offers the same utilization to the wall
 *    deployment that the virtual trace offers the virtual one.
 *
 * Reported side by side per policy; three gates:
 *
 *  - every wall-clock run is bitwise identical to the virtual run
 *    of the same request (real thread contention reorders timing,
 *    never computation);
 *  - the tracer's overhead on a fully traced virtual drain is
 *    within 5% of the untraced drain (traced and untraced drains
 *    interleaved, at least 50 ms per side per rep; each side's best
 *    mean wall time per drain over N reps);
 *  - measured latencies are sane (start >= arrival, finish >=
 *    start — enforced inside the replay driver).
 *
 * Usage: bench_wallclock_serving [--smoke] [--json PATH]
 *          [--threads N] [--arch s2ta-w|s2ta-aw] [--cache-mb N]
 *          [--reps N]
 *          [--trace-out PATH]
 *        (--model / --no-plan-cache / --engine / --replicas /
 *         --placement are rejected: mixed-model trace by
 *         definition, the shared cache is the scenario, results are
 *         engine-independent, and one accelerator places nothing)
 *
 * Emits BENCH_wallclock_serving.json (schema checked in CI); with
 * --trace-out the Chrome trace of the whole run opens in
 * chrome://tracing / Perfetto and summarizes with
 * tools/trace_summarize.py.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "obs/trace.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"
#include "serve/telemetry.hh"
#include "serve/wallclock_replay.hh"

using namespace s2ta;
using namespace s2ta::bench;

namespace {

/** One trace entry: a zoo model at a batch size. */
struct TraceItem
{
    const char *model;
    int batch;
};

/** The deployed (model, batch) mix requests cycle through (the
 *  latency-serving bench's mix, for comparable traces). */
std::vector<TraceItem>
traceItems(bool smoke)
{
    if (smoke) {
        return {{"lenet5", 1}, {"mobilenetv1", 1}, {"lenet5", 2},
                {"mobilenetv1", 2}, {"lenet5", 4}};
    }
    return {{"resnet50", 1}, {"alexnet", 1}, {"mobilenetv1", 1},
            {"resnet50", 2}, {"alexnet", 2}, {"mobilenetv1", 2}};
}

/** One generated request of the open-loop trace, virtual seconds. */
struct TraceRequest
{
    const ModelWorkload *workload = nullptr;
    int stream = 0;
    double arrival_s = 0.0;
    double deadline_s = serve::kNoDeadline;
};

constexpr double kMsPerS = 1e3;

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(!args.model.empty(), "--model",
                    "the replay trace mixes several models by "
                    "definition");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "the shared budgeted plan cache is part of the "
                    "serving scenario");
    args.rejectFlag(args.engine_given, "--engine",
                    "results are engine-independent; the replay "
                    "always runs the plan-cached fast path");
    args.rejectFlag(args.replicas_given, "--replicas",
                    "this bench serves one accelerator; fleet "
                    "scaling lives in bench_fleet_serving");
    args.rejectFlag(args.placement_given, "--placement",
                    "single-accelerator serving has nothing to "
                    "place");
    const std::string json_path =
        args.json.empty() ? "BENCH_wallclock_serving.json"
                          : args.json;
    // Wall-clock noise exists here (unlike the virtual benches), so
    // the overhead gate keeps the best of N reps by default.
    const int reps = args.reps_given ? args.reps : 5;

    banner("Wall-clock replay serving",
           "Measured vs virtual QoS: the same seeded Poisson trace "
           "served open-loop on real steady_clock time");

    const std::vector<TraceItem> items = traceItems(args.smoke);
    const int streams = args.smoke ? 3 : 6;
    const int requests = args.smoke ? 15 : 36;
    const serve::VirtualClockConfig clock{/*lanes=*/2,
                                          /*clock_ghz=*/1.0};
    const double utilization = 0.7;
    const int cache_budget_mb =
        args.cache_mb_given ? args.cache_mb : 2048;

    // Two views of one deployment sharing one PlanCache: `acc`
    // simulates with the configured fan-out (virtual replays),
    // `acc_serial` simulates serially — the wall-clock lanes run
    // their simulations inline anyway (nested-parallelism rule), so
    // the serial instance is what warmup must measure for the time
    // scale to be honest. Results are bitwise identical across the
    // two by the repo's thread-count determinism contract (and the
    // gate below crosses them on purpose).
    AcceleratorConfig acfg;
    acfg.array = args.arch == "s2ta-w" ? ArrayConfig::s2taW()
                                       : ArrayConfig::s2taAw(4);
    acfg.sim_threads = args.ctx.threads;
    const Accelerator acc(acfg);
    AcceleratorConfig serial_cfg = acfg;
    serial_cfg.sim_threads = 1;
    const Accelerator acc_serial(serial_cfg);
    BenchCache shared(args, cache_budget_mb);

    NetworkRunOptions run_opt;
    run_opt.validate_operands = false;
    run_opt.plan_cache = shared.cachePtr();

    // Warmup: service estimates (virtual seconds + cycles) and the
    // measured serial wall service time per workload, off the warm
    // cache — the state a deployment reaches after its first
    // requests.
    serve::ModelRegistry registry;
    std::vector<const ModelWorkload *> deployed;
    std::map<const ModelWorkload *, double> est_service_s;
    std::map<const ModelWorkload *, int64_t> est_cycles;
    std::map<const ModelWorkload *, double> wall_service_s;
    for (const TraceItem &it : items) {
        const ModelWorkload &mw =
            registry.workload(it.model, it.batch);
        deployed.push_back(&mw);
        if (est_service_s.count(&mw))
            continue;
        const NetworkRun warm =
            acc.runNetwork(mw.layers, run_opt); // encode once
        est_service_s.emplace(
            &mw, clock.cyclesToSeconds(warm.total.cycles));
        est_cycles.emplace(&mw, warm.total.cycles);
        double best = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
            const double t0 = benchNow();
            const NetworkRun nr =
                acc_serial.runNetwork(mw.layers, run_opt);
            const double dt = benchNow() - t0;
            if (rep == 0 || dt < best)
                best = dt;
            if (!bitwiseEqualRuns(warm, nr))
                s2ta_fatal("serial warmup run of %s diverged",
                           mw.spec.name.c_str());
        }
        wall_service_s.emplace(&mw, best);
    }

    double virtual_mean_s = 0.0, wall_mean_s = 0.0;
    for (int i = 0; i < requests; ++i) {
        const ModelWorkload *mw =
            deployed[static_cast<size_t>(i) % deployed.size()];
        virtual_mean_s += est_service_s.at(mw);
        wall_mean_s += wall_service_s.at(mw);
    }
    virtual_mean_s /= requests;
    wall_mean_s /= requests;
    /** Virtual seconds -> wall seconds for the replayed trace. */
    const double time_scale = wall_mean_s / virtual_mean_s;
    const double capacity_rps = clock.lanes / virtual_mean_s;
    const double rate = utilization * capacity_rps;

    std::printf("trace: %d requests over %d streams, %zu deployed "
                "workloads | %d lanes, utilization %.1f\n"
                "mean service: %.3f ms virtual @ %.1f GHz, %.3f ms "
                "measured serial -> time scale %.1fx\n\n",
                requests, streams, deployed.size(), clock.lanes,
                utilization, virtual_mean_s * kMsPerS,
                clock.clock_ghz, wall_mean_s * kMsPerS, time_scale);

    // The trace (virtual seconds): seeded Poisson arrivals, streams
    // round-robin, deadline = arrival + slack x estimated service
    // (slack uniform in [2, 10), seeded).
    Rng trace_rng(0xA11C10);
    const std::vector<double> arrivals =
        serve::poissonArrivals(requests, rate, trace_rng);
    std::vector<TraceRequest> trace(static_cast<size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        TraceRequest &r = trace[static_cast<size_t>(i)];
        r.workload =
            deployed[static_cast<size_t>(i) % deployed.size()];
        r.stream = i % streams;
        r.arrival_s = arrivals[static_cast<size_t>(i)];
        const double slack = trace_rng.uniformReal(2.0, 10.0);
        r.deadline_s =
            r.arrival_s + slack * est_service_s.at(r.workload);
    }

    const std::vector<serve::PolicyKind> policies = {
        serve::PolicyKind::RoundRobin,
        serve::PolicyKind::EarliestDeadlineFirst,
        serve::PolicyKind::ShortestJobFirst,
    };

    /** Virtual replay: telemetry + runs indexed by trace order
     *  (submission order, so scheduler id == index + 1). */
    struct VirtualResult
    {
        serve::LatencyTelemetry telemetry;
        std::vector<NetworkRun> runs;
    };
    const auto replayVirtual = [&](serve::PolicyKind kind) {
        VirtualResult vr;
        vr.runs.resize(trace.size());
        serve::StreamScheduler::Options opts;
        opts.run = run_opt;
        opts.threads = args.ctx.threads;
        opts.clock = clock;
        opts.policy = &serve::policyFor(kind);
        opts.on_complete = [&](const serve::Completion &c) {
            vr.telemetry.record(c.sample());
        };
        serve::StreamScheduler sched(acc, opts);
        for (const TraceRequest &r : trace) {
            sched.submit(r.stream, *r.workload, r.arrival_s,
                         r.deadline_s);
        }
        auto by_stream = sched.drain();
        for (auto &stream : by_stream) {
            for (auto &c : stream)
                vr.runs[static_cast<size_t>(c.id - 1)] =
                    std::move(c.run);
        }
        return vr;
    };

    // Tracer overhead: the gated virtual drain, fully traced vs
    // untraced. One drain takes a few milliseconds at most, too
    // short to time alone, so each rep runs traced and untraced
    // drains in alternation, the side that goes first switching
    // every pair, until each side has run for at least
    // kOverheadRepS, and keeps each side's mean time per drain; the
    // gate compares each side's best mean over the reps.
    // Alternating drain by drain exposes both sides to the same
    // drift of the host. Run before the wall-clock replays so the
    // ring buffers exercised here are cleared from the exported
    // trace's hot window (snapshot keeps them; the trace stays
    // valid either way).
    constexpr double kOverheadRepS = 0.05;
    obs::Tracer &tracer = obs::Tracer::global();
    const bool trace_requested = !args.trace_out.empty();
    const auto timedDrain = [&](bool traced) {
        tracer.setEnabled(traced);
        const double t0 = benchNow();
        replayVirtual(serve::PolicyKind::RoundRobin);
        return benchNow() - t0;
    };
    double untraced_best = 0.0, traced_best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        double side_s[2] = {0.0, 0.0}; // [untraced, traced]
        int64_t drains = 0;
        while (side_s[0] < kOverheadRepS || side_s[1] < kOverheadRepS) {
            const bool traced_first = drains % 2 == 1;
            side_s[traced_first] += timedDrain(traced_first);
            side_s[!traced_first] += timedDrain(!traced_first);
            ++drains;
        }
        const double untraced = side_s[0] / static_cast<double>(drains);
        const double traced = side_s[1] / static_cast<double>(drains);
        if (rep == 0 || untraced < untraced_best)
            untraced_best = untraced;
        if (rep == 0 || traced < traced_best)
            traced_best = traced;
    }
    tracer.setEnabled(trace_requested);
    const double overhead_frac =
        traced_best / untraced_best - 1.0;
    const bool overhead_ok = overhead_frac <= 0.05;
    std::printf("tracer overhead on the virtual drain: %.3f ms "
                "traced vs %.3f ms untraced (best per-drain mean of "
                "%d reps) -> "
                "%+.2f%% (%s)\n\n",
                traced_best * kMsPerS, untraced_best * kMsPerS,
                reps, 100.0 * overhead_frac,
                overhead_ok ? "ok" : "FAIL");

    JsonWriter jw;
    jw.field("bench", "wallclock_serving")
        .field("smoke", args.smoke)
        .field("arch", acfg.array.name())
        .field("simd_kernel", benchSimdKernel())
        .field("streams", streams)
        .field("requests", requests)
        .field("lanes", clock.lanes)
        .field("clock_ghz", clock.clock_ghz, 1)
        .field("utilization", utilization, 2)
        .field("rate_rps", rate, 3)
        .field("virtual_mean_service_ms", virtual_mean_s * kMsPerS,
               4)
        .field("wall_mean_service_ms", wall_mean_s * kMsPerS, 4)
        .field("time_scale", time_scale, 3)
        .field("cache_budget_mb", cache_budget_mb);

    bool bitwise_equal_wallclock = true;
    for (const serve::PolicyKind kind : policies) {
        const VirtualResult vr = replayVirtual(kind);

        // The identical trace in wall seconds: arrivals and
        // deadlines stretched by the measured time scale, estimates
        // in the same cycle units SJF ordered by virtually.
        std::vector<serve::WallclockRequest> wall_trace(
            trace.size());
        for (size_t i = 0; i < trace.size(); ++i) {
            wall_trace[i].model = trace[i].workload;
            wall_trace[i].stream = trace[i].stream;
            wall_trace[i].arrival_s =
                trace[i].arrival_s * time_scale;
            wall_trace[i].deadline_s =
                trace[i].deadline_s == serve::kNoDeadline
                    ? serve::kNoDeadline
                    : trace[i].deadline_s * time_scale;
            wall_trace[i].est_cycles =
                est_cycles.at(trace[i].workload);
        }
        serve::WallclockReplayOptions wopts;
        wopts.run = run_opt;
        wopts.lanes = clock.lanes;
        wopts.policy = &serve::policyFor(kind);
        const std::vector<serve::WallclockCompletion> measured =
            replayWallclock(acc_serial, wall_trace, wopts);

        serve::LatencyTelemetry mtel;
        for (const serve::WallclockCompletion &c : measured) {
            mtel.record(c.sample());
            if (!bitwiseEqualRuns(
                    vr.runs[c.index],
                    measured[c.index].run)) {
                bitwise_equal_wallclock = false;
                std::printf("  %s RUN MISMATCH wall vs virtual on "
                            "request %zu\n",
                            serve::policyName(kind), c.index);
            }
        }

        const serve::LatencyQuantiles vq = vr.telemetry.quantiles();
        const serve::LatencyQuantiles mq = mtel.quantiles();
        const std::string p = serve::policyName(kind);
        std::printf("%-3s  virtual  p50 %8.3f ms  p95 %8.3f ms  "
                    "p99 %8.3f ms  miss %2lld/%2lld\n"
                    "     measured p50 %8.3f ms  p95 %8.3f ms  "
                    "p99 %8.3f ms  miss %2lld/%2lld\n",
                    p.c_str(), vq.p50_s * kMsPerS,
                    vq.p95_s * kMsPerS, vq.p99_s * kMsPerS,
                    static_cast<long long>(
                        vr.telemetry.deadlineMisses()),
                    static_cast<long long>(
                        vr.telemetry.deadlineRequests()),
                    mq.p50_s * kMsPerS, mq.p95_s * kMsPerS,
                    mq.p99_s * kMsPerS,
                    static_cast<long long>(mtel.deadlineMisses()),
                    static_cast<long long>(
                        mtel.deadlineRequests()));

        jw.field(p + "_virtual_p50_ms", vq.p50_s * kMsPerS, 4)
            .field(p + "_virtual_p95_ms", vq.p95_s * kMsPerS, 4)
            .field(p + "_virtual_p99_ms", vq.p99_s * kMsPerS, 4)
            .field(p + "_measured_p50_ms", mq.p50_s * kMsPerS, 4)
            .field(p + "_measured_p95_ms", mq.p95_s * kMsPerS, 4)
            .field(p + "_measured_p99_ms", mq.p99_s * kMsPerS, 4)
            .field(p + "_virtual_miss_rate",
                   vr.telemetry.missRate(), 4)
            .field(p + "_measured_miss_rate", mtel.missRate(), 4);
    }
    std::printf("\n");

    const obs::Tracer::Stats ts = tracer.stats();
    std::printf("gates: bitwise wall==virtual %s | tracer overhead "
                "%+.2f%% (%s) | %lld trace events recorded, %lld "
                "dropped\n",
                bitwise_equal_wallclock ? "ok" : "FAIL",
                100.0 * overhead_frac, overhead_ok ? "ok" : "FAIL",
                static_cast<long long>(ts.recorded),
                static_cast<long long>(ts.dropped));

    jw.field("bitwise_equal_wallclock", bitwise_equal_wallclock)
        .field("tracer_overhead_frac", overhead_frac, 4)
        .field("tracer_overhead_ok", overhead_ok)
        .field("trace_events", ts.recorded)
        .field("trace_events_dropped", ts.dropped);
    jw.write(json_path);

    if (!bitwise_equal_wallclock) {
        s2ta_fatal("wall-clock replay changed simulation results "
                   "(thread contention must reorder timing, never "
                   "computation)");
    }
    if (!overhead_ok) {
        s2ta_warn("tracer overhead %.2f%% exceeds the 5%% budget "
                  "(CI gates this on the artifact field; rerun on "
                  "an idle machine)",
                  100.0 * overhead_frac);
    }
    return 0;
}
