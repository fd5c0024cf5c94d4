/**
 * @file
 * Overload-hardened serving: the same mixed multi-model open-loop
 * trace as bench_latency_serving, replayed at offered loads up to
 * 3x deployment capacity with seeded faults injected at every site
 * the serving path owns — transient layer faults and stalls, rolled
 * by the serving loop at dispatch — under queue caps,
 * infeasible-deadline shedding, and a bounded retry budget.
 *
 * Every utilization point runs a fault-free baseline first, then
 * the faulted + overloaded replay with a fresh seeded injector and
 * a fresh PlanCache. Four gates:
 *
 *  - bounded queues: the virtual ready queue's high-water mark
 *    never exceeds the global cap;
 *  - degradation never corrupts: every Ok completion's NetworkRun
 *    is bitwise identical to the fault-free baseline's (faults and
 *    overload delay or drop results, never change them);
 *  - exact accounting: the scheduler's ledger reconciles with
 *    itself (FleetStats::reconciles), with the injector's per-site
 *    totals (layer faults, stalls), and with a tally of the
 *    completion stream;
 *  - determinism: the gated (2x capacity) point rerun fully serial
 *    reproduces every outcome, shed decision, and virtual timing
 *    bit for bit.
 *
 * The artifact records the shed-rate cliff curve (shed rate per
 * utilization point) plus the gated point's full counter set.
 *
 * Usage: bench_overload_serving [--smoke] [--json PATH]
 *          [--threads N] [--arch s2ta-w|s2ta-aw] [--cache-mb N]
 *        (--model / --no-plan-cache / --engine / --reps are
 *         rejected: the trace is mixed-model by definition, the
 *         plan cache is part of the scenario, results are
 *         engine-independent, and virtual time needs no best-of-N)
 *
 * Emits BENCH_overload_serving.json (schema checked in CI).
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "base/fault_injection.hh"
#include "bench_util.hh"
#include "serve/model_registry.hh"
#include "serve/stream_scheduler.hh"

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
                {"mobilenetv1", 2}, {"lenet5", 4},
                {"mobilenetv1", 4}};
    }
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

/** Everything observable about one completion except its run:
 *  (outcome, shed reason, attempts, fault layer, fault count,
 *  stall cycles, start, finish, retry delay, lane). Maps of these
 *  compare the faulted replay across thread counts bit for bit. */
using Observed = std::tuple<int, int, int, int, int64_t, int64_t,
                            double, double, double, int>;

Observed
observe(const serve::Completion &c)
{
    return Observed{static_cast<int>(c.outcome),
                    static_cast<int>(c.shed_reason),
                    c.attempts,
                    c.fault_layer,
                    c.fault_count,
                    c.stall_cycles,
                    c.start_s,
                    c.finish_s,
                    c.retry_delay_s,
                    c.lane};
}

/** The ledger's request-level counts, re-derived from the
 *  completion stream (one instance per request: one replica, no
 *  hedges, no failovers). */
struct StreamTally
{
    int64_t requests = 0;
    int64_t completed = 0;
    int64_t shed = 0;
    int64_t failed = 0;
    int64_t retries = 0;
    int64_t layer_faults = 0;
    int64_t stall_cycles = 0;

    void
    add(const serve::Completion &c)
    {
        requests += 1;
        completed += c.ok() ? 1 : 0;
        shed += c.shed() ? 1 : 0;
        failed += c.failed() ? 1 : 0;
        retries += c.attempts - 1;
        layer_faults += c.fault_count;
        stall_cycles += c.stall_cycles;
    }

    bool
    matches(const serve::FleetStats &st) const
    {
        return requests == st.requests &&
               completed == st.completed && shed == st.shedTotal() &&
               failed == st.failed && retries == st.retries &&
               layer_faults == st.layer_faults &&
               stall_cycles == st.stall_cycles;
    }
};

/** Outcome of one trace replay. */
struct ReplayResult
{
    std::map<uint64_t, Observed> observed;
    /** Per Ok request id: the run, for bitwise baseline checks. */
    std::map<uint64_t, NetworkRun> ok_runs;
    serve::FleetStats stats;
    StreamTally tally;
};

constexpr double kMsPerS = 1e3;

/** The injection plan: every serving-path site, seeded. */
constexpr uint64_t kFaultSeed = 0x0F417;

void
armInjector(FaultInjector &fi)
{
    fi.setRate(FaultSite::LayerCompute, 0.01);
    fi.setRate(FaultSite::LayerStall, 0.02);
    fi.setStallCycles(1000, 50000);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(!args.model.empty(), "--model",
                    "the overload trace mixes several models by "
                    "definition");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "the plan cache is part of the scenario "
                    "(--cache-mb 0 disables the cache if that is "
                    "the experiment)");
    args.rejectFlag(args.engine_given, "--engine",
                    "fault and overload behavior is "
                    "engine-independent; the simulation always "
                    "runs the plan-cached fast path");
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
    const std::string json_path =
        args.json.empty() ? "BENCH_overload_serving.json" : args.json;

    banner("Overload-hardened serving",
           "Seeded faults at every serving-path site under queue "
           "caps, deadline shedding, and bounded retries");

    const std::vector<TraceItem> items = traceItems(args.smoke);
    const int streams = args.smoke ? 3 : 6;
    const int requests = args.smoke ? 24 : 48;
    const serve::VirtualClockConfig clock{/*lanes=*/2,
                                          /*clock_ghz=*/1.0};
    const int cache_budget_mb =
        args.cache_mb_given ? args.cache_mb : 2048;
    const bool cache_disabled =
        args.cache_mb_given && args.cache_mb == 0;
    const int64_t cache_budget_bytes =
        static_cast<int64_t>(cache_budget_mb) << 20;

    AcceleratorConfig acfg;
    acfg.array = args.arch == "s2ta-w" ? ArrayConfig::s2taW()
                                       : ArrayConfig::s2taAw(4);
    acfg.sim_threads = args.ctx.threads;
    const Accelerator acc(acfg);
    BenchCache shared(args, cache_budget_mb);

    NetworkRunOptions run_opt;
    run_opt.validate_operands = false;
    run_opt.plan_cache = shared.cachePtr();

    // Servable workloads + per-workload service estimates from one
    // unmeasured fault-free pass.
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

    double mean_service_s = 0.0;
    for (int i = 0; i < requests; ++i) {
        mean_service_s += est_service_s.at(
            deployed[static_cast<size_t>(i) % deployed.size()]);
    }
    mean_service_s /= requests;
    const double capacity_rps = clock.lanes / mean_service_s;
    const std::vector<double> utilizations =
        args.smoke ? std::vector<double>{0.8, 2.0, 3.0}
                   : std::vector<double>{0.5, 1.0, 1.5, 2.0, 3.0};
    size_t gated = 0;
    for (size_t i = 0; i < utilizations.size(); ++i) {
        if (utilizations[i] == 2.0)
            gated = i;
    }

    serve::OverloadConfig overload;
    overload.global_queue_cap = 6;
    overload.stream_queue_cap = 3;
    overload.shed_infeasible = true;
    overload.max_retries = 4;
    overload.retry_backoff_s = 0.25 * mean_service_s;

    std::printf("trace: %d requests over %d streams, %zu deployed "
                "workloads | %d virtual lanes @ %.1f GHz, mean "
                "service %.3f ms, capacity %.1f req/s\n"
                "overload: queue caps %lld global / %lld per "
                "stream, infeasible-deadline shedding, %d retries, "
                "backoff %.3f ms | fault seed 0x%llx\n\n",
                requests, streams, deployed.size(), clock.lanes,
                clock.clock_ghz, mean_service_s * kMsPerS,
                capacity_rps,
                static_cast<long long>(overload.global_queue_cap),
                static_cast<long long>(overload.stream_queue_cap),
                overload.max_retries,
                overload.retry_backoff_s * kMsPerS,
                static_cast<unsigned long long>(kFaultSeed));

    // Replay the trace under EDF admission. A null injector means
    // the fault-free baseline: no overload controls, everything
    // admitted, every request completes Ok. Each replay builds its
    // own PlanCache so fault-driven cache degradation cannot leak
    // across points.
    const auto replay = [&](const std::vector<TraceRequest> &trace,
                            const Accelerator &on, int threads,
                            FaultInjector *fi) {
        ReplayResult res;
        std::unique_ptr<PlanCache> cache;
        if (!cache_disabled) {
            cache = std::make_unique<PlanCache>(0, cache_budget_bytes);
        }
        serve::StreamScheduler::Options o;
        o.run = run_opt;
        o.run.plan_cache = cache.get();
        o.fault = fi;
        o.threads = threads;
        o.clock = clock;
        o.policy = &serve::policyFor(
            serve::PolicyKind::EarliestDeadlineFirst);
        if (fi)
            o.overload = overload;
        o.on_complete = [&](const serve::Completion &c) {
            res.observed.emplace(c.id, observe(c));
            res.tally.add(c);
        };
        serve::StreamScheduler sched(on, o);
        for (const TraceRequest &r : trace) {
            sched.submit(r.stream, *r.workload, r.arrival_s,
                         r.deadline_s);
        }
        auto by_stream = sched.drain();
        for (auto &stream : by_stream) {
            for (auto &c : stream) {
                if (c.ok())
                    res.ok_runs.emplace(c.id, std::move(c.run));
            }
        }
        res.stats = sched.stats();
        return res;
    };

    JsonWriter jw;
    jw.field("bench", "overload_serving")
        .field("smoke", args.smoke)
        .field("arch", acfg.array.name())
        .field("simd_kernel", benchSimdKernel())
        .field("streams", streams)
        .field("requests", requests)
        .field("lanes", clock.lanes)
        .field("clock_ghz", clock.clock_ghz, 1)
        .field("global_queue_cap", overload.global_queue_cap)
        .field("stream_queue_cap", overload.stream_queue_cap)
        .field("max_retries",
               static_cast<int64_t>(overload.max_retries))
        .field("retry_backoff_ms",
               overload.retry_backoff_s * kMsPerS, 4)
        .field("cache_budget_mb", cache_budget_mb)
        .field("rates_evaluated",
               static_cast<int64_t>(utilizations.size()));

    bool queue_bounded = true;
    bool bitwise_ok_vs_baseline = true;
    bool counters_reconcile = true;
    bool telemetry_consistent = true;
    bool deterministic_serial = true;
    std::vector<double> shed_rates;

    std::printf("%-6s %-9s %-10s %-5s %-22s %-7s %-8s %s\n", "util",
                "rate", "completed", "shed", "(queue/stream/infeas)",
                "failed", "retries", "shed-rate");

    for (size_t ri = 0; ri < utilizations.size(); ++ri) {
        const double util = utilizations[ri];
        const double rate = util * capacity_rps;

        // Seeded trace: Poisson arrivals, streams round-robin,
        // deadline = arrival + slack x estimated service (slack
        // uniform in [2, 10)). Identical for baseline and faulted
        // replays.
        Rng trace_rng(0x0F417A + static_cast<uint64_t>(ri));
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

        // Fault-free baseline: the bitwise reference every Ok
        // completion of the faulted replay must reproduce.
        const ReplayResult baseline =
            replay(trace, acc, args.ctx.threads, nullptr);
        if (baseline.stats.completed != requests) {
            s2ta_fatal("baseline completed %lld of %d requests",
                       static_cast<long long>(
                           baseline.stats.completed),
                       requests);
        }

        FaultInjector fi(kFaultSeed);
        armInjector(fi);
        const ReplayResult faulted =
            replay(trace, acc, args.ctx.threads, &fi);
        const serve::FleetStats &st = faulted.stats;

        // Gate: the virtual ready queue stayed under the cap.
        if (st.max_queue_depth > overload.global_queue_cap)
            queue_bounded = false;

        // Gate: faults and overload never corrupt a served result.
        for (const auto &[id, run] : faulted.ok_runs) {
            if (!bitwiseEqualRuns(run, baseline.ok_runs.at(id))) {
                bitwise_ok_vs_baseline = false;
                std::printf("  RUN MISMATCH vs baseline on request "
                            "%llu\n",
                            static_cast<unsigned long long>(id));
            }
        }

        // Gate: the ledger reconciles exactly with itself and with
        // the injection plan.
        const bool ok =
            st.layer_faults == fi.injected(FaultSite::LayerCompute) &&
            st.stall_events == fi.injected(FaultSite::LayerStall) &&
            st.reconciles() && st.requests == requests;
        if (!ok) {
            counters_reconcile = false;
            std::printf("  COUNTER MISMATCH at utilization %.1f\n",
                        util);
        }

        // Gate: the completion stream tells the same story as the
        // scheduler's own accounting.
        if (!faulted.tally.matches(st))
            telemetry_consistent = false;

        const double shed_rate = static_cast<double>(st.shedTotal()) /
                                 static_cast<double>(st.requests);
        shed_rates.push_back(shed_rate);
        std::printf("%-6.1f %7.1f/s %-10lld %-5lld (%lld/%lld/"
                    "%lld)%*s %-7lld %-8lld %5.1f%%%s\n",
                    util, rate,
                    static_cast<long long>(st.completed),
                    static_cast<long long>(st.shedTotal()),
                    static_cast<long long>(st.shed_queue_full),
                    static_cast<long long>(st.shed_stream_full),
                    static_cast<long long>(st.shed_infeasible), 8,
                    "", static_cast<long long>(st.failed),
                    static_cast<long long>(st.retries),
                    100.0 * shed_rate,
                    ri == gated ? "  [gated]" : "");

        char rate_key[32];
        std::snprintf(rate_key, sizeof(rate_key),
                      "shed_rate_u%03d",
                      static_cast<int>(util * 100.0 + 0.5));
        jw.field(rate_key, shed_rate, 4);

        if (ri == gated) {
            jw.field("gated_utilization", util, 2)
                .field("gated_rate_rps", rate, 3)
                .field("gated_completed", st.completed)
                .field("gated_shed_queue_full", st.shed_queue_full)
                .field("gated_shed_stream_full",
                       st.shed_stream_full)
                .field("gated_shed_infeasible", st.shed_infeasible)
                .field("gated_failed", st.failed)
                .field("gated_retries", st.retries)
                .field("gated_faulted_attempts",
                       st.faulted_attempts)
                .field("gated_layer_faults", st.layer_faults)
                .field("gated_stall_events", st.stall_events)
                .field("gated_max_queue_depth", st.max_queue_depth);

            // Gate: the gated point rerun fully serial — fresh
            // same-seed injector, one simulation lane, serial
            // accelerator — reproduces every outcome, shed
            // decision, and virtual timing bit for bit.
            AcceleratorConfig serial_cfg = acfg;
            serial_cfg.sim_threads = 1;
            const Accelerator serial_acc(serial_cfg);
            FaultInjector serial_fi(kFaultSeed);
            armInjector(serial_fi);
            const ReplayResult serial =
                replay(trace, serial_acc, 1, &serial_fi);
            if (serial.observed != faulted.observed ||
                !(serial.stats == faulted.stats)) {
                deterministic_serial = false;
                std::printf("  SERIAL RERUN MISMATCH at the gated "
                            "point\n");
            }
        }
    }

    // The cliff curve in one line: shed rate per utilization.
    std::printf("\nshed-rate cliff:");
    for (size_t i = 0; i < utilizations.size(); ++i)
        std::printf(" %.1fx=%.0f%%", utilizations[i],
                    100.0 * shed_rates[i]);
    std::printf("\n");

    std::printf("gates: queue bounded %s | ok-runs bitwise equal "
                "to baseline %s | counters reconcile %s | "
                "telemetry consistent %s | serial determinism "
                "%s\n",
                queue_bounded ? "ok" : "FAIL",
                bitwise_ok_vs_baseline ? "ok" : "FAIL",
                counters_reconcile ? "ok" : "FAIL",
                telemetry_consistent ? "ok" : "FAIL",
                deterministic_serial ? "ok" : "FAIL");

    jw.field("cache_disabled", cache_disabled)
        .field("queue_bounded", queue_bounded)
        .field("bitwise_ok_vs_baseline", bitwise_ok_vs_baseline)
        .field("counters_reconcile", counters_reconcile)
        .field("telemetry_consistent", telemetry_consistent)
        .field("deterministic_serial", deterministic_serial);
    jw.write(json_path);

    if (!queue_bounded)
        s2ta_fatal("virtual queue depth exceeded the global cap");
    if (!bitwise_ok_vs_baseline)
        s2ta_fatal("a served result diverged from the fault-free "
                   "baseline");
    if (!counters_reconcile)
        s2ta_fatal("counters do not reconcile with the injection "
                   "plan");
    if (!telemetry_consistent)
        s2ta_fatal("completion-stream telemetry disagrees with "
                   "scheduler stats");
    if (!deterministic_serial)
        s2ta_fatal("the gated point is not deterministic under "
                   "serial rerun");
    return 0;
}
