/**
 * @file
 * Fault-tolerant fleet serving: the mixed multi-model open-loop
 * trace routed across N accelerator replicas — each with its own
 * PlanCache — first clean (the scaling + equivalence story), then under a
 * seeded replica-kill schedule (crashes, brownouts, restarts,
 * a scripted drain window, layer faults and stalls) with bounded
 * failover and hedged requests (the robustness story).
 *
 * Four gates:
 *
 *  - throughput scales: on a 10x-overloaded mixed trace, the
 *    R-replica fleet's makespan beats 0.8x-linear scaling over the
 *    single-replica fleet (least-loaded placement, 1 lane each);
 *  - fleet serving never changes results: every Ok completion's
 *    NetworkRun — clean or under the kill schedule — is bitwise
 *    identical to a single-accelerator StreamScheduler baseline of
 *    the same request;
 *  - zero lost requests: under the kill schedule every submission
 *    resolves to exactly one Ok / Shed / Failed, the instance
 *    ledger balances (faulted attempts == retries + failed
 *    instances), every launched hedge reconciles as exactly one of
 *    win / loss / failed, and the lifecycle counters match the
 *    injector's per-site totals exactly;
 *  - deterministic failover: the kill run rerun fully serial (one
 *    simulation lane, serial accelerator, fresh same-seed
 *    injector) reproduces every outcome, route, failover set,
 *    hedge decision, and virtual timing bit for bit.
 *
 * Usage: bench_fleet_serving [--smoke] [--json PATH] [--threads N]
 *          [--arch s2ta-w|s2ta-aw] [--replicas N]
 *          [--placement hash|least-loaded] [--cache-mb N]
 *        (--model / --no-plan-cache / --engine / --reps are
 *         rejected: the trace is mixed-model by definition, the
 *         per-replica caches are part of the scenario, results are
 *         engine-independent, and virtual time needs no best-of-N.
 *         --placement steers the kill-schedule fleet; the scaling
 *         gate always runs least-loaded, which is the throughput
 *         placement — hash trades peak scaling for cache
 *         affinity.)
 *
 * Emits BENCH_fleet_serving.json (schema checked in CI).
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "base/fault_injection.hh"
#include "bench_util.hh"
#include "serve/fleet.hh"
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
};

/** Everything observable about one fleet completion except its
 *  run: outcome, shed reason, attempts, fault layer, fault count,
 *  stall cycles, start, finish, retry delay, lane, replica,
 *  failovers, instances, hedged, hedge won, lost to crash. Maps of
 *  these compare reruns across thread counts bit for bit. */
using Observed =
    std::tuple<int, int, int, int, int64_t, int64_t, double,
               double, double, int, int, int, int, bool, bool,
               bool>;

Observed
observe(const serve::FleetCompletion &c)
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
                    c.lane,
                    c.replica,
                    c.failovers,
                    c.instances,
                    c.hedged,
                    c.hedge_won,
                    c.lost_to_crash};
}

/** Outcome of one fleet replay. */
struct FleetResult
{
    std::map<uint64_t, Observed> observed;
    /** Per Ok request id: the run, for bitwise baseline checks. */
    std::map<uint64_t, NetworkRun> ok_runs;
    serve::FleetStats stats;
    double routing_skew = 0.0;
    double cache_hit_variance = 0.0;
    int64_t hedges_launched = 0;
    int64_t hedge_wins = 0;
    int64_t hedge_losses = 0;
    int64_t hedge_failed = 0;
    bool hedges_reconcile = true;
};

bool
sameFleetStats(const serve::FleetStats &a,
               const serve::FleetStats &b)
{
    return a.requests == b.requests && a.completed == b.completed &&
           a.failed == b.failed &&
           a.failed_compute == b.failed_compute &&
           a.failed_crash == b.failed_crash &&
           a.shed_queue_full == b.shed_queue_full &&
           a.shed_stream_full == b.shed_stream_full &&
           a.shed_infeasible == b.shed_infeasible &&
           a.layers == b.layers && a.gemms == b.gemms &&
           a.dense_macs == b.dense_macs &&
           a.instances == b.instances &&
           a.failovers == b.failovers &&
           a.lost_instances == b.lost_instances &&
           a.retries == b.retries &&
           a.faulted_attempts == b.faulted_attempts &&
           a.failed_instances == b.failed_instances &&
           a.layer_faults == b.layer_faults &&
           a.stall_events == b.stall_events &&
           a.stall_cycles == b.stall_cycles &&
           a.crashes == b.crashes && a.restarts == b.restarts &&
           a.brownouts == b.brownouts && a.drains == b.drains &&
           a.max_queue_depth == b.max_queue_depth &&
           a.makespan_s == b.makespan_s;
}

constexpr double kMsPerS = 1e3;

/** The replica-kill injection plan, seeded. */
constexpr uint64_t kFaultSeed = 0xF1EE7F417;

void
armInjector(FaultInjector &fi)
{
    fi.setRate(FaultSite::LayerCompute, 0.02);
    fi.setRate(FaultSite::LayerStall, 0.02);
    fi.setStallCycles(1000, 50000);
    fi.setRate(FaultSite::ReplicaCrash, 0.08);
    fi.setRate(FaultSite::ReplicaRestart, 0.5);
    fi.setRate(FaultSite::ReplicaStall, 0.1);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(!args.model.empty(), "--model",
                    "the fleet trace mixes several models by "
                    "definition");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "per-replica plan caches are part of the "
                    "scenario (--cache-mb 0 disables them if that "
                    "is the experiment)");
    args.rejectFlag(args.engine_given, "--engine",
                    "fleet behavior is engine-independent; the "
                    "simulation always runs the plan-cached fast "
                    "path");
    args.rejectFlag(args.reps_given, "--reps",
                    "virtual time is deterministic; there is no "
                    "wall-clock noise to best-of");
    const std::string json_path =
        args.json.empty() ? "BENCH_fleet_serving.json" : args.json;
    const int R = args.replicas;
    const serve::PlacementKind placement =
        serve::placementByName(args.placement);

    banner("Fault-tolerant fleet serving",
           "Replica health, failover routing, draining, and "
           "hedged requests across N virtual accelerators");

    const std::vector<TraceItem> items = traceItems(args.smoke);
    const int streams = 6;
    const int scale_requests = args.smoke ? 240 : 480;
    const int kill_requests = args.smoke ? 120 : 240;
    const serve::VirtualClockConfig clock{/*lanes=*/1,
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
    for (size_t i = 0; i < deployed.size(); ++i)
        mean_service_s += est_service_s.at(deployed[i]);
    mean_service_s /= static_cast<double>(deployed.size());
    const double fleet_capacity_rps =
        static_cast<double>(R) * clock.lanes / mean_service_s;

    std::printf("fleet: %d replicas x %d lane @ %.1f GHz, "
                "placement %s | %zu deployed workloads, mean "
                "service %.3f ms, fleet capacity %.1f req/s | "
                "fault seed 0x%llx\n\n",
                R, clock.lanes, clock.clock_ghz,
                serve::placementName(placement), deployed.size(),
                mean_service_s * kMsPerS, fleet_capacity_rps,
                static_cast<unsigned long long>(kFaultSeed));

    // Build a seeded open-loop trace: Poisson arrivals at
    // rate_x x fleet capacity, streams round-robin, the workload
    // mix cycling.
    const auto makeTrace = [&](int n, double rate_x,
                               uint64_t seed) {
        Rng rng(seed);
        const std::vector<double> arrivals = serve::poissonArrivals(
            n, rate_x * fleet_capacity_rps, rng);
        std::vector<TraceRequest> trace(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            TraceRequest &r = trace[static_cast<size_t>(i)];
            r.workload = deployed[static_cast<size_t>(i) %
                                  deployed.size()];
            r.stream = i % streams;
            r.arrival_s = arrivals[static_cast<size_t>(i)];
        }
        return trace;
    };

    // Single-accelerator baseline for a trace: every Ok run the
    // fleet serves must be bitwise identical to these.
    const auto baselineRuns =
        [&](const std::vector<TraceRequest> &trace) {
            serve::StreamScheduler::Options o;
            o.run = run_opt;
            o.threads = args.ctx.threads;
            o.clock = clock;
            serve::StreamScheduler sched(acc, o);
            for (const TraceRequest &r : trace)
                sched.submit(r.stream, *r.workload, r.arrival_s);
            std::map<uint64_t, NetworkRun> runs;
            auto by_stream = sched.drain();
            for (auto &stream : by_stream)
                for (auto &c : stream)
                    if (c.ok())
                        runs.emplace(c.id, std::move(c.run));
            return runs;
        };

    // Replay a trace on a fleet of @p replicas clones of the
    // accelerator. Fresh per-replica caches every replay so cache
    // state cannot leak between points; outcomes and virtual
    // timings are cache-independent by construction.
    const auto replay = [&](const std::vector<TraceRequest> &trace,
                            int replicas, const Accelerator &on,
                            int threads, FaultInjector *fi,
                            const serve::OverloadConfig &overload,
                            serve::PlacementKind place,
                            double detect_delay_s,
                            double hedge_delay_s,
                            std::vector<serve::ReplicaEvent>
                                schedule) {
        std::vector<std::unique_ptr<PlanCache>> caches;
        std::vector<serve::FleetReplica> fleet;
        for (int r = 0; r < replicas; ++r) {
            PlanCache *cp = nullptr;
            if (!cache_disabled) {
                caches.push_back(std::make_unique<PlanCache>(
                    0, cache_budget_bytes));
                cp = caches.back().get();
            }
            fleet.push_back(serve::FleetReplica{&on, cp});
        }
        serve::FleetScheduler::Options o;
        o.run = run_opt;
        o.run.plan_cache = nullptr;
        o.run.fault = fi;
        o.threads = threads;
        o.clock = clock;
        o.overload = overload;
        o.placement = place;
        o.detect_delay_s = detect_delay_s;
        o.max_failovers = 3;
        o.hedge_delay_s = hedge_delay_s;
        o.schedule = std::move(schedule);
        FleetResult res;
        o.on_complete = [&](const serve::FleetCompletion &c) {
            res.observed.emplace(c.id, observe(c));
        };
        serve::FleetScheduler sched(std::move(fleet), std::move(o));
        for (const TraceRequest &r : trace)
            sched.submit(r.stream, *r.workload, r.arrival_s);
        auto by_stream = sched.drain();
        for (auto &stream : by_stream)
            for (auto &c : stream)
                if (c.ok())
                    res.ok_runs.emplace(c.id, std::move(c.run));
        res.stats = sched.stats();
        const serve::FleetTelemetry &ft = sched.telemetry();
        res.routing_skew = ft.routingSkew();
        res.cache_hit_variance = ft.cacheHitVariance();
        res.hedges_launched = ft.hedgesLaunched();
        res.hedge_wins = ft.hedgeWins();
        res.hedge_losses = ft.hedgeLosses();
        res.hedge_failed = ft.hedgeFailed();
        res.hedges_reconcile = ft.hedgesReconcile();
        return res;
    };

    JsonWriter jw;
    jw.field("bench", "fleet_serving")
        .field("smoke", args.smoke)
        .field("arch", acfg.array.name())
        .field("simd_kernel", benchSimdKernel())
        .field("replicas", R)
        .field("placement", serve::placementName(placement))
        .field("lanes_per_replica", clock.lanes)
        .field("clock_ghz", clock.clock_ghz, 1)
        .field("streams", streams)
        .field("scale_requests", scale_requests)
        .field("kill_requests", kill_requests)
        .field("cache_budget_mb", cache_budget_mb)
        .field("cache_disabled", cache_disabled);

    // ---- Scaling: clean 10x-overloaded trace, fleet 1 -> R ------
    // The gate placement is always least-loaded (the throughput
    // placement); a saturating trace makes makespan the inverse
    // throughput, so the ratio of makespans is the scaling factor.
    const std::vector<TraceRequest> scale_trace =
        makeTrace(scale_requests, 10.0, 0xF1EE7A);
    const std::map<uint64_t, NetworkRun> scale_baseline =
        baselineRuns(scale_trace);

    std::vector<int> fleet_sizes{1};
    if (R > 2)
        fleet_sizes.push_back(2);
    if (R > 1)
        fleet_sizes.push_back(R);
    const serve::OverloadConfig no_overload;
    bool bitwise_ok_vs_single = true;
    double makespan_1 = 0.0, makespan_R = 0.0;
    std::printf("%-9s %-11s %-11s %-9s %s\n", "replicas",
                "makespan", "throughput", "scaling", "skew");
    for (const int f : fleet_sizes) {
        const FleetResult res = replay(
            scale_trace, f, acc, args.ctx.threads, nullptr,
            no_overload, serve::PlacementKind::LeastLoaded, 0.0,
            0.0, {});
        if (res.stats.completed != scale_requests) {
            s2ta_fatal("clean %d-replica replay completed %lld of "
                       "%d requests",
                       f,
                       static_cast<long long>(res.stats.completed),
                       scale_requests);
        }
        for (const auto &[id, run] : res.ok_runs) {
            if (!bitwiseEqualRuns(run, scale_baseline.at(id))) {
                bitwise_ok_vs_single = false;
                std::printf("  RUN MISMATCH vs single-accelerator "
                            "baseline on request %llu (%d "
                            "replicas)\n",
                            static_cast<unsigned long long>(id),
                            f);
            }
        }
        if (f == 1)
            makespan_1 = res.stats.makespan_s;
        if (f == R)
            makespan_R = res.stats.makespan_s;
        const double scaling =
            makespan_1 > 0.0 ? makespan_1 / res.stats.makespan_s
                             : 1.0;
        std::printf("%-9d %8.3f ms %8.1f r/s %7.2fx %6.3f\n", f,
                    res.stats.makespan_s * kMsPerS,
                    scale_requests / res.stats.makespan_s, scaling,
                    res.routing_skew);
        char key[32];
        std::snprintf(key, sizeof(key), "makespan_ms_r%d", f);
        jw.field(key, res.stats.makespan_s * kMsPerS, 4);
    }
    if (R == 1)
        makespan_R = makespan_1;
    const double scaling_x =
        makespan_R > 0.0 ? makespan_1 / makespan_R : 1.0;
    const double linear_frac = scaling_x / static_cast<double>(R);
    const bool scaling_ok = linear_frac >= 0.8;
    std::printf("\nscaling 1 -> %d replicas: %.2fx (%.0f%% of "
                "linear, gate >= 80%%)\n\n",
                R, scaling_x, 100.0 * linear_frac);

    // ---- Replica-kill schedule: crashes, brownouts, restarts, a
    // drain window, layer faults, failover, and hedging ----------
    const std::vector<TraceRequest> kill_trace =
        makeTrace(kill_requests, 2.0, 0xF1EE7B);
    const std::map<uint64_t, NetworkRun> kill_baseline =
        baselineRuns(kill_trace);
    const double horizon_s =
        kill_trace.back().arrival_s + 20.0 * mean_service_s;
    const double slot_s = 2.0 * mean_service_s;

    serve::OverloadConfig overload;
    overload.global_queue_cap = 48;
    overload.max_retries = 3;
    overload.retry_backoff_s = 0.25 * mean_service_s;
    const double detect_delay_s = 1.0 * mean_service_s;
    const double hedge_delay_s = 4.0 * mean_service_s;

    const auto killSchedule = [&](FaultInjector &fi) {
        std::vector<serve::ReplicaEvent> schedule =
            serve::deriveReplicaSchedule(fi, R, horizon_s, slot_s,
                                         /*brownout_slowdown=*/2.0);
        if (R > 1) {
            // A scripted maintenance drain on replica 0 rides on
            // top of the fault-derived lifecycle.
            schedule.push_back(
                {0, serve::ReplicaEvent::Kind::DrainStart,
                 0.25 * horizon_s, 1.0});
            schedule.push_back(
                {0, serve::ReplicaEvent::Kind::DrainEnd,
                 0.5 * horizon_s, 1.0});
        }
        return schedule;
    };

    FaultInjector fi(kFaultSeed);
    armInjector(fi);
    std::vector<serve::ReplicaEvent> schedule = killSchedule(fi);
    int64_t sched_crashes = 0;
    for (const serve::ReplicaEvent &ev : schedule)
        sched_crashes +=
            ev.kind == serve::ReplicaEvent::Kind::Crash ? 1 : 0;
    const FleetResult kill = replay(
        kill_trace, R, acc, args.ctx.threads, &fi, overload,
        placement, detect_delay_s, hedge_delay_s, schedule);
    const serve::FleetStats &st = kill.stats;

    // Gate: zero lost requests — every submission resolved exactly
    // once and the instance ledger balances.
    const bool zero_lost =
        st.requests == kill_requests && st.reconciles();

    // Gate: hedges reconcile (launched == wins + losses + failed).
    const bool hedges_ok = kill.hedges_reconcile;

    // Gate: lifecycle + fault counters match the injection plan
    // exactly (the derived schedule is rolled on the same
    // injector, so injected(ReplicaCrash) IS the crash count).
    const bool counters_reconcile =
        st.crashes == fi.injected(FaultSite::ReplicaCrash) &&
        st.crashes == sched_crashes &&
        st.restarts == fi.injected(FaultSite::ReplicaRestart) &&
        st.brownouts == fi.injected(FaultSite::ReplicaStall) &&
        st.layer_faults == fi.injected(FaultSite::LayerCompute) &&
        st.stall_events == fi.injected(FaultSite::LayerStall) &&
        st.drains == (R > 1 ? 1 : 0);

    // Gate: served results under the kill schedule are still
    // bitwise identical to the single-accelerator baseline.
    for (const auto &[id, run] : kill.ok_runs) {
        if (!bitwiseEqualRuns(run, kill_baseline.at(id))) {
            bitwise_ok_vs_single = false;
            std::printf("  RUN MISMATCH vs baseline on request "
                        "%llu (kill schedule)\n",
                        static_cast<unsigned long long>(id));
        }
    }

    std::printf("replica-kill: %lld crashes, %lld restarts, %lld "
                "brownouts, %lld drains | %lld instances lost, "
                "%lld failovers, hedges %lld (%lld won / %lld "
                "lost / %lld failed)\n"
                "outcomes: %lld ok, %lld shed, %lld failed "
                "(%lld compute, %lld crash) of %d | retries %lld, "
                "layer faults %lld, stalls %lld | skew %.3f, "
                "cache-hit variance %.4f\n\n",
                static_cast<long long>(st.crashes),
                static_cast<long long>(st.restarts),
                static_cast<long long>(st.brownouts),
                static_cast<long long>(st.drains),
                static_cast<long long>(st.lost_instances),
                static_cast<long long>(st.failovers),
                static_cast<long long>(kill.hedges_launched),
                static_cast<long long>(kill.hedge_wins),
                static_cast<long long>(kill.hedge_losses),
                static_cast<long long>(kill.hedge_failed),
                static_cast<long long>(st.completed),
                static_cast<long long>(st.shedTotal()),
                static_cast<long long>(st.failed),
                static_cast<long long>(st.failed_compute),
                static_cast<long long>(st.failed_crash),
                kill_requests,
                static_cast<long long>(st.retries),
                static_cast<long long>(st.layer_faults),
                static_cast<long long>(st.stall_events),
                kill.routing_skew, kill.cache_hit_variance);

    // Gate: the kill run is deterministic — rerun fully serial
    // with a fresh same-seed injector (the derived schedule is a
    // pure function of the seed, so it regenerates identically).
    AcceleratorConfig serial_cfg = acfg;
    serial_cfg.sim_threads = 1;
    const Accelerator serial_acc(serial_cfg);
    FaultInjector serial_fi(kFaultSeed);
    armInjector(serial_fi);
    const FleetResult serial = replay(
        kill_trace, R, serial_acc, 1, &serial_fi, overload,
        placement, detect_delay_s, hedge_delay_s,
        killSchedule(serial_fi));
    const bool deterministic_serial =
        serial.observed == kill.observed &&
        sameFleetStats(serial.stats, kill.stats);
    if (!deterministic_serial)
        std::printf("  SERIAL RERUN MISMATCH under the kill "
                    "schedule\n");

    std::printf("gates: scaling >= 0.8x-linear %s | ok-runs "
                "bitwise equal to single-accelerator %s | zero "
                "lost requests %s | hedges reconcile %s | "
                "counters reconcile %s | serial determinism %s\n",
                scaling_ok ? "ok" : "FAIL",
                bitwise_ok_vs_single ? "ok" : "FAIL",
                zero_lost ? "ok" : "FAIL",
                hedges_ok ? "ok" : "FAIL",
                counters_reconcile ? "ok" : "FAIL",
                deterministic_serial ? "ok" : "FAIL");

    jw.field("scaling_x", scaling_x, 3)
        .field("scaling_linear_frac", linear_frac, 3)
        .field("kill_crashes", st.crashes)
        .field("kill_restarts", st.restarts)
        .field("kill_brownouts", st.brownouts)
        .field("kill_drains", st.drains)
        .field("kill_lost_instances", st.lost_instances)
        .field("kill_failovers", st.failovers)
        .field("kill_hedges_launched", kill.hedges_launched)
        .field("kill_hedge_wins", kill.hedge_wins)
        .field("kill_hedge_losses", kill.hedge_losses)
        .field("kill_hedge_failed", kill.hedge_failed)
        .field("kill_completed", st.completed)
        .field("kill_shed", st.shedTotal())
        .field("kill_failed_compute", st.failed_compute)
        .field("kill_failed_crash", st.failed_crash)
        .field("kill_retries", st.retries)
        .field("kill_layer_faults", st.layer_faults)
        .field("kill_routing_skew", kill.routing_skew, 4)
        .field("kill_cache_hit_variance", kill.cache_hit_variance,
               6)
        .field("scaling_ok", scaling_ok)
        .field("bitwise_ok_vs_single", bitwise_ok_vs_single)
        .field("zero_lost", zero_lost)
        .field("hedges_reconcile", hedges_ok)
        .field("counters_reconcile", counters_reconcile)
        .field("deterministic_serial", deterministic_serial);
    jw.write(json_path);

    if (!scaling_ok)
        s2ta_fatal("fleet throughput scaled below 0.8x-linear");
    if (!bitwise_ok_vs_single)
        s2ta_fatal("a fleet-served result diverged from the "
                   "single-accelerator baseline");
    if (!zero_lost)
        s2ta_fatal("a submission was lost (requests != ok + shed "
                   "+ failed, or the instance ledger is "
                   "unbalanced)");
    if (!hedges_ok)
        s2ta_fatal("hedge counters do not reconcile");
    if (!counters_reconcile)
        s2ta_fatal("lifecycle counters do not reconcile with the "
                   "injection plan");
    if (!deterministic_serial)
        s2ta_fatal("the kill schedule is not deterministic under "
                   "serial rerun");
    return 0;
}
