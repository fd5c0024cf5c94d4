/**
 * @file
 * End-to-end throughput of the *sweep layer*: wall-clock time to
 * evaluate one CNN workload across many array configurations, the
 * way fig09-fig12/tab04-tab05 and design-space exploration actually
 * use the simulator. The baseline is the PR-1 path (fresh models
 * per design point, every config re-lowers and re-encodes the
 * workload, single thread, single stripe); the measured engine
 * shares one PlanCache so the workload encodes once and every
 * subsequent design point reuses the cached plans.
 *
 * Also verifies the correctness contract of the whole stack:
 *  - cached and uncached sweeps produce identical event totals;
 *  - fast-engine outputs (plan-cached included) are bitwise
 *    identical to EngineKind::Scalar;
 *  - row-stripe sharded functional runs are bitwise identical to
 *    serial at every checked thread count.
 *
 * With --plan-store DIR a third phase runs the same sweep through a
 * persistent cross-process plan store: the first invocation encodes
 * and serializes every plan (cold start, populating DIR); any later
 * invocation pointed at the same DIR hydrates the mmap'd encodings
 * instead of re-encoding (warm start). The warm-start gate compares
 * the time-to-first-design-point — the phase warm start actually
 * accelerates; the per-point simulation cost after it is identical
 * by construction — against the store-free cold encode, and every
 * store-phase run must stay bitwise identical to the store-free
 * sweep (a corrupt or version-stale store file is rejected and
 * silently rebuilt, so the check holds under corruption too).
 *
 * Usage: bench_sweep_throughput [--smoke] [--model NAME]
 *          [--json PATH] [--reps N] [--engine scalar|fast]
 *          [--plan-store DIR] [--spill-mb N] [--cache-mb N]
 *        (--threads / --no-plan-cache are rejected: the experiment
 *         pins them)
 *
 * Emits BENCH_sweep_throughput.json (schema checked in CI).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"

using namespace s2ta;
using namespace s2ta::bench;

namespace {

/**
 * The sweep: the four baseline families plus a design-space grid of
 * S2TA array geometries (Fig. 9-12 x Sec. 7-style exploration). All
 * S2TA points share one set of encoded plans; the SA/SMT points
 * share another (their im2col alignment differs).
 */
std::vector<ArrayConfig>
sweepConfigs(bool smoke)
{
    std::vector<ArrayConfig> cfgs;
    cfgs.push_back(ArrayConfig::saZvcg());
    if (!smoke) {
        cfgs.push_back(ArrayConfig::sa());
        cfgs.push_back(ArrayConfig::saSmt(2));
        cfgs.push_back(ArrayConfig::saSmt(4));
    }
    const auto scaled = [](ArrayConfig cfg, int mx, int nx) {
        cfg.tpe.m *= mx;
        cfg.tpe.n *= nx;
        return cfg;
    };
    cfgs.push_back(ArrayConfig::s2taW());
    cfgs.push_back(ArrayConfig::s2taAw(4));
    if (!smoke) {
        for (const auto &[mx, nx] :
             {std::pair{2, 1}, {1, 2}, {2, 2}}) {
            cfgs.push_back(scaled(ArrayConfig::s2taW(), mx, nx));
            cfgs.push_back(scaled(ArrayConfig::s2taAw(4), mx, nx));
        }
    }
    return cfgs;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(args.threads_given, "--threads",
                    "the cached-vs-baseline comparison is pinned "
                    "single-thread (sharded runs are checked at "
                    "fixed lane counts)");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "the plan cache is the measured engine");
    args.rejectFlag(args.replicas_given, "--replicas",
                    "the sweep evaluates design points, not a "
                    "fleet; scaling lives in bench_fleet_serving");
    args.rejectFlag(args.placement_given, "--placement",
                    "the sweep routes nothing; fleet placement "
                    "lives in bench_fleet_serving");
    if (args.model.empty())
        args.model = args.smoke ? "lenet5" : "resnet50";
    std::string json_path = args.json.empty()
                                ? "BENCH_sweep_throughput.json"
                                : args.json;

    banner("Sweep throughput",
           "Multi-config sweep: per-point re-encoding (PR-1 "
           "baseline) vs one shared PlanCache");

    const ModelSpec spec = modelByName(args.model);
    Rng rng(0x51EE9);
    const ModelWorkload mw = buildModelWorkload(spec, rng);
    const std::vector<ArrayConfig> cfgs = sweepConfigs(args.smoke);

    std::printf("model=%s layers=%zu configs=%zu reps=%d\n\n",
                spec.name.c_str(), mw.layers.size(), cfgs.size(),
                args.reps);

    // ---- baseline: the PR-1 sweep loop --------------------------
    // Fresh Accelerator per design point, no plan cache: every
    // config re-lowers and re-encodes all layers. Single thread,
    // single stripe.
    NetworkRunOptions base_opt;
    base_opt.engine = args.ctx.engine;
    std::vector<NetworkRun> base_runs(cfgs.size());
    double base_seconds = 0.0;
    for (int rep = 0; rep < args.reps; ++rep) {
        std::vector<NetworkRun> runs(cfgs.size());
        const double t0 = benchNow();
        for (size_t c = 0; c < cfgs.size(); ++c) {
            const double c0 = benchNow();
            AcceleratorConfig acfg;
            acfg.array = cfgs[c];
            acfg.sim_threads = 1;
            const Accelerator acc(acfg);
            runs[c] = acc.runNetwork(mw.layers, base_opt);
            if (rep == 0)
                std::printf("  base   %-28s %.3f s\n",
                            cfgs[c].name().c_str(), benchNow() - c0);
        }
        const double dt = benchNow() - t0;
        if (rep == 0 || dt < base_seconds) {
            base_seconds = dt;
            base_runs = std::move(runs);
        }
    }
    std::printf("baseline (no cache, fresh models):  %.3f s\n",
                base_seconds);

    // ---- measured: shared plan cache + hoisted models -----------
    // Store-free even when --plan-store is given: this phase is the
    // cold-encode reference the warm-start gate compares against.
    SweepContext::Options ctx_opts = args.ctx;
    ctx_opts.threads = 1; // acceptance point is single-thread
    ctx_opts.plan_cache = true;
    ctx_opts.plan_store_dir.clear();
    double cached_seconds = 0.0;
    double cold_first_point_seconds = 0.0;
    std::vector<NetworkRun> cached_runs(cfgs.size());
    PlanCache::Stats cache_stats;
    for (int rep = 0; rep < args.reps; ++rep) {
        SweepContext ctx(ctx_opts); // cold cache every rep
        const NetworkRunOptions opt = ctx.networkRunOptions();
        std::vector<NetworkRun> runs(cfgs.size());
        double first_point = 0.0;
        const double t0 = benchNow();
        for (size_t c = 0; c < cfgs.size(); ++c) {
            const double c0 = benchNow();
            runs[c] =
                ctx.accelerator(cfgs[c]).runNetwork(mw.layers, opt);
            if (c == 0)
                first_point = benchNow() - c0;
            if (rep == 0)
                std::printf("  cached %-28s %.3f s\n",
                            cfgs[c].name().c_str(), benchNow() - c0);
        }
        const double dt = benchNow() - t0;
        if (rep == 0 || dt < cached_seconds) {
            cached_seconds = dt;
            cold_first_point_seconds = first_point;
            cached_runs = std::move(runs);
            cache_stats = ctx.planCache().stats();
        }
    }
    std::printf("plan-cached sweep (shared encode):  %.3f s\n",
                cached_seconds);

    // ---- persistent plan store: cold populate / warm hydrate ----
    // Fresh context (cold RAM cache) per rep, all sharing the store
    // directory — and, across invocations, sharing it with past
    // processes. Warm start is detected from the tier counters: the
    // store served every plan and nothing was encoded.
    const bool plan_store_on = !args.plan_store.empty();
    double store_seconds = 0.0;
    double store_first_point_seconds = 0.0;
    bool warm_start = false;
    bool store_equal = true;
    PlanCache::Stats store_stats;
    if (plan_store_on) {
        SweepContext::Options sopts = args.ctx;
        sopts.threads = 1;
        sopts.plan_cache = true;
        for (int rep = 0; rep < args.reps; ++rep) {
            SweepContext ctx(sopts);
            const NetworkRunOptions opt = ctx.networkRunOptions();
            std::vector<NetworkRun> runs(cfgs.size());
            double first_point = 0.0;
            const double t0 = benchNow();
            for (size_t c = 0; c < cfgs.size(); ++c) {
                const double c0 = benchNow();
                runs[c] = ctx.accelerator(cfgs[c])
                              .runNetwork(mw.layers, opt);
                if (c == 0)
                    first_point = benchNow() - c0;
            }
            const double dt = benchNow() - t0;
            const PlanCache::Stats st = ctx.planCache().stats();
            // Warm start is a property of the *invocation*, judged
            // from rep 0 — the first contact with the store. On a
            // cold invocation, rep 2+ would hydrate from the store
            // rep 0 just populated in this very process; those
            // same-process reps must neither flip the label nor be
            // timed as the (cross-process) warm start, so a cold
            // invocation reports rep 0 — the true populate cost —
            // and a warm one reports best-of (every rep is a
            // genuine store hydration).
            if (rep == 0)
                warm_start = st.store_hits > 0 && st.misses == 0;
            const bool record =
                warm_start ? (rep == 0 || dt < store_seconds)
                           : rep == 0;
            if (record) {
                store_seconds = dt;
                store_first_point_seconds = first_point;
                store_stats = st;
                for (size_t c = 0; c < cfgs.size(); ++c) {
                    if (!bitwiseEqualRuns(runs[c], base_runs[c])) {
                        store_equal = false;
                        std::printf("STORE MISMATCH on %s\n",
                                    cfgs[c].name().c_str());
                    }
                }
            }
            if (!warm_start)
                break; // further reps would only be discarded
        }
        std::printf(
            "plan-store sweep (%s start):        %.3f s | first "
            "design point %.3f s vs %.3f s cold encode | store: "
            "%lld hydrated / %lld saved / %lld rejected\n",
            warm_start ? "warm" : "cold", store_seconds,
            store_first_point_seconds, cold_first_point_seconds,
            static_cast<long long>(store_stats.store_hits),
            static_cast<long long>(store_stats.store_saves),
            static_cast<long long>(store_stats.store_rejects));
    }

    bool events_equal = true;
    for (size_t c = 0; c < cfgs.size(); ++c) {
        if (!bitwiseEqualRuns(base_runs[c], cached_runs[c])) {
            events_equal = false;
            std::printf("EVENT MISMATCH on %s\n",
                        cfgs[c].name().c_str());
        }
    }

    // ---- scalar-engine equivalence (events, all configs) --------
    NetworkRunOptions scalar_opt;
    scalar_opt.engine = EngineKind::Scalar;
    bool scalar_equal = true;
    for (size_t c = 0; c < cfgs.size(); ++c) {
        AcceleratorConfig acfg;
        acfg.array = cfgs[c];
        acfg.sim_threads = 1;
        const NetworkRun sr =
            Accelerator(acfg).runNetwork(mw.layers, scalar_opt);
        if (!bitwiseEqualRuns(sr, base_runs[c])) {
            scalar_equal = false;
            std::printf("SCALAR EVENT MISMATCH on %s\n",
                        cfgs[c].name().c_str());
        }
    }

    // ---- functional bitwise checks ------------------------------
    // Scalar vs fast vs plan-cached functional outputs on one
    // architecture, then row-stripe sharded runs at several lane
    // counts against the serial run.
    AcceleratorConfig fcfg;
    fcfg.array = args.arch == "s2ta-w" ? ArrayConfig::s2taW()
                                       : ArrayConfig::s2taAw(4);
    fcfg.sim_threads = 1;

    NetworkRunOptions fun_scalar;
    fun_scalar.compute_output = true;
    fun_scalar.engine = EngineKind::Scalar;
    const NetworkRun out_scalar =
        Accelerator(fcfg).runNetwork(mw.layers, fun_scalar);

    NetworkRunOptions fun_fast = fun_scalar;
    fun_fast.engine = EngineKind::DbbFast;
    const NetworkRun out_fast =
        Accelerator(fcfg).runNetwork(mw.layers, fun_fast);

    PlanCache fun_cache;
    NetworkRunOptions fun_cached = fun_fast;
    fun_cached.plan_cache = &fun_cache;
    const NetworkRun out_cached =
        Accelerator(fcfg).runNetwork(mw.layers, fun_cached);

    bool functional_equal = bitwiseEqualRuns(out_scalar, out_fast) &&
                            bitwiseEqualRuns(out_scalar, out_cached);

    bool sharded_equal = true;
    const int shard_threads[] = {2, 4};
    for (int t : shard_threads) {
        AcceleratorConfig scfg = fcfg;
        scfg.sim_threads = t;
        const NetworkRun out_sharded =
            Accelerator(scfg).runNetwork(mw.layers, fun_cached);
        if (!bitwiseEqualRuns(out_fast, out_sharded)) {
            sharded_equal = false;
            std::printf("SHARD MISMATCH at %d threads\n", t);
        }
    }

    const bool all_equal = events_equal && scalar_equal &&
                           functional_equal && sharded_equal &&
                           store_equal;
    const double speedup = base_seconds / cached_seconds;
    // Warm-start gate: hydration must beat cold encode by 2x at
    // the point it accelerates — time to the first design point
    // (encode-or-hydrate + one simulation; the remaining points
    // cost the same with or without the store by construction).
    constexpr double kWarmStartGate = 2.0;
    const double warm_start_speedup =
        warm_start && store_first_point_seconds > 0.0
            ? cold_first_point_seconds / store_first_point_seconds
            : 0.0;
    const double pts = static_cast<double>(cfgs.size());
    std::printf(
        "\nsweep speedup: %.2fx | %.2f -> %.2f design points/s | "
        "cache: %lld hits / %lld misses\n"
        "equivalence: events %s, scalar %s, functional %s, "
        "sharded %s\n",
        speedup, pts / base_seconds, pts / cached_seconds,
        static_cast<long long>(cache_stats.hits),
        static_cast<long long>(cache_stats.misses),
        events_equal ? "ok" : "FAIL", scalar_equal ? "ok" : "FAIL",
        functional_equal ? "ok" : "FAIL",
        sharded_equal ? "ok" : "FAIL");

    JsonWriter jw;
    jw.field("bench", "sweep_throughput")
        .field("model", spec.name)
        .field("smoke", args.smoke)
        .field("layers", static_cast<int64_t>(mw.layers.size()))
        .field("configs", static_cast<int64_t>(cfgs.size()))
        .field("reps", args.reps)
        .field("baseline_seconds", base_seconds)
        .field("cached_seconds", cached_seconds)
        .field("speedup", speedup, 3)
        .field("design_points_per_sec_baseline", pts / base_seconds,
               3)
        .field("design_points_per_sec_cached", pts / cached_seconds,
               3)
        .field("cache_hits", cache_stats.hits)
        .field("cache_misses", cache_stats.misses)
        .field("cache_entries", cache_stats.entries)
        .field("cache_resident_bytes", cache_stats.resident_bytes)
        .field("dap_memo_hits", cache_stats.dap_hits)
        .field("dap_memo_misses", cache_stats.dap_misses)
        .field("simd_kernel", benchSimdKernel())
        .field("plan_store", plan_store_on)
        .field("warm_start", warm_start)
        .field("store_seconds", store_seconds)
        .field("cold_first_point_seconds", cold_first_point_seconds)
        .field("warm_first_point_seconds",
               store_first_point_seconds)
        .field("warm_start_speedup", warm_start_speedup, 3)
        .field("warm_start_gate", kWarmStartGate, 1)
        .field("store_hits", store_stats.store_hits)
        .field("store_misses", store_stats.store_misses)
        .field("store_rejects", store_stats.store_rejects)
        .field("store_saves", store_stats.store_saves)
        .field("spill_hits", store_stats.spill_hits)
        .field("bitwise_equal_store", store_equal)
        .field("bitwise_equal_events", events_equal)
        .field("bitwise_equal_scalar",
               scalar_equal && functional_equal)
        .field("bitwise_equal_sharded", sharded_equal)
        .field("shard_threads_checked", "2,4");
    jw.write(json_path);

    if (!all_equal)
        s2ta_fatal("sweep engine outputs diverged");
    if (warm_start && !args.smoke &&
        warm_start_speedup < kWarmStartGate) {
        s2ta_fatal("warm-start first design point %.2fx cold encode "
                   "is below the %.1fx gate", warm_start_speedup,
                   kWarmStartGate);
    }
    return 0;
}
