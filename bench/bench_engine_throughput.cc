/**
 * @file
 * End-to-end throughput of the simulation engine itself: wall-clock
 * time to run a full CNN workload (functional outputs on) through
 * the legacy scalar engine versus the DBB-native fast path
 * (mask-intersection kernels + GemmPlan caching + parallel runner),
 * plus the encode-amortized rerun through a warm PlanCache (the
 * sweep operating point: one encode, many design points). Emits a
 * JSON record for the bench trajectory and verifies that every
 * configuration produces bitwise-identical outputs and events.
 *
 * Also times the async device-backend path: the same workload
 * submitted through the bounded command queue (prepare of layer
 * k+1 overlapped with execution of layer k on the device thread)
 * versus the same backend pinned synchronous. On full runs the
 * overlap row must clear a 1.1x speedup gate over the synchronous
 * path — measured wall clock with >= 2 usable cores, the measured
 * two-stage pipeline bound when the process may run on one core
 * only (where a device thread cannot physically run alongside the
 * submitter).
 * --test-backend picks the backend (default in-process).
 *
 * And a SIMD tier row: the same serial fast-engine run with the
 * kernel ladder capped at AVX2 versus uncapped (AVX-512 with VNNI
 * and VPOPCNTDQ sub-kernels). On full runs where the host has
 * AVX-512 the uncapped run must beat the cap (speedup_simd > 1);
 * hosts without it record mode avx512-unsupported-host. --simd is
 * rejected here — the tier rows pin the cap themselves.
 *
 * Usage:
 *   bench_engine_throughput [--smoke] [--model NAME]
 *                           [--arch s2ta-w|s2ta-aw] [--json PATH]
 *                           [--reps N] [--threads N]
 *                           [--cache-mb N] [--spill-mb N]
 *                           [--plan-store DIR]
 *                           [--test-backend NAME]
 *
 * --smoke runs LeNet-5 (seconds, for CI); the default is a
 * ResNet-50 full-model run at a uniform 4/8 DBB operating point.
 * --threads sets the parallel-runner lane count (1 = serial; the
 * serial engine comparison rows are always run serial).
 */

#include <sched.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"

using namespace s2ta;
using namespace s2ta::bench;

namespace {

/**
 * Cores this process may run on: its CPU affinity mask where the
 * platform reports one, so a run pinned with `taskset -c 0` counts
 * as single-core even on a bigger machine, else the hardware thread
 * count.
 */
unsigned
usableCores()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
#endif
    return std::thread::hardware_concurrency();
}

struct EngineResult
{
    double seconds = 0.0;
    NetworkRun run;
};

EngineResult
timeEngine(const AcceleratorConfig &acfg, const ModelWorkload &mw,
           const NetworkRunOptions &opt, int reps)
{
    const Accelerator acc(acfg);
    EngineResult r;
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const double t0 = benchNow();
        NetworkRun nr = acc.runNetwork(mw.layers, opt);
        const double dt = benchNow() - t0;
        if (rep == 0 || dt < best) {
            best = dt;
            r.run = std::move(nr);
        }
    }
    r.seconds = best;
    return r;
}

struct BackendResult
{
    double seconds = 0.0;
    NetworkRun run;
    BackendStats stats;
    int64_t transfer_cycles = 0;
};

/** Time a fresh backend instance per rep (a backend's stats are
 *  lifetime totals; one instance per rep keeps the reported stats
 *  those of exactly the timed run). */
BackendResult
timeBackend(const std::string &name, const AcceleratorConfig &acfg,
            const BackendConfig &bcfg, const ModelWorkload &mw,
            const NetworkRunOptions &opt, int reps)
{
    BackendResult r;
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        const auto be = makeBackend(name, acfg, bcfg);
        const double t0 = benchNow();
        BackendNetworkRun br = be->runNetworkTimed(mw.layers, opt);
        const double dt = benchNow() - t0;
        if (rep == 0 || dt < best) {
            best = dt;
            r.run = std::move(br.run);
            r.stats = be->stats();
            r.transfer_cycles = br.transfer_cycles;
        }
    }
    r.seconds = best;
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    args.rejectFlag(args.engine_given, "--engine",
                    "this bench compares both engines by design");
    args.rejectFlag(args.plan_cache_given, "--no-plan-cache",
                    "the warm-cache row is part of the experiment");
    args.rejectFlag(args.replicas_given, "--replicas",
                    "engine comparison runs one accelerator; fleet "
                    "scaling lives in bench_fleet_serving");
    args.rejectFlag(args.placement_given, "--placement",
                    "engine comparison routes nothing; fleet "
                    "placement lives in bench_fleet_serving");
    args.rejectFlag(args.simd_given, "--simd",
                    "the SIMD tier comparison rows pin the "
                    "dispatcher cap by design");
    if (args.model.empty())
        args.model = args.smoke ? "lenet5" : "resnet50";
    if (args.arch.empty())
        args.arch = "s2ta-aw";
    const std::string json_path =
        args.json.empty() ? "BENCH_engine_throughput.json"
                          : args.json;

    banner("Engine throughput",
           "Scalar per-element engine vs DBB-native fast path "
           "(functional outputs on, uniform 4/8 DBB)");

    const ModelSpec spec = modelByName(args.model);
    // Uniform 4/8 operating point on both operands: the paper's
    // headline weight density, and the sparsity level the
    // acceptance target is defined at.
    std::vector<LayerSparsity> profile(spec.layers.size(),
                                       LayerSparsity{4, 4});
    Rng rng(0xE16);
    const ModelWorkload mw =
        buildModelWorkload(spec, profile, rng);

    AcceleratorConfig acfg;
    acfg.array = args.arch == "s2ta-w" ? ArrayConfig::s2taW()
                                       : ArrayConfig::s2taAw(4);

    // Pre-PR behavior: serial, per-element loops, always-on operand
    // validation.
    NetworkRunOptions scalar_opt;
    scalar_opt.compute_output = true;
    scalar_opt.engine = EngineKind::Scalar;
    scalar_opt.validate_operands = true;
    AcceleratorConfig serial_cfg = acfg;
    serial_cfg.sim_threads = 1;

    // The DBB-native engine under identical conditions (serial,
    // validation on): the JSON "speedup" isolates the engine gain
    // from thread count.
    NetworkRunOptions fast_opt = scalar_opt;
    fast_opt.engine = EngineKind::DbbFast;

    // The full production path: parallel lanes (with intra-GEMM
    // tile-stripe sharding), validation off (the bench generator
    // guarantees the bounds; tests keep it on). --threads applies
    // here (0 = all hardware threads, 1 = serial).
    NetworkRunOptions prod_opt = fast_opt;
    prod_opt.validate_operands = false;
    AcceleratorConfig prod_cfg = acfg;
    prod_cfg.sim_threads = args.ctx.threads;

    // The sweep operating point: same engine with a warm PlanCache,
    // i.e. the marginal cost of one more design point after the
    // workload has been encoded once. --cache-mb bounds it
    // (unbounded by default: one model's encodings fit comfortably),
    // --spill-mb keeps evictions rehydratable, and --plan-store
    // persists the encodings so a second invocation warm-starts.
    BenchCache tiers(args, /*default_cache_mb=*/0);
    NetworkRunOptions cached_opt = fast_opt;
    cached_opt.plan_cache = tiers.cachePtr();

    std::printf("model=%s arch=%s layers=%zu dense_macs=%lld\n\n",
                spec.name.c_str(), acfg.array.name().c_str(),
                spec.layers.size(),
                static_cast<long long>(spec.totalMacs()));

    std::printf("running scalar engine (serial)...\n");
    const EngineResult scalar =
        timeEngine(serial_cfg, mw, scalar_opt, args.reps);
    std::printf("  %.3f s\n", scalar.seconds);

    std::printf("running DBB-native engine (serial)...\n");
    const EngineResult fast =
        timeEngine(serial_cfg, mw, fast_opt, args.reps);
    std::printf("  %.3f s\n", fast.seconds);

    std::printf("running DBB-native engine (parallel, unvalidated)"
                "...\n");
    const EngineResult prod =
        timeEngine(prod_cfg, mw, prod_opt, args.reps);
    std::printf("  %.3f s\n", prod.seconds);

    std::printf("running DBB-native engine (warm plan cache)...\n");
    // Warm the cache once, then time the encode-amortized rerun.
    (void)timeEngine(serial_cfg, mw, cached_opt, 1);
    const EngineResult cached =
        timeEngine(serial_cfg, mw, cached_opt, args.reps);
    std::printf("  %.3f s\n", cached.seconds);

    // The SIMD tier rows: the serial fast engine re-timed with the
    // dispatcher capped at AVX2 (every AVX-512 sub-path off: the
    // VBMI intersection kernel, the VNNI dense mirror, and the
    // VPOPCNTDQ profile derivation all fall back), then uncapped.
    // At the 4/8 operating point the dense-mirror dot dominates, so
    // this is chiefly VNNI-vs-SSE2 — the headline kernel-ladder
    // win. Hosts (or builds) without the AVX-512 tier keep the rows
    // with mode "avx512-unsupported-host" and a 1.0x ratio instead
    // of silently comparing AVX2 against itself.
    const bool avx512_supported = dbbAvx512KernelSupportedImpl();
    const int tier_reps = std::max(args.reps, 3);
    std::printf("running DBB-native engine (avx2-capped "
                "dispatch)...\n");
    dbbForceKernelCap(DbbKernelKind::Avx2);
    const EngineResult tier_avx2 =
        timeEngine(serial_cfg, mw, fast_opt, tier_reps);
    dbbForceKernelCap(DbbKernelKind::Avx512);
    std::printf("  %.3f s\n", tier_avx2.seconds);
    EngineResult tier_avx512;
    if (avx512_supported) {
        std::printf("running DBB-native engine (avx512 "
                    "dispatch)...\n");
        tier_avx512 = timeEngine(serial_cfg, mw, fast_opt,
                                 tier_reps);
        std::printf("  %.3f s\n", tier_avx512.seconds);
    } else {
        std::printf("avx512 tier unavailable on this host/build; "
                    "recording the avx2 row only\n");
        tier_avx512.seconds = tier_avx2.seconds;
        tier_avx512.run = tier_avx2.run;
    }
    const double speedup_simd =
        tier_avx2.seconds / tier_avx512.seconds;
    const char *simd_mode =
        avx512_supported ? "measured" : "avx512-unsupported-host";

    // The async device-backend rows: the same serial device config
    // driven through the bounded command queue, synchronous (every
    // submit executes inline — no overlap possible) versus async
    // (the host's im2col/encode of layer k+1 runs while the device
    // thread executes layer k). The gap is the encode/compute
    // overlap win, isolated from engine and thread-count effects.
    const std::string backend_name = args.test_backend.empty()
                                         ? "in-process"
                                         : args.test_backend;
    BackendConfig sync_bcfg;
    sync_bcfg.synchronous = true;
    BackendConfig async_bcfg;
    async_bcfg.queue_depth = 2;

    std::printf("running %s backend (synchronous queue)...\n",
                backend_name.c_str());
    const BackendResult be_sync =
        timeBackend(backend_name, serial_cfg, sync_bcfg, mw,
                    fast_opt, args.reps);
    std::printf("  %.3f s\n", be_sync.seconds);

    std::printf("running %s backend (async, encode/compute "
                "overlap)...\n", backend_name.c_str());
    const BackendResult be_async =
        timeBackend(backend_name, serial_cfg, async_bcfg, mw,
                    fast_opt, args.reps);
    std::printf("  %.3f s\n", be_async.seconds);

    const bool backend_equal =
        bitwiseEqualRuns(be_sync.run, be_async.run) &&
        (backend_name == "scalar-ref"
             ? bitwiseEqualRuns(scalar.run, be_async.run)
             : bitwiseEqualRuns(fast.run, be_async.run));

    // Per-phase split through the same prepare/execute API the
    // queue pipelines: the host-side cost (im2col + DBB encode) and
    // the device-side cost (GEMM execution) measured separately
    // give the two-stage pipeline bound — the wall time the async
    // queue converges to when the device thread has a core of its
    // own: the longer phase, plus one queue-slot fill of the
    // shorter.
    std::printf("splitting prepare/execute phases...\n");
    double prep_seconds = 0.0, exec_seconds = 0.0;
    {
        const Accelerator split_acc(serial_cfg);
        std::vector<PreparedLayer> preps;
        preps.reserve(mw.layers.size());
        const double t0 = benchNow();
        for (const LayerWorkload &wl : mw.layers)
            preps.push_back(split_acc.prepareLayer(wl, fast_opt));
        prep_seconds = benchNow() - t0;
        const double t1 = benchNow();
        for (const PreparedLayer &p : preps)
            (void)split_acc.executePrepared(p, fast_opt);
        exec_seconds = benchNow() - t1;
    }
    std::printf("  prepare %.3f s | execute %.3f s\n", prep_seconds,
                exec_seconds);
    const double pipeline_seconds =
        std::max(prep_seconds, exec_seconds) +
        std::min(prep_seconds, exec_seconds) /
            static_cast<double>(mw.layers.size());

    const bool equal = bitwiseEqualRuns(scalar.run, fast.run) &&
                       bitwiseEqualRuns(scalar.run, prod.run) &&
                       bitwiseEqualRuns(scalar.run, cached.run) &&
                       bitwiseEqualRuns(scalar.run, tier_avx2.run) &&
                       bitwiseEqualRuns(scalar.run,
                                        tier_avx512.run) &&
                       backend_equal;
    const double speedup = scalar.seconds / fast.seconds;
    const double speedup_parallel = scalar.seconds / prod.seconds;
    const double speedup_cached = scalar.seconds / cached.seconds;
    // The overlap gate needs two runnable threads to mean anything:
    // on a single-core host the device thread timeshares with the
    // submitter and measured async wall time degenerates to the
    // synchronous path, whatever the queue does. There the gate
    // falls back to the measured pipeline bound — the overlap the
    // queue delivers as soon as a second core exists. Both numbers
    // land in the artifact, with the mode that was enforced.
    const double speedup_overlap_measured =
        be_sync.seconds / be_async.seconds;
    const double speedup_overlap_pipeline =
        be_sync.seconds / pipeline_seconds;
    const unsigned overlap_cores = usableCores();
    const bool overlap_measurable = overlap_cores >= 2;
    const double speedup_overlap = overlap_measurable
                                       ? speedup_overlap_measured
                                       : speedup_overlap_pipeline;
    const char *overlap_mode = overlap_measurable
                                   ? "measured"
                                   : "pipeline-bound-single-core";
    const double overlap_gate = 1.1;
    const double layers_per_sec =
        static_cast<double>(mw.layers.size()) / prod.seconds;
    const double macs_per_sec =
        static_cast<double>(spec.totalMacs()) / prod.seconds;

    std::printf(
        "\nengine speedup: %.2fx (serial) | %.2fx with the parallel "
        "runner | %.2fx encode-amortized\nasync %s backend: %.2fx "
        "over the synchronous queue (%s; gate %.1fx on full runs)\n"
        "fast path: %.2f layers/s, %.3g simulated MACs/s | outputs "
        "bitwise %s\n",
        speedup, speedup_parallel, speedup_cached,
        backend_name.c_str(), speedup_overlap, overlap_mode,
        overlap_gate, layers_per_sec, macs_per_sec,
        equal ? "identical" : "DIFFERENT");
    if (!equal)
        s2ta_fatal("engine outputs diverged; fast path is broken");
    // The overlap gate is a wall-clock property: smoke models are
    // too small for stable timing, so CI asserts the schema there
    // and the full ResNet-50 run enforces the ratio.
    if (!args.smoke && speedup_overlap < overlap_gate) {
        s2ta_fatal("async backend overlap speedup %.2fx is below "
                   "the %.1fx gate", speedup_overlap, overlap_gate);
    }
    std::printf("simd tier: avx512 %.2fx over avx2-capped (%s)\n",
                speedup_simd, simd_mode);
    // Where the AVX-512 tier runs at all it must win: smoke models
    // are too small for stable timing, but on the full model a
    // regression to parity means a sub-kernel fell off its fast
    // path (e.g. the dense mirror stopped choosing VNNI).
    if (!args.smoke && avx512_supported && speedup_simd <= 1.0) {
        s2ta_fatal("avx512 tier speedup %.2fx over avx2 is not a "
                   "win; the kernel ladder regressed",
                   speedup_simd);
    }

    JsonWriter jw;
    jw.field("bench", "engine_throughput")
        .field("model", spec.name)
        .field("arch", acfg.array.name())
        .field("smoke", args.smoke)
        .field("simd_kernel", benchSimdKernel())
        .field("layers", static_cast<int64_t>(spec.layers.size()))
        .field("dense_macs", spec.totalMacs())
        .field("wgt_nnz", 4)
        .field("act_nnz", 4)
        .field("scalar_seconds", scalar.seconds)
        .field("fast_seconds", fast.seconds)
        .field("fast_parallel_seconds", prod.seconds)
        .field("fast_cached_seconds", cached.seconds)
        .field("speedup", speedup, 3)
        .field("speedup_parallel", speedup_parallel, 3)
        .field("speedup_cached", speedup_cached, 3)
        .field("simd_avx2_seconds", tier_avx2.seconds)
        .field("simd_avx512_seconds", tier_avx512.seconds)
        .field("speedup_simd", speedup_simd, 3)
        .field("simd_mode", simd_mode)
        .field("test_backend", backend_name)
        .field("backend_queue_depth", async_bcfg.queue_depth)
        .field("backend_sync_seconds", be_sync.seconds)
        .field("backend_async_seconds", be_async.seconds)
        .field("backend_prepare_seconds", prep_seconds)
        .field("backend_execute_seconds", exec_seconds)
        .field("speedup_overlap", speedup_overlap, 3)
        .field("speedup_overlap_measured", speedup_overlap_measured,
               3)
        .field("speedup_overlap_pipeline", speedup_overlap_pipeline,
               3)
        .field("overlap_mode", overlap_mode)
        .field("overlap_cores",
               static_cast<int64_t>(overlap_cores))
        .field("overlap_gate", overlap_gate, 3)
        .field("backend_submitted", be_async.stats.submitted)
        .field("backend_completed", be_async.stats.completed)
        .field("backend_h2d_bytes", be_async.stats.h2d_bytes)
        .field("backend_d2h_bytes", be_async.stats.d2h_bytes)
        .field("backend_transfer_cycles",
               be_async.stats.transfer_cycles)
        .field("bitwise_equal_backend", backend_equal)
        .field("fast_layers_per_sec", layers_per_sec, 3)
        .field("fast_sim_macs_per_sec", macs_per_sec, 0)
        .field("plan_store", !args.plan_store.empty())
        .field("store_hits", tiers.cache.stats().store_hits)
        .field("store_saves", tiers.cache.stats().store_saves)
        .field("spill_hits", tiers.cache.stats().spill_hits)
        .field("bitwise_equal", equal);
    jw.write(json_path);
    return 0;
}
