/**
 * @file
 * End-to-end throughput of the simulation engine itself: wall-clock
 * time to run a full CNN workload (functional outputs on) through
 * the legacy scalar engine versus the DBB-native fast path
 * (dense-lane kernel + GemmPlan caching + parallel runner),
 * plus the encode-amortized rerun through a warm PlanCache (the
 * sweep operating point: one encode, many design points). Emits a
 * JSON record for the bench trajectory and verifies that every
 * configuration produces bitwise-identical outputs and events.
 *
 * Also a SIMD tier row: the same serial fast-engine run with the
 * kernels capped at scalar (SSE2 dense dot, scalar profile) versus
 * uncapped (VNNI and VPOPCNTDQ sub-kernels). On full runs where the
 * host has AVX-512 the uncapped run must beat the cap
 * (speedup_simd > 1); hosts without it record mode
 * avx512-unsupported-host. --simd is rejected here — the tier rows
 * pin the cap themselves.
 *
 * Usage:
 *   bench_engine_throughput [--smoke] [--model NAME]
 *                           [--arch s2ta-w|s2ta-aw] [--json PATH]
 *                           [--reps N] [--threads N]
 *                           [--cache-mb N] [--spill-mb N]
 *
 * --smoke runs LeNet-5 (seconds, for CI); the default is a
 * ResNet-50 full-model run at a uniform 4/8 DBB operating point.
 * --threads sets the parallel-runner lane count (1 = serial; the
 * serial engine comparison rows are always run serial).
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
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
 * count. Recorded in the artifact: the parallel row only measures
 * the parallel runner when this is at least 2.
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
    // (unbounded by default: one model's encodings fit comfortably)
    // and --spill-mb keeps evictions rehydratable.
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
    // dispatcher capped at scalar (both AVX-512 sub-kernels off: the
    // dense dot falls back to SSE2 and the profile to the mask
    // loops), then uncapped. The dense dot dominates, so this is
    // chiefly VNNI-vs-SSE2. Hosts (or builds) without the AVX-512
    // tier keep the rows with mode "avx512-unsupported-host" and a
    // 1.0x ratio instead of silently comparing scalar against
    // itself.
    const bool avx512_supported = dbbAvx512KernelSupportedImpl();
    const int tier_reps = std::max(args.reps, 3);
    std::printf("running DBB-native engine (scalar-capped "
                "dispatch)...\n");
    dbbForceKernelCap(DbbKernelKind::Scalar);
    const EngineResult tier_scalar =
        timeEngine(serial_cfg, mw, fast_opt, tier_reps);
    dbbForceKernelCap(DbbKernelKind::Avx512);
    std::printf("  %.3f s\n", tier_scalar.seconds);
    EngineResult tier_avx512;
    if (avx512_supported) {
        std::printf("running DBB-native engine (avx512 "
                    "dispatch)...\n");
        tier_avx512 = timeEngine(serial_cfg, mw, fast_opt,
                                 tier_reps);
        std::printf("  %.3f s\n", tier_avx512.seconds);
    } else {
        std::printf("avx512 tier unavailable on this host/build; "
                    "recording the scalar row only\n");
        tier_avx512.seconds = tier_scalar.seconds;
        tier_avx512.run = tier_scalar.run;
    }
    const double speedup_simd =
        tier_scalar.seconds / tier_avx512.seconds;
    const char *simd_mode =
        avx512_supported ? "measured" : "avx512-unsupported-host";

    const bool equal = bitwiseEqualRuns(scalar.run, fast.run) &&
                       bitwiseEqualRuns(scalar.run, prod.run) &&
                       bitwiseEqualRuns(scalar.run, cached.run) &&
                       bitwiseEqualRuns(scalar.run, tier_scalar.run) &&
                       bitwiseEqualRuns(scalar.run,
                                        tier_avx512.run);
    const double speedup = scalar.seconds / fast.seconds;
    const double speedup_parallel = scalar.seconds / prod.seconds;
    const double speedup_cached = scalar.seconds / cached.seconds;
    const unsigned cores = usableCores();
    const double layers_per_sec =
        static_cast<double>(mw.layers.size()) / prod.seconds;
    const double macs_per_sec =
        static_cast<double>(spec.totalMacs()) / prod.seconds;

    std::printf(
        "\nengine speedup: %.2fx (serial) | %.2fx with the parallel "
        "runner on %u usable cores | %.2fx encode-amortized\n"
        "fast path: %.2f layers/s, %.3g simulated MACs/s | outputs "
        "bitwise %s\n",
        speedup, speedup_parallel, cores, speedup_cached,
        layers_per_sec, macs_per_sec,
        equal ? "identical" : "DIFFERENT");
    if (!equal)
        s2ta_fatal("engine outputs diverged; fast path is broken");
    std::printf("simd tier: avx512 %.2fx over scalar-capped (%s)\n",
                speedup_simd, simd_mode);
    // Where the AVX-512 tier runs at all it must win: smoke models
    // are too small for stable timing, but on the full model a
    // regression to parity means a sub-kernel fell off its fast
    // path (e.g. the dense dot stopped choosing VNNI).
    if (!args.smoke && avx512_supported && speedup_simd <= 1.0) {
        s2ta_fatal("avx512 tier speedup %.2fx over scalar is not a "
                   "win; the kernel tiers regressed",
                   speedup_simd);
    }

    JsonWriter jw;
    jw.field("bench", "engine_throughput")
        .field("model", spec.name)
        .field("arch", acfg.array.name())
        .field("smoke", args.smoke)
        .field("simd_kernel", benchSimdKernel())
        .field("cores", static_cast<int64_t>(cores))
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
        .field("simd_scalar_seconds", tier_scalar.seconds)
        .field("simd_avx512_seconds", tier_avx512.seconds)
        .field("speedup_simd", speedup_simd, 3)
        .field("simd_mode", simd_mode)
        .field("fast_layers_per_sec", layers_per_sec, 3)
        .field("fast_sim_macs_per_sec", macs_per_sec, 0)
        .field("spill_hits", tiers.cache.stats().spill_hits)
        .field("bitwise_equal", equal);
    jw.write(json_path);
    return 0;
}
