/**
 * @file
 * Shared plumbing for the paper-reproduction benchmark binaries:
 * canonical workloads, design-point evaluation, sweep-scale
 * amortization (hoisted models + cross-run plan caching), the
 * common CLI flags, and normalized metric records.
 */

#ifndef S2TA_BENCH_BENCH_UTIL_HH
#define S2TA_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "arch/plan_cache.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "core/dap.hh"
#include "core/weight_pruner.hh"
#include "energy/energy_model.hh"
#include "obs/trace.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace bench {

/** Outcome of one design point on one workload. */
struct DesignPoint
{
    std::string name;
    EventCounts events;
    EnergyBreakdown energy;
    double energy_pj = 0.0;
    int64_t cycles = 0;

    double
    speedupOver(const DesignPoint &base) const
    {
        return static_cast<double>(base.cycles) /
               static_cast<double>(cycles);
    }

    double
    energyRatioTo(const DesignPoint &base) const
    {
        return energy_pj / base.energy_pj;
    }
};

/** Outcome of one design point on a whole model workload. */
struct ModelPoint
{
    std::string name;
    EventCounts events;
    double energy_uj = 0.0;
    int64_t cycles = 0;
};

/**
 * Sweep-scale evaluation context.
 *
 * A paper sweep evaluates many design points over few workloads;
 * pre-PR, every point paid the full setup again (fresh ArrayModel,
 * fresh EnergyModel, fresh Accelerator, re-lowered and re-encoded
 * operands). The context hoists all of that: array models, energy
 * models, and accelerators are constructed once per distinct config
 * and the shared PlanCache encodes each workload once for the whole
 * sweep. Results are bitwise identical to the uncached path.
 */
class SweepContext
{
  public:
    struct Options
    {
        /** Simulation engine for every evaluation. */
        EngineKind engine = EngineKind::DbbFast;
        /**
         * Simulation threads: 0 = one lane per hardware thread
         * (the default, matching AcceleratorConfig), 1 = serial,
         * N > 1 = a dedicated pool. Also enables intra-GEMM
         * tile-stripe sharding when != 1.
         */
        int threads = 0;
        /** Share encoded plans across design points. */
        bool plan_cache = true;
        /** Plan-cache LRU entry capacity (0 = unbounded). */
        size_t cache_entries = 0;
        /** Plan-cache resident-byte budget (0 = unbounded). */
        int64_t cache_bytes = 0;
        /** Spill-tier byte budget for evicted plans in compact
         *  form (0 = tier disabled). */
        int64_t spill_bytes = 0;
        /** Operand density validation (benches trust their
         *  generators; tests turn it on). */
        bool validate = true;
    };

    explicit SweepContext(Options o)
        : opts(std::move(o)),
          cache(opts.cache_entries, opts.cache_bytes,
                opts.spill_bytes)
    {}

    // Defined after the class: Options' member initializers are
    // not usable as a default argument inside it.
    SweepContext();

    const Options &options() const { return opts; }
    PlanCache &planCache() { return cache; }

    /** GEMM-level RunOptions matching this context's knobs. */
    RunOptions
    runOptions(bool compute_output = false)
    {
        RunOptions ro;
        ro.compute_output = compute_output;
        ro.validate_operands = opts.validate;
        ro.engine = opts.engine;
        if (opts.plan_cache)
            ro.plan_cache = &cache;
        ro.shard_pool = shardPool();
        return ro;
    }

    /** Evaluate one array config on a GEMM (16nm by default). */
    DesignPoint
    evalGemm(const ArrayConfig &cfg, const GemmProblem &p,
             const TechParams &tech = TechParams::tsmc16(),
             int64_t extra_dap_comparisons = 0)
    {
        GemmRun run = model(cfg).run(p, runOptions());
        run.events.dap_comparisons += extra_dap_comparisons;

        DesignPoint dp;
        dp.name = archKindName(cfg.kind);
        dp.events = run.events;
        dp.energy = energyModel(cfg, tech).energy(run.events);
        dp.energy_pj = dp.energy.totalPj();
        dp.cycles = run.events.cycles;
        return dp;
    }

    /** Network-level RunOptions matching this context's knobs. */
    NetworkRunOptions
    networkRunOptions(bool compute_output = false)
    {
        NetworkRunOptions nro;
        static_cast<RunOptions &>(nro) =
            runOptions(compute_output);
        return nro;
    }

    /** Evaluate one array config on a whole model workload. */
    ModelPoint
    evalModel(const ArrayConfig &cfg, const ModelWorkload &mw,
              const TechParams &tech = TechParams::tsmc16())
    {
        const NetworkRun nr = accelerator(cfg).runNetwork(
            mw.layers, networkRunOptions());

        ModelPoint mp;
        mp.name = cfg.name();
        mp.events = nr.total;
        mp.energy_uj = energyModel(cfg, tech).energy(nr.total)
                           .totalUj();
        mp.cycles = nr.total.cycles;
        return mp;
    }

    /** Hoisted cycle model for @p cfg (built on first use). */
    ArrayModel &
    model(const ArrayConfig &cfg)
    {
        for (auto &e : models)
            if (e.first == cfg)
                return *e.second;
        models.emplace_back(cfg, makeArrayModel(cfg));
        return *models.back().second;
    }

    /** Hoisted energy model for (@p cfg, @p tech). */
    EnergyModel &
    energyModel(const ArrayConfig &cfg, const TechParams &tech)
    {
        for (auto &e : emodels)
            if (e.tech_name == tech.name && e.cfg == cfg)
                return *e.em;
        AcceleratorConfig acfg;
        acfg.array = cfg;
        emodels.push_back(
            {tech.name, cfg,
             std::make_unique<EnergyModel>(tech, acfg)});
        return *emodels.back().em;
    }

    /** Hoisted full-system accelerator for @p cfg. */
    Accelerator &
    accelerator(const ArrayConfig &cfg)
    {
        for (auto &e : accels)
            if (e.first == cfg)
                return *e.second;
        AcceleratorConfig acfg;
        acfg.array = cfg;
        acfg.sim_threads = opts.threads;
        accels.emplace_back(
            cfg, std::make_unique<Accelerator>(acfg));
        return *accels.back().second;
    }

  private:
    ThreadPool *
    shardPool()
    {
        if (opts.threads == 1)
            return nullptr;
        if (opts.threads == 0)
            return &ThreadPool::global();
        // Dedicated pool, spawned lazily: evalModel goes through
        // hoisted Accelerators (which bring their own pools), so
        // only direct evalGemm sharding needs this one.
        if (!own_pool)
            own_pool =
                std::make_unique<ThreadPool>(opts.threads - 1);
        return own_pool.get();
    }

    struct EnergyEntry
    {
        std::string tech_name;
        ArrayConfig cfg;
        std::unique_ptr<EnergyModel> em;
    };

    Options opts;
    PlanCache cache;
    std::unique_ptr<ThreadPool> own_pool;
    std::vector<std::pair<ArrayConfig, std::unique_ptr<ArrayModel>>>
        models;
    std::vector<EnergyEntry> emodels;
    std::vector<std::pair<ArrayConfig, std::unique_ptr<Accelerator>>>
        accels;
};

inline SweepContext::SweepContext() : SweepContext(Options{}) {}

// ---- shared CLI flags ------------------------------------------------

/**
 * The full shared flag set, for error messages: every rejection
 * names the offending flag *and* this list — with the accepted
 * value set spelled out for every enum-valued flag — so a user
 * never has to read the source to learn what a binary accepts.
 */
inline const char *
benchFlagList()
{
    return "--engine scalar|fast, --threads N, --json PATH, "
           "--no-plan-cache, --smoke, "
           "--model lenet5|alexnet|vgg16|mobilenetv1|resnet50, "
           "--arch s2ta-w|s2ta-aw, --reps N, --cache-mb N, "
           "--spill-mb N, --replicas N, "
           "--placement hash|least-loaded, "
           "--trace-out PATH, "
           "--simd auto|scalar|avx512";
}

/**
 * SIMD dispatch tiers usable on this host, for --simd error
 * messages: every x86-64 build compiles both tiers, so this is the
 * CPU's feature set ("avx512" needs AVX-512 BW plus VNNI or
 * VPOPCNTDQ silicon); a non-x86 build offers only "auto|scalar".
 */
inline std::string
benchSupportedSimdTiers()
{
    return dbbAvx512KernelSupportedImpl() ? "auto|scalar|avx512"
                                          : "auto|scalar";
}

/**
 * The kernel tier the dispatcher actually resolves to after --simd
 * (and host probing): the value every bench records as
 * "simd_kernel" in its JSON artifact so a stored number can never
 * be mistaken for one measured under a different tier.
 */
inline const char *
benchSimdKernel()
{
    return dbbKernelKindName(dbbActiveKernel());
}

/** Options common to every bench binary. */
struct BenchArgs
{
    SweepContext::Options ctx;
    /** Artifact path; empty = no JSON emitted. */
    std::string json;
    /** Reduced CI-sized run for benches that support it. */
    bool smoke = false;
    /** Model override for benches that take one (empty = default). */
    std::string model;
    /** Architecture override for benches that take one. */
    std::string arch;
    /** Timing repetitions (best-of). */
    int reps = 1;
    /** Plan-cache resident-byte budget in MB. Given explicitly,
     *  0 disables the plan cache outright; left at the default,
     *  benches substitute their own budget (check cache_mb_given).
     *  Serving benches bound their shared cache with it; sweep
     *  benches feed it into ctx.cache_bytes. */
    int cache_mb = 0;
    /** Spill-tier budget in MB for evicted plans in compact form
     *  (0 = tier off): bounded caches degrade to rehydration
     *  instead of LRU-thrashing to full re-encodes. */
    int spill_mb = 0;
    /** Fleet size for the fleet-serving bench (each replica is one
     *  virtual accelerator with its own PlanCache). */
    int replicas = 4;
    /** Fleet placement policy ("hash" | "least-loaded"), validated
     *  against serve::placementByName's accepted set. */
    std::string placement = "least-loaded";
    /** Chrome trace-event JSON output path (empty = tracing stays
     *  disabled). Given, the global Tracer records for the whole
     *  run and the trace is written at process exit — any bench
     *  emits a trace with no code changes (docs/OBSERVABILITY.md). */
    std::string trace_out;
    /** Forced SIMD dispatch tier ("auto" = widest the host has).
     *  Parsing already applied it via dbbForceKernelCap, so every
     *  bench inherits the pin with no code of its own; benches
     *  record the resolved tier with benchSimdKernel(). */
    std::string simd = "auto";
    // Whether the knob was given explicitly: benches whose
    // experiment pins a knob (e.g. the engine-comparison bench
    // runs both engines by definition) must reject an explicit
    // flag instead of silently ignoring it.
    bool engine_given = false;
    bool threads_given = false;
    bool plan_cache_given = false;
    bool reps_given = false;
    bool cache_mb_given = false;
    bool replicas_given = false;
    bool placement_given = false;
    bool simd_given = false;

    /**
     * Fatal unless flag @p name was left at its default. The error
     * names the offending flag, the reason this experiment pins it,
     * and the shared flag set the binary otherwise accepts.
     */
    void
    rejectFlag(bool given, const char *name,
               const char *why) const
    {
        if (given) {
            s2ta_fatal("flag %s is not applicable to this binary: "
                       "%s (the shared bench flag set is: %s; this "
                       "binary accepts the subset it does not "
                       "reject)",
                       name, why, benchFlagList());
        }
    }
};

namespace detail {

/** atexit state for --trace-out (atexit handlers cannot capture,
 *  so the path lives in a static). */
inline std::string &
obsTracePath()
{
    static std::string path;
    return path;
}

inline void
writeTraceAtExit()
{
    if (obsTracePath().empty())
        return;
    obs::Tracer::global().writeChromeTrace(obsTracePath());
    std::printf("wrote %s\n", obsTracePath().c_str());
}

} // namespace detail

/**
 * Arm --trace-out: enable the global Tracer when a trace was
 * requested and register one atexit writer that dumps the Chrome
 * trace when the bench exits (including s2ta_fatal exits — a
 * partial trace of a failed run is exactly what you want to look
 * at). parseBenchArgs calls this, so every bench built on it
 * supports the flag automatically.
 */
inline void
installTraceOutput(const BenchArgs &a)
{
    detail::obsTracePath() = a.trace_out;
    if (a.trace_out.empty())
        return;
    obs::Tracer::global().setEnabled(true);
    static bool registered = false;
    if (!registered) {
        registered = true;
        std::atexit(detail::writeTraceAtExit);
    }
}

/**
 * Parse the shared flags (see benchFlagList for the set and the
 * accepted values). Fatal on anything unrecognized — flag or enum
 * value, each error naming the accepted value set — so a typo
 * cannot silently run the wrong experiment.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                s2ta_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--engine") {
            const std::string v = value();
            if (v == "scalar")
                a.ctx.engine = EngineKind::Scalar;
            else if (v == "fast" || v == "dbb-fast")
                a.ctx.engine = EngineKind::DbbFast;
            else
                s2ta_fatal("unknown engine '%s' (scalar|fast)",
                           v.c_str());
            a.engine_given = true;
        } else if (arg == "--threads") {
            a.ctx.threads = std::atoi(value().c_str());
            if (a.ctx.threads < 0)
                s2ta_fatal("--threads must be >= 0");
            a.threads_given = true;
        } else if (arg == "--json") {
            a.json = value();
        } else if (arg == "--no-plan-cache") {
            a.ctx.plan_cache = false;
            a.plan_cache_given = true;
        } else if (arg == "--smoke") {
            a.smoke = true;
        } else if (arg == "--model") {
            // Accepted names are validated (with the value set in
            // the error) by modelByName when the bench resolves it.
            a.model = value();
        } else if (arg == "--arch") {
            a.arch = value();
            if (a.arch != "s2ta-w" && a.arch != "s2ta-aw") {
                s2ta_fatal("unknown arch '%s' (accepted values: "
                           "s2ta-w|s2ta-aw)", a.arch.c_str());
            }
        } else if (arg == "--reps") {
            a.reps = std::atoi(value().c_str());
            if (a.reps < 1)
                s2ta_fatal("--reps must be >= 1");
            a.reps_given = true;
        } else if (arg == "--cache-mb") {
            a.cache_mb = std::atoi(value().c_str());
            if (a.cache_mb < 0) {
                s2ta_fatal("--cache-mb must be >= 0 (accepted "
                           "values: 0 = plan cache disabled, N >= 1 "
                           "= N MiB resident budget)");
            }
            // 0 means *disabled*, not unbounded: an explicit zero
            // budget turns the cache off everywhere it is wired.
            if (a.cache_mb == 0)
                a.ctx.plan_cache = false;
            a.ctx.cache_bytes =
                static_cast<int64_t>(a.cache_mb) << 20;
            a.cache_mb_given = true;
        } else if (arg == "--spill-mb") {
            a.spill_mb = std::atoi(value().c_str());
            if (a.spill_mb < 0) {
                s2ta_fatal("--spill-mb must be >= 0 (accepted "
                           "values: 0 = spill tier off, N >= 1 = "
                           "N MiB compact-form budget)");
            }
            a.ctx.spill_bytes =
                static_cast<int64_t>(a.spill_mb) << 20;
        } else if (arg == "--replicas") {
            a.replicas = std::atoi(value().c_str());
            if (a.replicas < 1)
                s2ta_fatal("--replicas must be >= 1");
            a.replicas_given = true;
        } else if (arg == "--placement") {
            a.placement = value();
            if (a.placement != "hash" &&
                a.placement != "least-loaded") {
                s2ta_fatal("unknown placement '%s' (accepted "
                           "values: hash|least-loaded)",
                           a.placement.c_str());
            }
            a.placement_given = true;
        } else if (arg == "--simd") {
            a.simd = value();
            DbbKernelKind cap = DbbKernelKind::Avx512;
            bool supported = true;
            if (a.simd == "auto") {
                cap = DbbKernelKind::Avx512; // uncapped dispatch
            } else if (a.simd == "scalar") {
                cap = DbbKernelKind::Scalar;
            } else if (a.simd == "avx512") {
                cap = DbbKernelKind::Avx512;
                supported = dbbAvx512KernelSupportedImpl();
            } else {
                s2ta_fatal("unknown simd tier '%s' (accepted "
                           "values: auto|scalar|avx512; "
                           "this host/build supports: %s)",
                           a.simd.c_str(),
                           benchSupportedSimdTiers().c_str());
            }
            if (!supported) {
                s2ta_fatal("simd tier '%s' is not usable on this "
                           "host/build (supported here: %s) — a "
                           "forced tier must fail loudly rather "
                           "than silently time a different kernel",
                           a.simd.c_str(),
                           benchSupportedSimdTiers().c_str());
            }
            dbbForceKernelCap(cap);
            a.simd_given = true;
        } else if (arg == "--trace-out") {
            a.trace_out = value();
            if (a.trace_out.empty())
                s2ta_fatal("--trace-out needs a path");
        } else {
            s2ta_fatal("unknown argument '%s' (accepted flags: %s)",
                       arg.c_str(), benchFlagList());
        }
    }
    installTraceOutput(a);
    return a;
}

/**
 * The budgeted PlanCache a serving-style bench builds straight from
 * its flags — the non-SweepContext twin of that class's wiring, so
 * the four gated benches cannot drift apart in how they stand the
 * cache up. @p default_cache_mb applies when --cache-mb was not
 * given (0 = unbounded).
 */
struct BenchCache
{
    BenchCache(const BenchArgs &args, int default_cache_mb)
        : disabled(args.cache_mb_given && args.cache_mb == 0),
          cache(0,
                static_cast<int64_t>(args.cache_mb_given
                                         ? args.cache_mb
                                         : default_cache_mb)
                    << 20,
                static_cast<int64_t>(args.spill_mb) << 20)
    {}

    /** The cache to wire into RunOptions::plan_cache — null when
     *  --cache-mb 0 asked for no plan cache at all. */
    PlanCache *
    cachePtr()
    {
        return disabled ? nullptr : &cache;
    }

    bool disabled;
    PlanCache cache;
};

/** Monotonic wall-clock seconds for bench timing. */
inline double
benchNow()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * Shared bitwise-equivalence gate for engine/cache/shard checks:
 * per-layer functional outputs (when computed), per-layer events,
 * and the network totals must all match exactly.
 */
inline bool
bitwiseEqualRuns(const NetworkRun &a, const NetworkRun &b)
{
    if (a.layers.size() != b.layers.size())
        return false;
    if (!(a.total == b.total) || a.dense_macs != b.dense_macs)
        return false;
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const Int32Tensor &x = a.layers[i].output;
        const Int32Tensor &y = b.layers[i].output;
        if (x.size() != y.size())
            return false;
        if (x.size() > 0 &&
            std::memcmp(x.data(), y.data(),
                        static_cast<size_t>(x.size()) *
                            sizeof(int32_t)) != 0)
            return false;
        if (!(a.layers[i].events == b.layers[i].events))
            return false;
    }
    return true;
}

// Zoo-model lookup by CLI name lives in nn/model_zoo.hh
// (s2ta::modelByName); the serving registry shares it.

// ---- JSON artifacts --------------------------------------------------

/**
 * Minimal ordered JSON-object writer for bench artifacts. Strings
 * are emitted verbatim (keys and values in this repo are plain
 * identifiers; no escaping needed).
 */
class JsonWriter
{
  public:
    JsonWriter &
    field(const std::string &key, double v, int digits = 6)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
        return raw(key, buf);
    }

    JsonWriter &
    field(const std::string &key, int64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonWriter &
    field(const std::string &key, int v)
    {
        return raw(key, std::to_string(v));
    }

    JsonWriter &
    field(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    JsonWriter &
    field(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    JsonWriter &
    field(const std::string &key, const char *v)
    {
        return field(key, std::string(v));
    }

    std::string
    str() const
    {
        return "{\n" + body + "\n}\n";
    }

    /** Write to @p path and echo to stdout; fatal on I/O error. */
    void
    write(const std::string &path) const
    {
        const std::string s = str();
        std::printf("\n%s", s.c_str());
        if (path.empty())
            return;
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            s2ta_fatal("cannot write '%s'", path.c_str());
        std::fputs(s.c_str(), f);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    JsonWriter &
    raw(const std::string &key, const std::string &v)
    {
        if (!body.empty())
            body += ",\n";
        body += "  \"" + key + "\": " + v;
        return *this;
    }

    std::string body;
};

// ---- canonical workloads ---------------------------------------------

/**
 * Process-wide context behind the free evalGemm / evalModel
 * helpers: every design point evaluated by a bench shares hoisted
 * array/energy models and one plan cache instead of reconstructing
 * everything per point (the pre-PR behavior). A small LRU is
 * enough: benches evaluate a handful of design points per workload
 * back to back, so the cap bounds memory while every same-operand
 * re-evaluation still hits.
 */
namespace detail {

inline std::unique_ptr<SweepContext> &
defaultContextSlot()
{
    static std::unique_ptr<SweepContext> ctx;
    return ctx;
}

} // namespace detail

inline SweepContext &
defaultContext()
{
    auto &slot = detail::defaultContextSlot();
    if (!slot) {
        SweepContext::Options o;
        o.cache_bytes = 1ll << 30; // bound bench memory, not reuse
        slot = std::make_unique<SweepContext>(o);
    }
    return *slot;
}

/**
 * Point the free helpers at a context built from the CLI flags
 * (engine / threads / plan-cache knobs). Call once at the top of a
 * bench main, before the first evaluation.
 */
inline void
configureDefaultContext(SweepContext::Options o)
{
    if (o.cache_entries == 0 && o.cache_bytes == 0)
        o.cache_bytes = 1ll << 30;
    detail::defaultContextSlot() = std::make_unique<SweepContext>(o);
}

/** Evaluate one array config on a GEMM with the 16nm energy model
 *  (sweep-amortized via defaultContext()). */
inline DesignPoint
evalGemm(const ArrayConfig &cfg, const GemmProblem &p,
         const TechParams &tech = TechParams::tsmc16(),
         int64_t extra_dap_comparisons = 0)
{
    return defaultContext().evalGemm(cfg, p, tech,
                                     extra_dap_comparisons);
}

/** Evaluate one array config on a whole model workload
 *  (sweep-amortized via defaultContext()). */
inline ModelPoint
evalModel(const ArrayConfig &cfg, const ModelWorkload &mw,
          const TechParams &tech = TechParams::tsmc16())
{
    return defaultContext().evalModel(cfg, mw, tech);
}

/**
 * The "typical convolution" GEMM used throughout Sec. 8.2: a
 * mid-network 3x3 layer lowered to 512 x 1152 x 256.
 */
inline GemmProblem
typicalConvGemm(double wgt_sparsity, double act_sparsity,
                uint64_t seed = 0xBE7C4)
{
    Rng rng(seed);
    return makeUnstructuredGemm(512, 1152, 256, wgt_sparsity,
                                act_sparsity, rng);
}

/** Same geometry with exact DBB-structured operands. */
inline GemmProblem
typicalConvDbbGemm(int wgt_nnz, int act_nnz, uint64_t seed = 0xBE7C4)
{
    Rng rng(seed);
    return makeDbbGemm(512, 1152, 256, wgt_nnz, act_nnz, rng);
}

/** Print the standard benchmark banner. */
inline void
banner(const char *artifact, const char *what)
{
    std::printf("\n=================================================="
                "====================\n");
    std::printf("S2TA reproduction | %s\n%s\n", artifact, what);
    std::printf("===================================================="
                "==================\n\n");
}

} // namespace bench
} // namespace s2ta

#endif // S2TA_BENCH_BENCH_UTIL_HH
