/**
 * @file
 * Benchmark driver: runs one workload in this process and prints
 * host facts, metric lines and a result line on stdout.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --golden-file PATH [--out DIR]
 *   perfbench_driver --make-golden NAME   (seed 0, full scalar oracle)
 *   perfbench_driver --selftest
 *
 * --trace 0 measures end to end: kSetupReps times, a set-up
 * (generation, contexts and the first pass) followed by timed passes
 * for S / kSetupReps seconds. --trace 1 runs a traced serial pass
 * between two untraced ones and reports the per-stage split. Every pass is checked against the
 * first one, and the first one against the oracle: the committed
 * golden digest at seed 0, else the scalar engine on a sample drawn
 * from the seed. perfbench/run.py builds this binary, runs it and
 * turns its lines into the benchmark's JSON result.
 *
 * Output lines (the library's warnings go to stderr, never here):
 *   host <key> <value>
 *   metric <name> <value> <unit>
 *   layer <label> m=.. k=.. n=.. groups=.. path=.. <stage>=<s> ...
 *   check <what> ok|FAIL ...
 *   result correct=<0|1> attempted=<n> failed=<n>
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "arch/gemm_kernels.hh"
#include "common.hh"
#include "workload/model_workloads.hh"

using namespace perfbench;
using namespace s2ta;

namespace {

/** Set-up repetitions per measured run (setup_s is their median). */
constexpr int kSetupReps = 3;

/** The traced run's stage sum must land within this share of the
 *  untraced serial pass. One traced pass is compared with two
 *  untraced ones, on hosts where a memory-bound pass varies by about
 *  this much from one pass to the next. */
constexpr double kReconcileTolerance = 0.15;

struct WorkloadDef
{
    const char *name;
    std::unique_ptr<Workload> (*make)();
    /** Generation seed of --seed 0, the seed the golden digests are
     *  committed for (each is the seed the repository's own bench
     *  of that workload uses). */
    uint64_t canonical_seed;
};

const WorkloadDef kWorkloads[] = {
    {"infer", makeInfer, 0xE16},
    {"sparse-gemm", makeSparseGemm, 0xBE7C4},
    {"sweep", makeSweep, 0xF11},
    {"serve", makeServe, 0x5E47E},
};

/** A per-layer metric and where the ledger keeps it. */
struct LayerMetricDef
{
    const char *name;
    const char *unit;
    /** Ledger name: timed seconds when `timed`, else a counter. */
    const char *key;
    bool timed;
};

const LayerMetricDef kLayerMetrics[] = {
    {"tensor.lower_s", "s", "tensor.lower", true},
    {"tensor.lower_calls", "count", "tensor.lower_calls", false},
    {"tensor.scatter_s", "s", "tensor.scatter", true},
    {"arch.model_s", "s", "arch.model", true},
    {"arch.plan_build_s", "s", "arch.plan_build", true},
    {"arch.plan_builds", "count", "arch.plan_builds", false},
    {"arch.profile_s", "s", "arch.profile", true},
    {"arch.plan_bytes", "B", "arch.plan_bytes", false},
    {"arch.kernel_dense_s", "s", "arch.kernel_dense", true},
    {"arch.kernel_dense_gemms", "count", "arch.kernel_dense_gemms", false},
    {"arch.kernel_intersect_s", "s", "arch.kernel_intersect", true},
    {"arch.kernel_intersect_gemms", "count", "arch.kernel_intersect_gemms",
     false},
    {"arch.events_s", "s", "arch.events", true},
    {"arch.events_smt_s", "s", "arch.events_smt", true},
    {"arch.prepare_s", "s", "arch.prepare", true},
    {"arch.execute_s", "s", "arch.execute", true},
    {"arch.cache_hits", "count", "arch.cache_hits", false},
    {"arch.cache_spill_hits", "count", "arch.cache_spill_hits", false},
    {"arch.cache_misses", "count", "arch.cache_misses", false},
    {"arch.cache_evictions", "count", "arch.cache_evictions", false},
    {"arch.cache_resident_bytes", "B", "arch.cache_resident_bytes", false},
    {"arch.cache_spill_bytes", "B", "arch.cache_spill_bytes", false},
    {"core.dap_s", "s", "core.dap", true},
    {"core.dap_comparisons", "count", "core.dap_comparisons", false},
    {"energy.energy_s", "s", "energy.energy", true},
    {"serve.drain_s", "s", "serve.drain", false},
    {"serve.schedule_s", "s", "serve.schedule", true},
    {"workload.build_s", "s", "workload.build", true},
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload infer|sparse-gemm|sweep|serve --seed N "
                 "--seconds S --trace 0|1 --golden-file PATH [--out DIR]\n"
                 "       perfbench_driver --make-golden NAME\n"
                 "       perfbench_driver --selftest\n",
                 msg);
    std::exit(2);
}

const WorkloadDef &
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads)
        if (name == w.name)
            return w;
    usage(("unknown workload '" + name + "'").c_str());
}

uint64_t
generationSeed(const WorkloadDef &w, uint64_t seed)
{
    return seed == 0 ? w.canonical_seed : mixSeed(w.canonical_seed, seed);
}

void
printMetric(const Metric &m)
{
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** How a SIMD tier stands on this host and build. */
const char *
tierState(bool built, bool usable)
{
    return usable ? "usable" : built ? "cpu-lacks-it" : "not-built";
}

void
printHostFacts(const WorkloadDef &w, int lanes)
{
    const bool v2 = std::strcmp(PERFBENCH_X86_64_V2, "ON") == 0;
    const bool v4 = std::strcmp(PERFBENCH_X86_64_V4, "ON") == 0;
    std::printf("host nproc %u\n", std::thread::hardware_concurrency());
    std::printf("host kernel_tier %s\n",
                dbbKernelKindName(dbbActiveKernel()));
    std::printf("host tier_ssse3 %s\n",
                tierState(v2, dbbSimdKernelSupportedImpl()));
    std::printf("host tier_avx2 %s\n",
                tierState(v2, dbbAvx2KernelSupportedImpl()));
    std::printf("host tier_avx512 %s\n",
                tierState(v4, dbbAvx512KernelSupportedImpl()));
    std::printf("host vnni_dense %d\n", dbbVnniDenseEnabled() ? 1 : 0);
    std::printf("host profile_simd %d\n", dbbProfileSimdEnabled() ? 1 : 0);
    std::printf("host build_type %s\n", PERFBENCH_BUILD_TYPE);
    std::printf("host S2TA_ENABLE_X86_64_V2 %s\n", PERFBENCH_X86_64_V2);
    std::printf("host S2TA_ENABLE_X86_64_V4 %s\n", PERFBENCH_X86_64_V4);
    std::printf("host S2TA_OBS %s\n", PERFBENCH_OBS);
    std::printf("host compiler %s\n", PERFBENCH_COMPILER);
    std::printf("host workload %s\n", w.name);
    std::printf("host lanes %d\n", lanes);
}

/** Committed digest of a workload's seed-0 pass. */
struct Golden
{
    int64_t ops = -1;
    uint64_t digest = 0;
};

Golden
loadGolden(const std::string &path, const std::string &name)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench_driver: cannot read %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string w, digest;
        int64_t ops = 0;
        if (line.empty() || line[0] == '#' || !(ls >> w >> ops >> digest))
            continue;
        if (w == name)
            return {ops, std::stoull(digest, nullptr, 16)};
    }
    std::fprintf(stderr, "perfbench_driver: no golden digest for %s in %s\n",
                 name.c_str(), path.c_str());
    std::exit(1);
}

/**
 * Check the reference pass against the oracle. @return true when it
 * holds; prints one check line either way.
 */
bool
checkReference(Workload &wl, const WorkloadDef &w, uint64_t seed,
               const PassResult &ref, const std::string &golden_path)
{
    if (seed == 0) {
        const Golden g = loadGolden(golden_path, w.name);
        const bool ok = g.ops == opsIn(ref) && g.digest == combinedDigest(ref);
        std::printf("check golden %s ops=%lld digest=%016llx expected=%016llx\n",
                    ok ? "ok" : "FAIL", static_cast<long long>(opsIn(ref)),
                    static_cast<unsigned long long>(combinedDigest(ref)),
                    static_cast<unsigned long long>(g.digest));
        return ok;
    }
    int64_t checked = 0;
    const int64_t bad = wl.scalarCheck(false, mixSeed(seed, 0x0AC1E), &checked);
    std::printf("check scalar_sample %s checked_ops=%lld mismatched_ops=%lld\n",
                bad == 0 ? "ok" : "FAIL", static_cast<long long>(checked),
                static_cast<long long>(bad));
    return bad == 0 && checked > 0;
}

/** Count a pass's operations; all of them fail when the reference
 *  itself failed the oracle. */
void
tally(const PassResult &ref, const PassResult &got, bool ref_ok,
      bool replay, int64_t *attempted, int64_t *failed)
{
    *attempted += opsIn(got);
    *failed += ref_ok ? failedOps(ref, got, replay) : opsIn(got);
}

void
printResult(int64_t attempted, int64_t failed)
{
    std::printf("result correct=%d attempted=%lld failed=%lld\n",
                failed == 0 ? 1 : 0, static_cast<long long>(attempted),
                static_cast<long long>(failed));
}

int
measure(const WorkloadDef &w, uint64_t seed, double seconds,
        const std::string &golden_path)
{
    const int lanes = defaultLanes();
    printHostFacts(w, lanes);
    const uint64_t gen_seed = generationSeed(w, seed);

    // Each set-up is followed by its share of the timed passes, so the
    // passes are spread over the whole run rather than its last
    // seconds: on a shared host, memory-bound code runs through
    // slower and faster phases lasting seconds to minutes.
    std::unique_ptr<Workload> wl;
    std::vector<double> setups, passes;
    PassResult ref;
    bool ref_ok = true;
    int64_t attempted = 0, failed = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        wl.reset(); // free the previous set-up before the next
        const double t0 = nowS();
        wl = w.make();
        wl->setup(gen_seed, lanes, nullptr);
        wl->pass();
        setups.push_back(nowS() - t0);
        if (rep == 0) {
            ref = wl->result();
        } else {
            // A set-up from the same seed must give the same first pass.
            tally(ref, wl->result(), ref_ok, false, &attempted, &failed);
        }
        for (int i = 0; i < wl->warmPasses(); ++i) {
            wl->pass();
            tally(ref, wl->result(), ref_ok, false, &attempted, &failed);
        }
        if (rep == 0) {
            ref_ok = checkReference(*wl, w, seed, ref, golden_path);
            if (!ref_ok)
                failed = attempted;
        }

        const double start = nowS();
        const double share = seconds / kSetupReps;
        do {
            const double p0 = nowS();
            wl->pass();
            passes.push_back(nowS() - p0);
            tally(ref, wl->result(), ref_ok, false, &attempted, &failed);
        } while (nowS() - start < share);
    }

    std::printf("host setup_reps %d\n", kSetupReps);
    std::printf("host pass_times");
    for (double s : passes)
        std::printf(" %.4f", s);
    std::printf("\n");
    std::printf("host ops_per_pass %lld\n",
                static_cast<long long>(opsIn(ref)));
    for (const Metric &m : wl->extraMetrics())
        printMetric(m);
    printMetric({"pass_s", median(passes), "s"});
    printMetric({"setup_s", median(setups), "s"});
    printMetric({"peak_rss_mb", peakRssMb(), "MB"});
    printMetric({"error_rate",
                 static_cast<double>(failed) /
                     static_cast<double>(std::max<int64_t>(attempted, 1)),
                 "ratio"});
    printMetric({"passes", static_cast<double>(passes.size()), "count"});
    printMetric({"pass_min_s", *std::min_element(passes.begin(), passes.end()),
                 "s"});
    printMetric({"pass_max_s", *std::max_element(passes.begin(), passes.end()),
                 "s"});
    printResult(attempted, failed);
    return failed == 0 ? 0 : 1;
}

void
printTable(const StageLog &log)
{
    for (const TableRow &row : log.table()) {
        std::printf("layer %s m=%d k=%d n=%d groups=%d path=%s",
                    row.label.c_str(), row.m, row.k, row.n, row.groups,
                    row.path.c_str());
        double sum = 0.0;
        for (const auto &[stage, s] : row.seconds) {
            std::printf(" %s=%.6e", stage.c_str(), s);
            sum += s;
        }
        std::printf(" total=%.6e\n", sum);
    }
}

void
writeOutputs(StageLog &log, const WorkloadDef &w, const std::string &dir)
{
    if (dir.empty())
        return;
    const std::string base = dir + "/" + w.name;
    log.tracer().writeChromeTrace(base + ".trace.json");
    std::ofstream tsv(base + ".layers.tsv");
    tsv << "label\tm\tk\tn\tgroups\tpath\tstage\tseconds\n";
    for (const TableRow &row : log.table())
        for (const auto &[stage, s] : row.seconds)
            tsv << row.label << '\t' << row.m << '\t' << row.k << '\t'
                << row.n << '\t' << row.groups << '\t' << row.path << '\t'
                << stage << '\t' << s << '\n';
    std::printf("host trace_file %s.trace.json\n", base.c_str());
    std::printf("host table_file %s.layers.tsv\n", base.c_str());
}

int
traced(const WorkloadDef &w, uint64_t seed, const std::string &golden_path,
       const std::string &out_dir)
{
    printHostFacts(w, 1);
    StageLog log;
    const std::unique_ptr<Workload> wl = w.make();
    wl->setup(generationSeed(w, seed), 1, &log);
    wl->pass();
    const PassResult ref = wl->result();
    int64_t attempted = 0, failed = 0;
    for (int i = 0; i < wl->warmPasses(); ++i) {
        wl->pass();
        tally(ref, wl->result(), true, false, &attempted, &failed);
    }
    const bool ref_ok = checkReference(*wl, w, seed, ref, golden_path);
    if (!ref_ok)
        failed = attempted;

    // The untraced reference is the mean of the serial passes just
    // before and just after the traced one, so a host slowing down or
    // speeding up during the run does not bias the comparison.
    const auto untracedPass = [&] {
        const double t0 = nowS();
        wl->pass();
        const double s = nowS() - t0;
        tally(ref, wl->result(), ref_ok, false, &attempted, &failed);
        return s;
    };
    double untraced = untracedPass();
    wl->extraLayerMetrics(log);

    const double excluded0 = log.excludedSum();
    const double t0 = nowS();
    const PassResult traced_r = wl->tracedPass(log);
    const double traced_s = nowS() - t0 - (log.excludedSum() - excluded0);
    untraced = 0.5 * (untraced + untracedPass());
    const int64_t replay_failed =
        ref_ok ? failedOps(ref, traced_r, true) : opsIn(traced_r);
    std::printf("check replay_matches_pass %s mismatched_ops=%lld\n",
                replay_failed == 0 ? "ok" : "FAIL",
                static_cast<long long>(replay_failed));
    attempted += opsIn(traced_r);
    failed += replay_failed;

    printTable(log);
    writeOutputs(log, w, out_dir);

    for (const LayerMetricDef &d : kLayerMetrics) {
        printMetric({d.name, d.timed ? log.seconds(d.key) : log.counter(d.key),
                     d.unit});
    }
    const double lookups = log.counter("arch.cache_hits") +
                           log.counter("arch.cache_spill_hits") +
                           log.counter("arch.cache_misses");
    const double reconcile = log.stageSum() / untraced - 1.0;
    printMetric({"arch.cache_hit_rate",
                 lookups > 0 ? log.counter("arch.cache_hits") / lookups : 0.0,
                 "ratio"});
    printMetric({"obs.trace_overhead_frac", traced_s / untraced - 1.0,
                 "ratio"});
    printMetric({"obs.stage_reconcile_frac", reconcile, "ratio"});
    printMetric({"obs.untraced_pass_s", untraced, "s"});
    printMetric({"obs.traced_pass_s", traced_s, "s"});
    printMetric({"obs.stage_sum_s", log.stageSum(), "s"});
    std::printf("check stage_reconcile %s frac=%.4f tolerance=%.2f\n",
                std::abs(reconcile) <= kReconcileTolerance ? "ok"
                                                           : "over-tolerance",
                reconcile, kReconcileTolerance);
    printResult(attempted, failed);
    return failed == 0 ? 0 : 1;
}

int
makeGolden(const WorkloadDef &w)
{
    const std::unique_ptr<Workload> wl = w.make();
    wl->setup(w.canonical_seed, defaultLanes(), nullptr);
    wl->pass();
    const PassResult ref = wl->result();
    int64_t checked = 0;
    const int64_t bad = wl->scalarCheck(true, 0, &checked);
    std::printf("# scalar oracle: checked_ops=%lld mismatched_ops=%lld\n",
                static_cast<long long>(checked), static_cast<long long>(bad));
    for (const Metric &m : wl->extraMetrics())
        std::printf("# %s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s %lld %016llx\n", w.name,
                static_cast<long long>(opsIn(ref)),
                static_cast<unsigned long long>(combinedDigest(ref)));
    return bad == 0 ? 0 : 1;
}

/** The oracle's own tests, on LeNet-5 (milliseconds). */
int
selfTest()
{
    int failures = 0;
    const auto check = [&](bool ok, const char *what) {
        std::printf("check selftest_%s %s\n", what, ok ? "ok" : "FAIL");
        failures += ok ? 0 : 1;
    };
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::s2taAw(4);
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    NetworkRunOptions fast;
    fast.compute_output = true;
    fast.validate_operands = false;
    NetworkRunOptions scalar = fast;
    scalar.engine = EngineKind::Scalar;
    const auto run = [&](uint64_t seed, const NetworkRunOptions &o) {
        Rng rng(seed);
        return acc.runNetwork(buildModelWorkload(leNet5(), rng).layers, o);
    };
    const auto units = [](const NetworkRun &nr) {
        PassResult r;
        for (const LayerRun &lr : nr.layers) {
            Unit u;
            u.digest = layerDigest(lr);
            r.push_back(u);
        }
        return r;
    };

    const NetworkRun a = run(1, fast);
    const PassResult ref = units(a);
    check(combinedDigest(ref) != combinedDigest(units(run(2, fast))),
          "seeds_differ");

    bool scalar_agrees = true;
    const NetworkRun s = run(1, scalar);
    for (size_t i = 0; i < a.layers.size(); ++i)
        scalar_agrees = scalar_agrees && sameLayerRun(a.layers[i], s.layers[i]);
    check(scalar_agrees && failedOps(ref, units(s)) == 0, "scalar_agrees");

    NetworkRun flipped = a;
    flipped.layers.back().output.data()[0] ^= 1;
    check(!sameLayerRun(flipped.layers.back(), a.layers.back()) &&
              failedOps(ref, units(flipped)) > 0,
          "rejects_flipped_output_bit");

    NetworkRun bumped = a;
    bumped.layers.front().events.macs_executed += 1;
    check(!sameLayerRun(bumped.layers.front(), a.layers.front()) &&
              failedOps(ref, units(bumped)) > 0,
          "rejects_changed_event_count");

    std::printf("result correct=%d attempted=4 failed=%d\n",
                failures == 0 ? 1 : 0, failures);
    return failures == 0 ? 0 : 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload, golden_path, out_dir, make_golden;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            workload = value();
        else if (arg == "--seed")
            seed = std::stoull(value());
        else if (arg == "--seconds")
            seconds = std::stod(value());
        else if (arg == "--trace")
            trace = std::stoi(value());
        else if (arg == "--golden-file")
            golden_path = value();
        else if (arg == "--out")
            out_dir = value();
        else if (arg == "--make-golden")
            make_golden = value();
        else if (arg == "--selftest")
            selftest = true;
        else
            usage(("unknown argument '" + arg + "'").c_str());
    }
    if (selftest)
        return selfTest();
    if (!make_golden.empty())
        return makeGolden(findWorkload(make_golden));
    if (workload.empty() || golden_path.empty())
        usage("--workload and --golden-file are required");
    if (trace != 0 && trace != 1)
        usage("--trace takes 0 or 1");
    const WorkloadDef &w = findWorkload(workload);
    return trace ? traced(w, seed, golden_path, out_dir)
                 : measure(w, seed, seconds, golden_path);
}
