/**
 * @file
 * Shared pieces of the benchmark driver: seeds, digests, the
 * per-stage ledger the traced run records into, and the workload
 * interface each of the four workloads implements.
 *
 * The driver only calls the simulator's public functions. Host time
 * is read with std::chrono::steady_clock, around those calls.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "arch/accelerator.hh"
#include "arch/gemm_plan.hh"
#include "arch/plan_cache.hh"
#include "obs/trace.hh"

namespace perfbench {

/** Monotonic seconds. */
double nowS();

/** Lanes of the parallel workloads: min(4, hardware threads). */
int defaultLanes();

/** splitmix64 of (a, b): derives item seeds from a workload seed. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/** FNV-1a 64-bit digest, fed field by field. */
class Digest
{
  public:
    Digest &bytes(const void *data, size_t len);
    Digest &u64(uint64_t v) { return bytes(&v, sizeof(v)); }
    Digest &i64(int64_t v) { return bytes(&v, sizeof(v)); }
    /** Exact bit pattern of a double. */
    Digest &f64(double v);
    /** Every EventCounts field, in declaration order. */
    Digest &events(const s2ta::EventCounts &e);
    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ull;
};

/** Content hash (PlanCache::hashBytes) of an INT32 buffer. */
uint64_t int32Digest(const int32_t *data, size_t n);

/** A layer result: its functional output and its events. */
uint64_t layerDigest(const s2ta::LayerRun &lr);

/**
 * One checked group of operations of a pass: a layer, a GEMM point,
 * a design point or a request. `digest` covers everything the pass
 * produced for it; `replay_digest` covers what the traced replay
 * recomputes (the same value unless a workload says otherwise).
 */
struct Unit
{
    uint64_t digest = 0;
    uint64_t replay_digest = 0;
    /** Operations (GEMMs, design points or requests) it carries. */
    int64_t ops = 1;
    /** True when the operation itself failed (e.g. a shed request),
     *  whatever its digest. */
    bool failed = false;
};

using PassResult = std::vector<Unit>;

int64_t opsIn(const PassResult &r);

/** One digest over every unit digest, in order. */
uint64_t combinedDigest(const PassResult &r);

/**
 * Operations of @p got that fail: failed units, plus units whose
 * digest (or replay digest when @p replay) differs from @p ref. A
 * result with a different unit count fails entirely.
 */
int64_t failedOps(const PassResult &ref, const PassResult &got,
                  bool replay = false);

/** Operand, block-array and dense-mirror bytes a plan holds. */
int64_t planBytes(const s2ta::GemmPlan &plan);

/** Exact equality of two layer results (outputs and events). */
bool sameLayerRun(const s2ta::LayerRun &a, const s2ta::LayerRun &b);

/** @p n distinct indices in [0, size) drawn from @p seed, ascending
 *  (all of them when n >= size). */
std::vector<size_t> sampleIndices(size_t size, size_t n, uint64_t seed);

/** One row of the per-layer table. */
struct TableRow
{
    std::string label;
    int m = 0, k = 0, n = 0, groups = 1;
    /** "dense", "intersect", "mixed" or "-" (no kernel ran). */
    std::string path = "-";
    /** Seconds per stage name. */
    std::map<std::string, double> seconds;
};

/**
 * The traced run's ledger. Every timed call lands in the trace as
 * one span and in the per-name totals:
 *
 *  - stage(): a step of the pass itself; the stage sum is what
 *    reconciles with the untraced serial pass;
 *  - replay(): a call re-run only to time a part of a stage that
 *    happens inside the library (a profile inside a plan build, a
 *    lowering inside a cache acquire). Its time is excluded from
 *    the stage sum and from the traced pass time;
 *  - check(): digesting a result for the oracle, excluded like a
 *    replay;
 *  - setup(): workload generation, outside any pass;
 *  - scope(): a parent span grouping one unit's stages.
 */
class StageLog
{
  public:
    StageLog() : trace(size_t{1} << 18) { trace.setEnabled(true); }

    template <typename Fn>
    decltype(auto)
    stage(const char *name, int64_t id, Fn &&fn)
    {
        return timed(Kind::Stage, name, id, fn);
    }

    template <typename Fn>
    decltype(auto)
    replay(const char *name, int64_t id, Fn &&fn)
    {
        return timed(Kind::Replay, name, id, fn);
    }

    template <typename Fn>
    decltype(auto)
    check(const char *name, int64_t id, Fn &&fn)
    {
        return timed(Kind::Check, name, id, fn);
    }

    template <typename Fn>
    decltype(auto)
    setup(const char *name, Fn &&fn)
    {
        return timed(Kind::Setup, name, 0, fn);
    }

    template <typename Fn>
    decltype(auto)
    scope(const char *name, int64_t id, Fn &&fn)
    {
        return timed(Kind::Scope, name, id, fn);
    }

    /** Accumulate a counter (calls, bytes, comparisons, ...). */
    void count(const std::string &name, double v) { counts[name] += v; }

    /** Seconds accumulated under @p name (0 when never timed). */
    double seconds(const std::string &name) const;
    /** Counter value (0 when never counted). */
    double counter(const std::string &name) const;
    /** Sum of every stage() span. */
    double stageSum() const { return stage_sum; }
    /** Sum of every replay() and check() span: time inside a
     *  traced pass that the untraced pass does not spend. */
    double excludedSum() const { return excluded_sum; }

    /** Start a per-layer table row; later stages add to it. */
    void beginRow(TableRow row) { rows.push_back(std::move(row)); }
    /** Set the current row's GEMM shape (known after lowering). */
    void rowDims(int m, int k, int n);
    /** Record which kernel path the current row's GEMMs took. */
    void rowPath(const char *path);
    const std::vector<TableRow> &table() const { return rows; }

    s2ta::obs::Tracer &tracer() { return trace; }

  private:
    enum class Kind
    {
        Stage,
        Replay,
        Check,
        Setup,
        Scope,
    };

    template <typename Fn>
    decltype(auto)
    timed(Kind kind, const char *name, int64_t id, Fn &fn)
    {
        const int64_t t0 = trace.nowNs();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record(kind, name, id, t0);
        } else {
            decltype(auto) r = fn();
            record(kind, name, id, t0);
            return r;
        }
    }

    void record(Kind kind, const char *name, int64_t id, int64_t t0);

    s2ta::obs::Tracer trace;
    std::map<std::string, double> secs;
    std::map<std::string, double> counts;
    std::vector<TableRow> rows;
    double stage_sum = 0.0;
    double excluded_sum = 0.0;
};

/**
 * Traced prepare/execute of one layer through a plan cache, as
 * Accelerator::runLayer does it. The acquire is classified by the
 * PlanCache::stats() delta around prepareLayer; a layer that missed
 * has its lowering, plan builds and profiles replayed, a layer whose
 * DAP memo missed has its pruning replayed, and every layer has its
 * GEMM event models replayed, so those parts are timed too.
 */
s2ta::LayerRun tracedCachedLayer(StageLog &log,
                                 const s2ta::Accelerator &acc,
                                 s2ta::PlanCache &cache,
                                 const s2ta::LayerWorkload &wl,
                                 const s2ta::NetworkRunOptions &opt,
                                 int64_t id);

/** Record the plan-cache counters of a traced pass (stats delta). */
void countCacheStats(StageLog &log, const s2ta::PlanCache &cache,
                     const s2ta::PlanCache::Stats &before);

/** A named value with its unit, printed as one metric line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * One benchmark workload. The driver owns the protocol (set-up
 * repetitions, the timed pass loop, the oracle, the traced run);
 * a workload supplies the pieces.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs from @p seed and construct the contexts, on
     *  @p lanes simulation lanes. Generation calls are timed into
     *  @p log as workload.build when one is given. */
    virtual void setup(uint64_t seed, int lanes, StageLog *log) = 0;

    /** One full pass over the inputs; keeps its results. */
    virtual void pass() = 0;

    /** Digests of the last pass (computed outside its timing). */
    virtual PassResult result() const = 0;

    /** The same pass, serial, replayed stage by stage into @p log;
     *  digests are computed under log.check(). */
    virtual PassResult tracedPass(StageLog &log) = 0;

    /** Untimed passes after set-up before the cache is steady. */
    virtual int warmPasses() const { return 0; }

    /**
     * Compare the last pass against the scalar engine: every
     * operation when @p full, else a sample drawn from @p seed.
     * @return operations that mismatched; @p checked gets the
     *         operations compared.
     */
    virtual int64_t scalarCheck(bool full, uint64_t seed,
                                int64_t *checked) = 0;

    /** Extra end-to-end metrics of the last pass (e.g. the sweep's
     *  distance from the paper). */
    virtual std::vector<Metric> extraMetrics() const { return {}; }

    /** Per-layer metrics only this workload's pass can read (e.g.
     *  the untraced drain time). */
    virtual void extraLayerMetrics(StageLog &) const {}
};

std::unique_ptr<Workload> makeInfer();
std::unique_ptr<Workload> makeSparseGemm();
std::unique_ptr<Workload> makeSweep();
std::unique_ptr<Workload> makeServe();

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
