#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "arch/plan_cache.hh"
#include "core/dap.hh"
#include "tensor/conv.hh"

namespace perfbench {

using namespace s2ta;

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int
defaultLanes()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

Digest &
Digest::bytes(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return *this;
}

Digest &
Digest::f64(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
}

Digest &
Digest::events(const EventCounts &e)
{
    for (int64_t v :
         {e.cycles, e.logical_macs, e.macs_executed, e.macs_zero,
          e.macs_gated, e.operand_reg_bytes, e.operand_reg_gated_bytes,
          e.accum_updates, e.accum_gated, e.fifo_pushes, e.fifo_pops,
          e.mux_selects, e.wgt_sram_bytes, e.act_sram_read_bytes,
          e.act_sram_write_bytes, e.dap_comparisons, e.actfn_elements,
          e.dma_bytes})
        i64(v);
    return *this;
}

uint64_t
int32Digest(const int32_t *data, size_t n)
{
    return PlanCache::hashBytes(data, n * sizeof(int32_t));
}

uint64_t
layerDigest(const LayerRun &lr)
{
    return Digest()
        .u64(int32Digest(lr.output.data(),
                         static_cast<size_t>(lr.output.size())))
        .events(lr.events)
        .value();
}

int64_t
opsIn(const PassResult &r)
{
    int64_t ops = 0;
    for (const Unit &u : r)
        ops += u.ops;
    return ops;
}

uint64_t
combinedDigest(const PassResult &r)
{
    Digest d;
    for (const Unit &u : r)
        d.u64(u.digest);
    return d.value();
}

int64_t
failedOps(const PassResult &ref, const PassResult &got, bool replay)
{
    if (ref.size() != got.size())
        return std::max(opsIn(ref), opsIn(got));
    int64_t failed = 0;
    for (size_t i = 0; i < got.size(); ++i) {
        const bool same = replay ? ref[i].replay_digest ==
                                       got[i].replay_digest
                                 : ref[i].digest == got[i].digest;
        if (got[i].failed || !same)
            failed += got[i].ops;
    }
    return failed;
}

int64_t
planBytes(const GemmPlan &plan)
{
    const GemmProblem &p = plan.problem();
    int64_t bytes = static_cast<int64_t>(p.a.size() + p.w.size());
    if (!plan.encoded())
        return bytes;
    for (const DbbMatrix *m : {&plan.act(), &plan.wgt()}) {
        bytes += static_cast<int64_t>(m->vectors()) *
                 m->blocksPerVector() *
                 static_cast<int64_t>(sizeof(DbbBlock));
    }
    if (plan.wgtDenseT() != nullptr)
        bytes += static_cast<int64_t>(p.k) * p.n;
    return bytes;
}

bool
sameLayerRun(const LayerRun &a, const LayerRun &b)
{
    if (!(a.events == b.events) || a.output.size() != b.output.size())
        return false;
    return a.output.size() == 0 ||
           std::memcmp(a.output.data(), b.output.data(),
                       static_cast<size_t>(a.output.size()) *
                           sizeof(int32_t)) == 0;
}

std::vector<size_t>
sampleIndices(size_t size, size_t n, uint64_t seed)
{
    std::vector<size_t> all(size);
    for (size_t i = 0; i < size; ++i)
        all[i] = i;
    if (n >= size)
        return all;
    // Partial Fisher-Yates with splitmix64 draws.
    for (size_t i = 0; i < n; ++i) {
        seed = mixSeed(seed, i);
        std::swap(all[i], all[i + seed % (size - i)]);
    }
    all.resize(n);
    std::sort(all.begin(), all.end());
    return all;
}

double
StageLog::seconds(const std::string &name) const
{
    const auto it = secs.find(name);
    return it == secs.end() ? 0.0 : it->second;
}

double
StageLog::counter(const std::string &name) const
{
    const auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
}

void
StageLog::rowDims(int m, int k, int n)
{
    if (rows.empty())
        return;
    rows.back().m = m;
    rows.back().k = k;
    rows.back().n = n;
}

void
StageLog::rowPath(const char *path)
{
    if (rows.empty())
        return;
    std::string &cur = rows.back().path;
    if (cur == "-")
        cur = path;
    else if (cur != path)
        cur = "mixed";
}

void
StageLog::record(Kind kind, const char *name, int64_t id, int64_t t0)
{
    static const char *const kCategory[] = {"stage", "replay", "check",
                                            "setup", "scope"};
    const int64_t dur = trace.nowNs() - t0;
    trace.completeEvent(kCategory[static_cast<int>(kind)], name, t0,
                        dur, id);
    if (kind == Kind::Scope)
        return;
    const double s = static_cast<double>(dur) * 1e-9;
    secs[name] += s;
    if (kind == Kind::Stage) {
        stage_sum += s;
        if (!rows.empty())
            rows.back().seconds[name] += s;
    } else if (kind == Kind::Replay || kind == Kind::Check) {
        excluded_sum += s;
    }
}

void
countCacheStats(StageLog &log, const PlanCache &cache,
                const PlanCache::Stats &before)
{
    const PlanCache::Stats now = cache.stats();
    log.count("arch.cache_evictions", static_cast<double>(
                                          now.evictions -
                                          before.evictions));
    log.count("arch.cache_resident_bytes",
              static_cast<double>(now.resident_bytes));
    log.count("arch.cache_spill_bytes",
              static_cast<double>(now.spill_bytes));
}

LayerRun
tracedCachedLayer(StageLog &log, const Accelerator &acc,
                  PlanCache &cache, const LayerWorkload &wl,
                  const NetworkRunOptions &opt, int64_t id)
{
    const PlanCache::Stats s0 = cache.stats();
    const PreparedLayer prep = log.stage(
        "arch.prepare", id, [&] { return acc.prepareLayer(wl, opt); });
    const PlanCache::Stats s1 = cache.stats();
    const int64_t hits = s1.hits - s0.hits;
    const int64_t spill_hits = s1.spill_hits - s0.spill_hits;
    const int64_t misses = s1.misses - s0.misses;
    log.count("arch.cache_hits", static_cast<double>(hits));
    log.count("arch.cache_spill_hits", static_cast<double>(spill_hits));
    log.count("arch.cache_misses", static_cast<double>(misses));

    const ArrayConfig &acfg = prep.acfg;
    const bool dbb = acfg.kind == ArchKind::S2taW ||
                     acfg.kind == ArchKind::S2taAw;
    if (misses > 0) {
        // The acquire lowered and encoded inside the cache; replay
        // both from outside so they are timed on their own.
        const std::vector<GemmProblem> problems =
            log.replay("tensor.lower", id, [&] {
                return im2colLowerAll(wl.shape, wl.input, wl.weights,
                                      dbb ? acfg.bz : 1, wl.batch);
            });
        log.count("tensor.lower_calls", 1);
        for (const GemmProblem &p : problems) {
            const GemmPlan plan = log.replay("arch.plan_build", id, [&] {
                return GemmPlan::build(p, acfg.bz, opt.compute_output);
            });
            log.replay("arch.profile", id, [&] {
                return OperandProfile::fromDbb(p, plan.act(), plan.wgt());
            });
            log.count("arch.plan_builds", 1);
        }
    }
    if (misses + spill_hits > 0) {
        for (const auto &entry : prep.cached)
            log.count("arch.plan_bytes",
                      static_cast<double>(planBytes(entry->plan)));
    }

    const LayerRun lr = log.stage("arch.execute", id, [&] {
        return acc.executePrepared(prep, opt);
    });
    const PlanCache::Stats s2 = cache.stats();
    if (s2.dap_misses > s1.dap_misses) {
        // The DAP memo missed: the pruning ran inside execute.
        const DapStats ds = log.replay("core.dap", id, [&] {
            Int8Tensor copy = wl.input;
            return dapPruneTensor(copy, wl.act_nnz);
        });
        log.count("core.dap_comparisons",
                  static_cast<double>(ds.comparisons));
    }
    // The event models ran inside execute too; replay them alone.
    RunOptions ev_opt;
    ev_opt.compute_output = false;
    ev_opt.validate_operands = false;
    ev_opt.engine = opt.engine;
    const bool smt = acfg.kind == ArchKind::SaSmt;
    for (const auto &entry : prep.cached) {
        log.replay(smt ? "arch.events_smt" : "arch.events", id,
                   [&] { return prep.model->run(entry->plan, ev_opt); });
    }
    return lr;
}

} // namespace perfbench
