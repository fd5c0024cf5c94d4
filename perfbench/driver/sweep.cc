/**
 * @file
 * `sweep`: the events-only Fig. 11 design-space study. The four
 * benchmark networks (benchmarkModels(): ResNet-50, VGG-16,
 * MobileNetV1, AlexNet, generated from one seeded Rng) against
 * SA-ZVCG, SA, SA-SMT T2Q2, S2TA-W and S2TA-AW A4/8, with one fresh
 * unbounded PlanCache per pass and the 16nm energy model. An
 * operation is one (network, design) point.
 */

#include <cmath>

#include "arch/plan_cache.hh"
#include "common.hh"
#include "energy/energy_model.hh"
#include "workload/model_workloads.hh"

namespace perfbench {
namespace {

using namespace s2ta;

/** Fig. 11 headline: S2TA-AW over SA-ZVCG, geomean of the four
 *  networks. */
constexpr double kPaperSpeedup = 2.11;
constexpr double kPaperEnergy = 2.08;

/** Scalar-oracle sample for seeds without a golden digest. */
constexpr size_t kSampleLayers = 48;

struct Design
{
    const char *name;
    ArrayConfig cfg;
};

std::vector<Design>
designs()
{
    // SA-ZVCG first: every ratio is normalized to it.
    return {{"SA-ZVCG", ArrayConfig::saZvcg()},
            {"SA", ArrayConfig::sa()},
            {"SA-SMT", ArrayConfig::saSmt(2)},
            {"S2TA-W", ArrayConfig::s2taW()},
            {"S2TA-AW", ArrayConfig::s2taAw(4)}};
}

class Sweep : public Workload
{
  public:
    void
    setup(uint64_t seed, int lanes, StageLog *log) override
    {
        Rng rng(seed);
        for (const ModelSpec &spec : benchmarkModels()) {
            const auto build = [&] { return buildModelWorkload(spec, rng); };
            models.push_back(log ? log->setup("workload.build", build)
                                 : build());
        }
        for (const Design &d : designs()) {
            AcceleratorConfig cfg;
            cfg.array = d.cfg;
            cfg.sim_threads = lanes;
            accs.push_back(std::make_unique<Accelerator>(cfg));
            energies.push_back(std::make_unique<EnergyModel>(
                TechParams::tsmc16(), cfg));
        }
        opt.validate_operands = false;
    }

    void
    pass() override
    {
        PlanCache cache;
        NetworkRunOptions o = opt;
        o.plan_cache = &cache;
        runs.clear();
        energy_uj.clear();
        for (const ModelWorkload &mw : models) {
            for (size_t d = 0; d < accs.size(); ++d) {
                runs.push_back(accs[d]->runNetwork(mw.layers, o));
                energy_uj.push_back(
                    energies[d]->energy(runs.back().total).totalUj());
            }
        }
    }

    PassResult
    result() const override
    {
        PassResult r;
        for (size_t p = 0; p < runs.size(); ++p)
            r.push_back(pointUnit(runs[p], energy_uj[p]));
        return r;
    }

    PassResult
    tracedPass(StageLog &log) override
    {
        PlanCache cache;
        NetworkRunOptions o = opt;
        o.plan_cache = &cache;
        const PlanCache::Stats before = cache.stats();
        PassResult r;
        int64_t layer_id = 0;
        for (const ModelWorkload &mw : models) {
            for (size_t d = 0; d < accs.size(); ++d) {
                const int64_t point = static_cast<int64_t>(r.size());
                log.scope("sweep.point", point, [&] {
                    NetworkRun nr;
                    for (const LayerWorkload &wl : mw.layers) {
                        nr.add(tracedCachedLayer(log, *accs[d], cache, wl,
                                                 o, layer_id++));
                    }
                    const double uj = log.stage("energy.energy", point, [&] {
                        return energies[d]->energy(nr.total).totalUj();
                    });
                    log.check("digest", point,
                              [&] { r.push_back(pointUnit(nr, uj)); });
                });
            }
        }
        countCacheStats(log, cache, before);
        return r;
    }

    int64_t
    scalarCheck(bool full, uint64_t seed, int64_t *checked) override
    {
        // Every (network, design, layer) triple; a sample of them
        // unless full. A point fails when any checked layer differs.
        struct Triple
        {
            size_t point, layer;
        };
        std::vector<Triple> all;
        for (size_t p = 0; p < runs.size(); ++p)
            for (size_t l = 0; l < runs[p].layers.size(); ++l)
                all.push_back({p, l});
        const std::vector<size_t> picks =
            sampleIndices(all.size(), full ? all.size() : kSampleLayers,
                          seed);
        NetworkRunOptions so = opt;
        so.engine = EngineKind::Scalar;
        std::vector<std::unique_ptr<Accelerator>> serial;
        for (const auto &a : accs) {
            AcceleratorConfig cfg = a->config();
            cfg.sim_threads = 1;
            serial.push_back(std::make_unique<Accelerator>(cfg));
        }
        std::vector<char> seen(runs.size(), 0), bad(runs.size(), 0);
        for (size_t i : picks) {
            const Triple t = all[i];
            const size_t mi = t.point / accs.size();
            const size_t d = t.point % accs.size();
            const LayerRun ref =
                serial[d]->runLayer(models[mi].layers[t.layer], so);
            seen[t.point] = 1;
            if (!sameLayerRun(ref, runs[t.point].layers[t.layer]))
                bad[t.point] = 1;
        }
        int64_t mismatched = 0;
        for (size_t p = 0; p < runs.size(); ++p) {
            *checked += seen[p];
            mismatched += bad[p];
        }
        return mismatched;
    }

    std::vector<Metric>
    extraMetrics() const override
    {
        // Geomean over the networks of S2TA-AW relative to SA-ZVCG
        // (design 0); the last design is S2TA-AW.
        const size_t nd = accs.size();
        const size_t nm = models.size();
        double log_speed = 0.0, log_energy = 0.0;
        for (size_t m = 0; m < nm; ++m) {
            const size_t base = m * nd, aw = m * nd + nd - 1;
            log_speed += std::log(static_cast<double>(runs[base].total.cycles) /
                                  static_cast<double>(runs[aw].total.cycles));
            log_energy += std::log(energy_uj[base] / energy_uj[aw]);
        }
        const double speedup = std::exp(log_speed / static_cast<double>(nm));
        const double energy = std::exp(log_energy / static_cast<double>(nm));
        return {
            {"s2ta_aw_speedup", speedup, "x"},
            {"s2ta_aw_energy_reduction", energy, "x"},
            {"paper_speedup_err",
             std::fabs(speedup - kPaperSpeedup) / kPaperSpeedup, "ratio"},
            {"paper_energy_err",
             std::fabs(energy - kPaperEnergy) / kPaperEnergy, "ratio"},
        };
    }

  private:
    /** A design point: every layer's events, the totals, the energy. */
    static Unit
    pointUnit(const NetworkRun &nr, double uj)
    {
        Digest dg;
        for (const LayerRun &lr : nr.layers)
            dg.events(lr.events);
        Unit u;
        u.digest = u.replay_digest = dg.events(nr.total).f64(uj).value();
        return u;
    }

    std::vector<ModelWorkload> models;
    std::vector<std::unique_ptr<Accelerator>> accs;
    std::vector<std::unique_ptr<EnergyModel>> energies;
    NetworkRunOptions opt;
    /** The last pass, point-major (network, then design). */
    std::vector<NetworkRun> runs;
    std::vector<double> energy_uj;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSweep()
{
    return std::make_unique<Sweep>();
}

} // namespace perfbench
