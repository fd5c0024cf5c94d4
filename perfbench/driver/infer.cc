/**
 * @file
 * `infer`: functional ResNet-50 and MobileNetV1 at batch 1 on
 * S2TA-AW A4/8, no plan cache, the fast engine, one pass = both
 * networks through Accelerator::runNetwork. An operation is a GEMM
 * (one per layer group).
 */

#include <algorithm>

#include "common.hh"
#include "core/dap.hh"
#include "energy/energy_model.hh"
#include "tensor/conv.hh"
#include "workload/model_workloads.hh"

namespace perfbench {
namespace {

using namespace s2ta;

/** Scalar-oracle sample per model for seeds without a golden digest:
 *  this many layers, drawn among those below kSampleMaxMacs. */
constexpr size_t kSampleLayers = 2;
constexpr int64_t kSampleMaxMacs = 60'000'000;

/** The part of a layer result the traced replay recomputes: outputs
 *  and the GEMM events, before the DMA/MCU latency bound is applied
 *  (the replay calls the GEMM-level stages, not runLayer). */
uint64_t
replayDigest(const Int32Tensor &out, EventCounts ev)
{
    ev.dma_bytes = 0;
    return Digest()
        .u64(int32Digest(out.data(), static_cast<size_t>(out.size())))
        .events(ev)
        .value();
}

/** The array config prepareLayer programs for @p wl: grouped layers
 *  tighten both DBB bounds to the im2col segment width. */
ArrayConfig
layerConfig(ArrayConfig acfg, const LayerWorkload &wl)
{
    const int seg_bound =
        std::min(acfg.bz, std::max(1, wl.shape.groupInC()));
    if (acfg.kind == ArchKind::S2taAw)
        acfg.act_nnz = std::min(wl.act_nnz, seg_bound);
    if (acfg.kind == ArchKind::S2taAw || acfg.kind == ArchKind::S2taW)
        acfg.weight_dbb = DbbSpec{std::min(wl.wgt_nnz, seg_bound), acfg.bz};
    return acfg;
}

class Infer : public Workload
{
  public:
    void
    setup(uint64_t seed, int lanes, StageLog *log) override
    {
        Rng rng(seed);
        for (const ModelSpec &spec : {resNet50(), mobileNetV1()}) {
            const auto build = [&] { return buildModelWorkload(spec, rng); };
            models.push_back(log ? log->setup("workload.build", build)
                                 : build());
        }
        AcceleratorConfig cfg;
        cfg.array = ArrayConfig::s2taAw(4);
        cfg.sim_threads = lanes;
        acc = std::make_unique<Accelerator>(cfg);
        energy = std::make_unique<EnergyModel>(TechParams::tsmc16(), cfg);
        opt.compute_output = true;
        opt.validate_operands = false;
    }

    void
    pass() override
    {
        runs.clear();
        pjs.clear();
        for (const ModelWorkload &mw : models) {
            runs.push_back(acc->runNetwork(mw.layers, opt));
            pjs.push_back(energy->energy(runs.back().total).totalPj());
        }
    }

    PassResult
    result() const override
    {
        PassResult r;
        for (size_t mi = 0; mi < runs.size(); ++mi) {
            const NetworkRun &nr = runs[mi];
            for (size_t i = 0; i < nr.layers.size(); ++i) {
                const LayerRun &lr = nr.layers[i];
                Unit u;
                u.ops = models[mi].layers[i].shape.groups;
                u.digest = layerDigest(lr);
                EventCounts ev = lr.events;
                ev.cycles = lr.compute_cycles;
                u.replay_digest = replayDigest(lr.output, ev);
                r.push_back(u);
            }
            r.push_back(totalUnit(nr.total, pjs[mi]));
        }
        return r;
    }

    PassResult
    tracedPass(StageLog &log) override
    {
        PassResult r;
        RunOptions ev_opt;
        ev_opt.compute_output = false;
        ev_opt.validate_operands = false;
        int64_t id = 0;
        for (size_t mi = 0; mi < models.size(); ++mi) {
            const ModelWorkload &mw = models[mi];
            EventCounts total;
            for (const LayerWorkload &wl : mw.layers) {
                log.scope("infer.layer", id, [&] {
                    const EventCounts ev = tracedLayer(log, wl, ev_opt,
                                                       id, r);
                    total.add(ev);
                });
                ++id;
            }
            log.stage("energy.energy", id,
                      [&] { return energy->energy(total); });
            // The replay's totals lack the DMA/MCU bound, so the
            // per-model unit is compared on the layers alone.
            r.push_back(totalUnit(total, 0.0));
        }
        return r;
    }

    int64_t
    scalarCheck(bool full, uint64_t seed, int64_t *checked) override
    {
        AcceleratorConfig cfg = acc->config();
        cfg.sim_threads = 1;
        const Accelerator ref(cfg);
        NetworkRunOptions so = opt;
        so.engine = EngineKind::Scalar;
        int64_t bad = 0;
        for (size_t mi = 0; mi < models.size(); ++mi) {
            const std::vector<LayerWorkload> &layers = models[mi].layers;
            std::vector<size_t> cand;
            for (size_t li = 0; li < layers.size(); ++li) {
                if (full || layers[li].shape.denseMacs() *
                                    layers[li].batch <=
                                kSampleMaxMacs)
                    cand.push_back(li);
            }
            for (size_t p : sampleIndices(cand.size(),
                                          full ? cand.size() : kSampleLayers,
                                          mixSeed(seed, mi))) {
                const size_t li = cand[p];
                const int64_t ops = layers[li].shape.groups;
                *checked += ops;
                if (!sameLayerRun(ref.runLayer(layers[li], so),
                                  runs[mi].layers[li]))
                    bad += ops;
            }
        }
        return bad;
    }

  private:
    /** Per-model unit: the totals and energy. Carries no operations
     *  of its own; its replay digest is fixed (see tracedPass). */
    static Unit
    totalUnit(const EventCounts &total, double pj)
    {
        Unit u;
        u.ops = 0;
        u.digest = Digest().events(total).f64(pj).value();
        u.replay_digest = 0;
        return u;
    }

    /** One layer, stage by stage, in the order prepareLayer and
     *  executePrepared run them. Returns the layer's GEMM events. */
    EventCounts
    tracedLayer(StageLog &log, const LayerWorkload &wl,
                const RunOptions &ev_opt, int64_t id, PassResult &r)
    {
        log.beginRow({wl.name, 0, 0, 0, wl.shape.groups, "-", {}});
        const auto model = log.stage("arch.model", id, [&] {
            return makeArrayModel(layerConfig(acc->config().array, wl));
        });
        const ArrayConfig &acfg = model->config();
        const std::vector<GemmProblem> problems =
            log.stage("tensor.lower", id, [&] {
                return im2colLowerAll(wl.shape, wl.input, wl.weights,
                                      acfg.bz, wl.batch);
            });
        log.count("tensor.lower_calls", 1);
        log.rowDims(problems.front().m, problems.front().k,
                    problems.front().n);

        std::vector<int> out_shape = {wl.shape.outH(), wl.shape.outW(),
                                      wl.shape.out_c};
        if (wl.batch > 1)
            out_shape.insert(out_shape.begin(), wl.batch);
        Int32Tensor out(out_shape, 0);
        EventCounts ev;
        for (int g = 0; g < wl.shape.groups; ++g) {
            const GemmProblem &p = problems[static_cast<size_t>(g)];
            const GemmPlan plan = log.stage("arch.plan_build", id, [&] {
                return GemmPlan::build(p, acfg.bz, true);
            });
            log.count("arch.plan_builds", 1);
            log.count("arch.plan_bytes",
                      static_cast<double>(planBytes(plan)));
            log.replay("arch.profile", id, [&] {
                return OperandProfile::fromDbb(p, plan.act(), plan.wgt());
            });
            ev.add(log.stage("arch.events", id, [&] {
                          return model->run(plan, ev_opt);
                      }).events);
            std::vector<int32_t> gout(static_cast<size_t>(p.m) * p.n);
            const bool dense = plan.wgtDenseT() != nullptr;
            log.stage(dense ? "arch.kernel_dense" : "arch.kernel_intersect",
                      id, [&] { dbbGemm(plan, gout.data(), nullptr); });
            log.count(dense ? "arch.kernel_dense_gemms"
                            : "arch.kernel_intersect_gemms",
                      1);
            log.rowPath(dense ? "dense" : "intersect");
            log.stage("tensor.scatter", id, [&] {
                scatterGemmResult(wl.shape, g, gout, out, wl.batch);
            });
        }
        if (acfg.kind == ArchKind::S2taAw && wl.act_nnz < acfg.bz) {
            const DapStats ds = log.stage("core.dap", id, [&] {
                Int8Tensor copy = wl.input;
                return dapPruneTensor(copy, wl.act_nnz);
            });
            ev.dap_comparisons = ds.comparisons;
            log.count("core.dap_comparisons",
                      static_cast<double>(ds.comparisons));
        }
        log.check("digest", id, [&] {
            Unit u;
            u.ops = wl.shape.groups;
            u.replay_digest = replayDigest(out, ev);
            r.push_back(u);
        });
        return ev;
    }

    std::vector<ModelWorkload> models;
    std::unique_ptr<Accelerator> acc;
    std::unique_ptr<EnergyModel> energy;
    NetworkRunOptions opt;
    /** The last pass: runs and energy per network. */
    std::vector<NetworkRun> runs;
    std::vector<double> pjs;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeInfer()
{
    return std::make_unique<Infer>();
}

} // namespace perfbench
