/**
 * @file
 * `sparse-gemm`: the paper's typical convolution GEMM (512 x 1152 x
 * 256, Sec. 8.2) with DBB-structured operands at W, A in {1, 2, 4}/8
 * on S2TA-AW. One pass = for every point, a cold GemmPlan::build
 * plus the functional run (events and dbbGemm), row stripes sharded
 * over the lanes. Below W*A = 4 the mask-intersection kernel does the
 * work, above it the dense mirror. An operation is one point's GEMM.
 *
 * Points with W*A = 4 are left out: their expected matched products
 * per block pair is exactly dbbGemm's dense/intersect switch (0.5),
 * so the seed, not the code, would pick the kernel and the pass time
 * would swing by the difference between the two.
 */

#include "base/thread_pool.hh"
#include "common.hh"
#include "energy/energy_model.hh"
#include "workload/sparse_gen.hh"

namespace perfbench {
namespace {

using namespace s2ta;

constexpr int kM = 512;
constexpr int kK = 1152;
constexpr int kN = 256;
constexpr int kDensities[] = {1, 2, 4};

/** Scalar-oracle sample for seeds without a golden digest. */
constexpr size_t kSamplePoints = 2;

struct Point
{
    int wgt_nnz = 0;
    int act_nnz = 0;
    GemmProblem problem;
    std::unique_ptr<ArrayModel> model;
    std::unique_ptr<EnergyModel> energy;
};

uint64_t
resultDigest(const GemmRun &run, double pj)
{
    return Digest()
        .u64(int32Digest(run.output.data(), run.output.size()))
        .events(run.events)
        .f64(pj)
        .value();
}

class SparseGemm : public Workload
{
  public:
    void
    setup(uint64_t seed, int lanes, StageLog *log) override
    {
        for (int w : kDensities) {
            for (int a : kDensities) {
                if (w * a == 4)
                    continue;
                Point pt;
                pt.wgt_nnz = w;
                pt.act_nnz = a;
                Rng rng(mixSeed(seed, static_cast<uint64_t>(w * 8 + a)));
                const auto gen = [&] {
                    return makeDbbGemm(kM, kK, kN, w, a, rng);
                };
                pt.problem = log ? log->setup("workload.build", gen) : gen();
                AcceleratorConfig cfg;
                cfg.array = ArrayConfig::s2taAw(a);
                cfg.array.weight_dbb = DbbSpec{w, cfg.array.bz};
                pt.model = makeArrayModel(cfg.array);
                pt.energy = std::make_unique<EnergyModel>(
                    TechParams::tsmc16(), cfg);
                points.push_back(std::move(pt));
            }
        }
        if (lanes > 1)
            pool = std::make_unique<ThreadPool>(lanes - 1);
    }

    void
    pass() override
    {
        RunOptions ro;
        ro.compute_output = true;
        ro.validate_operands = false;
        ro.shard_pool = pool.get();
        runs.clear();
        pjs.clear();
        for (const Point &pt : points) {
            const GemmPlan plan = GemmPlan::build(pt.problem, 8, true);
            runs.push_back(pt.model->run(plan, ro));
            pjs.push_back(pt.energy->energy(runs.back().events).totalPj());
        }
    }

    PassResult
    result() const override
    {
        PassResult r(runs.size());
        for (size_t i = 0; i < runs.size(); ++i)
            r[i].digest = r[i].replay_digest = resultDigest(runs[i], pjs[i]);
        return r;
    }

    PassResult
    tracedPass(StageLog &log) override
    {
        RunOptions ev_opt;
        ev_opt.compute_output = false;
        ev_opt.validate_operands = false;
        PassResult r;
        for (size_t i = 0; i < points.size(); ++i) {
            const Point &pt = points[i];
            const int64_t id = static_cast<int64_t>(i);
            log.beginRow({"W" + std::to_string(pt.wgt_nnz) + "/8_A" +
                              std::to_string(pt.act_nnz) + "/8",
                          kM, kK, kN, 1, "-", {}});
            log.scope("sparse_gemm.point", id, [&] {
                const GemmPlan plan = log.stage("arch.plan_build", id, [&] {
                    return GemmPlan::build(pt.problem, 8, true);
                });
                log.count("arch.plan_builds", 1);
                log.count("arch.plan_bytes",
                          static_cast<double>(planBytes(plan)));
                log.replay("arch.profile", id, [&] {
                    return OperandProfile::fromDbb(pt.problem, plan.act(),
                                                   plan.wgt());
                });
                GemmRun run = log.stage("arch.events", id, [&] {
                    return pt.model->run(plan, ev_opt);
                });
                run.output.assign(static_cast<size_t>(kM) * kN, 0);
                const bool dense = plan.wgtDenseT() != nullptr;
                log.stage(dense ? "arch.kernel_dense"
                                : "arch.kernel_intersect",
                          id,
                          [&] { dbbGemm(plan, run.output.data(), nullptr); });
                log.count(dense ? "arch.kernel_dense_gemms"
                                : "arch.kernel_intersect_gemms",
                          1);
                log.rowPath(dense ? "dense" : "intersect");
                const double pj = log.stage("energy.energy", id, [&] {
                    return pt.energy->energy(run.events).totalPj();
                });
                log.check("digest", id, [&] {
                    Unit u;
                    u.digest = u.replay_digest = resultDigest(run, pj);
                    r.push_back(u);
                });
            });
        }
        return r;
    }

    int64_t
    scalarCheck(bool full, uint64_t seed, int64_t *checked) override
    {
        RunOptions so;
        so.compute_output = true;
        so.validate_operands = false;
        so.engine = EngineKind::Scalar;
        int64_t bad = 0;
        for (size_t i : sampleIndices(points.size(),
                                      full ? points.size() : kSamplePoints,
                                      seed)) {
            const GemmRun ref = points[i].model->run(points[i].problem, so);
            ++*checked;
            if (!(ref.events == runs[i].events) ||
                ref.output != runs[i].output)
                ++bad;
        }
        return bad;
    }

  private:
    std::vector<Point> points;
    std::unique_ptr<ThreadPool> pool;
    /** The last pass: run and energy per point. */
    std::vector<GemmRun> runs;
    std::vector<double> pjs;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeSparseGemm()
{
    return std::make_unique<SparseGemm>();
}

} // namespace perfbench
