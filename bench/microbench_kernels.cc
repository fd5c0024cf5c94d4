/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * golden GEMM, operand profiling, DBB mask encoding, workload
 * synthesis, DAP pruning, the SMT queue automaton, and whole-GEMM
 * simulation per architecture. These guard the simulator's own
 * performance (the full-model benches depend on it), not the paper's
 * results.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "arch/accelerator.hh"
#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "arch/plan_cache.hh"
#include "core/dap.hh"
#include "core/dbb.hh"
#include "core/weight_pruner.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

const GemmProblem &
sharedProblem()
{
    static const GemmProblem p = [] {
        Rng rng(0xBEEF);
        return makeUnstructuredGemm(256, 1152, 128, 0.5, 0.5, rng);
    }();
    return p;
}

void
BM_GemmReference(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(gemmReference(p));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_GemmReference)->Unit(benchmark::kMillisecond);

void
BM_OperandProfile(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(OperandProfile::build(p));
    state.SetItemsProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k + static_cast<int64_t>(p.k)
         * p.n));
}
BENCHMARK(BM_OperandProfile)->Unit(benchmark::kMicrosecond);

void
BM_OperandProfileFromDbb(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    const GemmPlan plan = GemmPlan::build(p);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            OperandProfile::fromDbb(p, plan.act(), plan.wgt()));
    state.SetItemsProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k + static_cast<int64_t>(p.k)
         * p.n));
}
BENCHMARK(BM_OperandProfileFromDbb)->Unit(benchmark::kMicrosecond);

void
BM_GemmPlanBuild(benchmark::State &state)
{
    const GemmProblem &p = sharedProblem();
    for (auto _ : state)
        benchmark::DoNotOptimize(GemmPlan::build(p));
    state.SetBytesProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k + static_cast<int64_t>(p.k)
         * p.n));
}
BENCHMARK(BM_GemmPlanBuild)->Unit(benchmark::kMicrosecond);

/**
 * dbbGemm at the sparse end: the paper's typical convolution GEMM
 * (512 x 1152 x 256, Sec. 8.2) with W and A both at range(0)/8 DBB.
 * The functional kernel contracts dense lanes at every density; these
 * are the operating points where a mask-intersection gather would do
 * the least work, so a regression of the dense contraction against
 * one shows here first.
 */
void
BM_DbbGemmSparse(benchmark::State &state)
{
    const int nnz = static_cast<int>(state.range(0));
    Rng rng(0x5EA + static_cast<uint64_t>(nnz));
    const GemmProblem p = makeDbbGemm(512, 1152, 256, nnz, nnz, rng);
    const GemmPlan plan = GemmPlan::build(p);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    for (auto _ : state) {
        dbbGemm(plan, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetLabel("W,A " + std::to_string(nnz) + "/8 " +
                   dbbKernelKindName(dbbActiveKernel()));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_DbbGemmSparse)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/**
 * dbbGemm on ResNet-50's conv2 1x1 shape (3136 x 64 x 64, W 4/8,
 * A 4/8), at the SSE2 tier (range(0) = 0, the scalar cap) and the
 * VNNI tier (1): a short K and four panels, so the tile's loop and
 * store overheads show where the sparse rows' long K hides them.
 */
void
BM_DbbGemmConv2Pw(benchmark::State &state)
{
    const bool vnni = state.range(0) != 0;
    if (vnni && !dbbVnniKernelSupportedImpl()) {
        state.SkipWithError("no AVX512-VNNI on this host/build");
        return;
    }
    Rng rng(0xC2F);
    const GemmProblem p = makeDbbGemm(3136, 64, 64, 4, 4, rng);
    const GemmPlan plan = GemmPlan::build(p);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    dbbForceKernelCap(vnni ? DbbKernelKind::Avx512 : DbbKernelKind::Scalar);
    for (auto _ : state) {
        dbbGemm(plan, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    dbbForceKernelCap(DbbKernelKind::Avx512);
    state.SetLabel(vnni ? "avx512" : "scalar");
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_DbbGemmConv2Pw)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * VGG-16 fc6 at batch 1 and W 4/8: a 25088 x 4096 weight operand
 * (102 MB) whose 4096 column block streams lie 28 KB apart: an
 * encoder that scatters across the column streams is TLB-bound,
 * and that shows as a kernel number.
 */
const GemmProblem &
fc6Problem()
{
    static const GemmProblem p = [] {
        Rng rng(0xFC6);
        return makeDbbGemm(1, 25088, 4096, 4, 8, rng);
    }();
    return p;
}

void
BM_DbbEncodeWeightsFc(benchmark::State &state)
{
    const GemmProblem &p = fc6Problem();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            DbbMatrix::fromWeights(p, DbbSpec{8, 8}));
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(p.w.size()));
}
BENCHMARK(BM_DbbEncodeWeightsFc)->Unit(benchmark::kMillisecond);

void
BM_DbbEncodeActivationsConv(benchmark::State &state)
{
    // The plain activation mask builder over a matrix the size of
    // VGG-16 conv1_2 lowered at A 4/8: 224 x 224 output pixels by
    // 3 x 3 x 64 taps (29 MB). A conv plan masks the layer's input
    // instead (BM_EventsOnlyPlanConv), a ninth of these bytes.
    static const GemmProblem p = [] {
        Rng rng(0xC12);
        return makeDbbGemm(50176, 576, 1, 8, 4, rng);
    }();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            DbbMatrix::fromActivations(p, DbbSpec{8, 8}));
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(p.a.size()));
}
BENCHMARK(BM_DbbEncodeActivationsConv)->Unit(benchmark::kMillisecond);

/**
 * Workload synthesis, which is most of a sweep's set-up: one engine
 * word (a full-range uniformInt maps each word to one value), VGG-16
 * fc6's weights at its W-DBB operating point (3/8) in generation
 * order (7 x 7 x 4096 x 512, 12.8M blocks, six draws each), and a
 * whole ResNet-50 workload.
 */
void
BM_RngDraw(benchmark::State &state)
{
    Rng rng(11);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniformInt(INT64_MIN, INT64_MAX));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngDraw);

void
BM_MakeDbbTensorFc(benchmark::State &state)
{
    const std::vector<int> shape = {7, 7, 4096, 512};
    Rng rng(0xFC6);
    for (auto _ : state)
        benchmark::DoNotOptimize(makeDbbTensor(shape, 3, rng));
    state.SetBytesProcessed(state.iterations() * 7 * 7 * 4096 * 512);
}
BENCHMARK(BM_MakeDbbTensorFc)->Unit(benchmark::kMillisecond);

void
BM_BuildModelWorkloadResNet50(benchmark::State &state)
{
    const ModelSpec spec = resNet50();
    Rng rng(0x5E5);
    for (auto _ : state)
        benchmark::DoNotOptimize(buildModelWorkload(spec, rng));
}
BENCHMARK(BM_BuildModelWorkloadResNet50)->Unit(benchmark::kMillisecond);

void
BM_DapPrune(benchmark::State &state)
{
    Rng rng(8);
    const Int8Tensor base =
        makeUnstructuredTensor({56, 56, 128}, 0.4, rng);
    for (auto _ : state) {
        Int8Tensor t = base;
        benchmark::DoNotOptimize(dapPruneTensor(t, 3));
    }
    state.SetBytesProcessed(state.iterations() * base.size());
}
BENCHMARK(BM_DapPrune)->Unit(benchmark::kMillisecond);

void
BM_WeightPrune(benchmark::State &state)
{
    Rng rng(9);
    const GemmProblem base =
        makeUnstructuredGemm(8, 1152, 256, 0.0, 0.0, rng);
    for (auto _ : state) {
        GemmProblem p = base;
        benchmark::DoNotOptimize(pruneWeightsDbb(p, DbbSpec{4, 8}));
    }
}
BENCHMARK(BM_WeightPrune)->Unit(benchmark::kMillisecond);

void
BM_SmtQueueAutomaton(benchmark::State &state)
{
    Rng rng(10);
    std::vector<int> arrivals(4096);
    for (auto &a : arrivals)
        a = static_cast<int>(rng.uniformInt(0, 2));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            SaSmtModel::queueCycles(arrivals, 2));
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SmtQueueAutomaton)->Unit(benchmark::kMicrosecond);

/** The fast engine's table path on BM_SmtQueueAutomaton's stream: a
 *  one-pair slot sets thread 0's bit, a two-pair slot both. */
void
BM_SmtMatchTable(benchmark::State &state)
{
    constexpr int kSlots = 4096;
    Rng rng(10);
    std::vector<int> arrivals(kSlots);
    for (auto &a : arrivals)
        a = static_cast<int>(rng.uniformInt(0, 2));
    std::vector<uint64_t> bitmap(
        SaSmtModel::matchBitmapWords(2 * kSlots), 0);
    const auto set = [&](int bit) {
        bitmap[static_cast<size_t>(bit / 64)] |= uint64_t{1}
                                                 << (bit % 64);
    };
    for (int s = 0; s < kSlots; ++s) {
        if (arrivals[static_cast<size_t>(s)] >= 1)
            set(s);
        if (arrivals[static_cast<size_t>(s)] == 2)
            set(kSlots + s);
    }
    const SaSmtModel model(ArrayConfig::saSmt(2));
    if (model.matchCycles(bitmap.data(), kSlots) !=
        SaSmtModel::queueCycles(arrivals, 2))
        state.SkipWithError("table path disagrees with the automaton");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.matchCycles(bitmap.data(), kSlots));
    state.SetItemsProcessed(state.iterations() * kSlots);
}
BENCHMARK(BM_SmtMatchTable)->Unit(benchmark::kMicrosecond);

void
BM_SimulateArch(benchmark::State &state)
{
    const auto kind = static_cast<ArchKind>(state.range(0));
    const auto engine = static_cast<EngineKind>(state.range(1));
    ArrayConfig cfg;
    switch (kind) {
      case ArchKind::Sa:     cfg = ArrayConfig::sa(); break;
      case ArchKind::SaZvcg: cfg = ArrayConfig::saZvcg(); break;
      case ArchKind::SaSmt:  cfg = ArrayConfig::saSmt(2); break;
      case ArchKind::S2taW:  cfg = ArrayConfig::s2taW(); break;
      case ArchKind::S2taAw: cfg = ArrayConfig::s2taAw(4); break;
    }
    Rng rng(11);
    GemmProblem p = makeDbbGemm(256, 1152, 128, 4, 4, rng);
    const auto model = makeArrayModel(cfg);
    RunOptions opt;
    opt.compute_output = false;
    opt.engine = engine;
    for (auto _ : state)
        benchmark::DoNotOptimize(model->run(p, opt));
    state.SetLabel(cfg.name() +
                   (engine == EngineKind::Scalar ? " scalar"
                                                 : " dbb-fast"));
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_SimulateArch)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 4, 1),
                   {static_cast<int>(EngineKind::Scalar),
                    static_cast<int>(EngineKind::DbbFast)}})
    ->Unit(benchmark::kMillisecond);

void
BM_SimulateFunctional(benchmark::State &state)
{
    // Whole-GEMM simulation including the functional output: this
    // is the path bench_engine_throughput measures end to end.
    const auto engine = static_cast<EngineKind>(state.range(0));
    Rng rng(12);
    GemmProblem p = makeDbbGemm(256, 1152, 128, 4, 4, rng);
    const auto model = makeArrayModel(ArrayConfig::s2taAw(4));
    RunOptions opt;
    opt.compute_output = true;
    opt.engine = engine;
    opt.validate_operands = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(model->run(p, opt));
    state.SetLabel(engine == EngineKind::Scalar ? "scalar"
                                                : "dbb-fast");
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_SimulateFunctional)
    ->Arg(static_cast<int>(EngineKind::Scalar))
    ->Arg(static_cast<int>(EngineKind::DbbFast))
    ->Unit(benchmark::kMillisecond);

/** MobileNetV1 conv4_dw (128 groups of one channel, m = 3136): a
 *  depthwise layer is one grouped GEMM on the fast engine. */
const LayerWorkload &
depthwiseLayer()
{
    static const LayerWorkload wl = [] {
        Rng rng(0xD4);
        const ModelWorkload mw = buildModelWorkload(mobileNetV1(), rng);
        for (const LayerWorkload &l : mw.layers)
            if (l.name == "conv4_dw")
                return l;
        s2ta_panic("MobileNetV1 has no conv4_dw");
    }();
    return wl;
}

/** conv4_dw through Accelerator::runLayer on S2TA-AW A4/8, serial
 *  and uncached, with outputs: lowering, plan build, events and the
 *  grouped kernel, as perfbench `infer` runs every layer. */
void
BM_DepthwiseLayerFunctional(benchmark::State &state)
{
    const LayerWorkload &wl = depthwiseLayer();
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::s2taAw(4);
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    NetworkRunOptions opt;
    opt.compute_output = true;
    opt.validate_operands = false;
    for (auto _ : state)
        benchmark::DoNotOptimize(acc.runLayer(wl, opt));
    state.SetItemsProcessed(state.iterations() *
                            wl.shape.denseMacs());
}
BENCHMARK(BM_DepthwiseLayerFunctional)->Unit(benchmark::kMillisecond);

/** conv4_dw events-only on SA-SMT T2Q2 through a fresh PlanCache
 *  per iteration, serial: the sweep's first sight of the layer,
 *  including the queue-timing sample shared by all 128 groups. */
void
BM_DepthwiseLayerEventsSmt(benchmark::State &state)
{
    const LayerWorkload &wl = depthwiseLayer();
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::saSmt(2);
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    for (auto _ : state) {
        PlanCache cache;
        NetworkRunOptions opt;
        opt.validate_operands = false;
        opt.plan_cache = &cache;
        benchmark::DoNotOptimize(acc.runLayer(wl, opt));
    }
    state.SetItemsProcessed(state.iterations() *
                            wl.shape.denseMacs());
}
BENCHMARK(BM_DepthwiseLayerEventsSmt)->Unit(benchmark::kMillisecond);

/** VGG-16's layer @p name, the model built once (its static set-up
 *  builds all of VGG-16, a few seconds). */
const LayerWorkload &
vgg16Layer(const std::string &name)
{
    static const ModelWorkload mw = [] {
        Rng rng(0xFC6);
        return buildModelWorkload(vgg16(), rng);
    }();
    for (const LayerWorkload &l : mw.layers)
        if (l.name == name)
            return l;
    s2ta_panic("VGG-16 has no %s", name.c_str());
}

/** VGG-16 fc6 (25088 x 4096 weights, 102 MB). */
const LayerWorkload &
vgg16Fc6()
{
    return vgg16Layer("fc6");
}

/** Events-only options through @p cache. */
NetworkRunOptions
eventsOnlyThrough(PlanCache &cache)
{
    NetworkRunOptions opt;
    opt.validate_operands = false;
    opt.plan_cache = &cache;
    return opt;
}

/** fc6 as the sweep's first sight meets it: events-only through a
 *  fresh PlanCache per iteration on SA-ZVCG, on an accelerator of
 *  state.range(0) lanes (1: serial; more: the weight-mask bands and
 *  profile chunks split across them). Keying (the tensors' digests,
 *  hashed once for the process) and planning without the mirror,
 *  nothing simulated. */
void
BM_EventsOnlyPlanFc(benchmark::State &state)
{
    const LayerWorkload &wl = vgg16Fc6();
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::saZvcg();
    cfg.sim_threads = static_cast<int>(state.range(0));
    const Accelerator acc(cfg);
    for (auto _ : state) {
        PlanCache cache;
        benchmark::DoNotOptimize(
            acc.prepareLayer(wl, eventsOnlyThrough(cache)));
    }
    state.SetBytesProcessed(state.iterations() * wl.weights.size());
}
BENCHMARK(BM_EventsOnlyPlanFc)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/** VGG-16 conv1_2 (224 x 224 x 64 in, 3 x 3 x 64 x 64 weights) as the
 *  sweep's first sight meets it: events-only through a fresh
 *  PlanCache per iteration on SA-ZVCG, on an accelerator of
 *  state.range(0) lanes (1: serial; more: the weight-mask bands and
 *  profile chunks split across them). Keying, masking the input
 *  tensor and the weights where they lie, and deriving the profile
 *  from the input masks; nothing lowered, nothing simulated. */
void
BM_EventsOnlyPlanConv(benchmark::State &state)
{
    const LayerWorkload &wl = vgg16Layer("conv1_2");
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::saZvcg();
    cfg.sim_threads = static_cast<int>(state.range(0));
    const Accelerator acc(cfg);
    for (auto _ : state) {
        PlanCache cache;
        benchmark::DoNotOptimize(
            acc.prepareLayer(wl, eventsOnlyThrough(cache)));
    }
    state.SetBytesProcessed(state.iterations() * wl.input.size());
}
BENCHMARK(BM_EventsOnlyPlanConv)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/** fc6 as every later design point of a sweep meets it: a plan-cache
 *  hit, keyed by the digests its tensors already carry. */
void
BM_LayerVisitHitFc(benchmark::State &state)
{
    const LayerWorkload &wl = vgg16Fc6();
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::saZvcg();
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    PlanCache cache;
    const NetworkRunOptions opt = eventsOnlyThrough(cache);
    (void)acc.prepareLayer(wl, opt);
    for (auto _ : state)
        benchmark::DoNotOptimize(acc.prepareLayer(wl, opt));
    if (cache.stats().misses != 1)
        state.SkipWithError("fc6 missed a warm plan cache");
}
BENCHMARK(BM_LayerVisitHitFc)->Unit(benchmark::kMicrosecond);

/** fc6 events-only on SA-SMT T2Q2 against a warm plan, serial: a
 *  plan-cache hit, then the queue timing of 1152 sampled PEs over
 *  K = 25088, the sweep's largest SA-SMT layer. */
void
BM_SmtTimingFc(benchmark::State &state)
{
    const LayerWorkload &wl = vgg16Fc6();
    AcceleratorConfig cfg;
    cfg.array = ArrayConfig::saSmt(2);
    cfg.sim_threads = 1;
    const Accelerator acc(cfg);
    PlanCache cache;
    const NetworkRunOptions opt = eventsOnlyThrough(cache);
    (void)acc.runLayer(wl, opt);
    for (auto _ : state)
        benchmark::DoNotOptimize(acc.runLayer(wl, opt));
    if (cache.stats().misses != 1)
        state.SkipWithError("fc6 missed a warm plan cache");
}
BENCHMARK(BM_SmtTimingFc)->Unit(benchmark::kMillisecond);

} // anonymous namespace
} // namespace s2ta

BENCHMARK_MAIN();
