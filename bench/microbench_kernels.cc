/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot kernels:
 * golden GEMM, operand profiling, DBB encode/decode, DAP pruning,
 * the SMT queue automaton, and whole-GEMM simulation per
 * architecture. These guard the simulator's own performance (the
 * full-model benches depend on it), not the paper's results.
 */

#include <benchmark/benchmark.h>

#include "arch/gemm_kernels.hh"
#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "arch/plan_store.hh"
#include "core/dap.hh"
#include "core/dbb.hh"
#include "core/weight_pruner.hh"
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

void
BM_MaskIntersectGemm(benchmark::State &state)
{
    // The DBB-native functional kernel on the same GEMM as
    // BM_GemmReference: the headline per-element vs mask-intersect
    // comparison.
    const GemmProblem &p = sharedProblem();
    const GemmPlan plan = GemmPlan::build(p);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n);
    const int nb = plan.act().blocksPerVector();
    for (auto _ : state) {
        for (int i = 0; i < p.m; ++i) {
            const DbbBlock *arow = plan.act().vectorBlocks(i);
            int32_t *orow = &out[static_cast<size_t>(i) * p.n];
            for (int j = 0; j < p.n; ++j)
                orow[j] =
                    dbbDotRow(arow, plan.wgt().vectorBlocks(j), nb);
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * p.denseMacs());
}
BENCHMARK(BM_MaskIntersectGemm)->Unit(benchmark::kMillisecond);

/** True when this CPU has @p kind's kernel (only scalar on non-x86
 *  builds). */
bool
tierUsable(DbbKernelKind kind)
{
    switch (kind) {
      case DbbKernelKind::Scalar: return true;
      case DbbKernelKind::SimdV2: return dbbSimdKernelSupportedImpl();
      case DbbKernelKind::Avx2:   return dbbAvx2KernelSupportedImpl();
      case DbbKernelKind::Avx512:
        return dbbAvx512KernelSupportedImpl();
    }
    return false;
}

/** The row-dot entry point of one tier, bypassing the dispatcher. */
int32_t (*
tierRowDot(DbbKernelKind kind))(const DbbBlock *, const DbbBlock *,
                                int)
{
    switch (kind) {
      case DbbKernelKind::Scalar: return dbbDotRow;
      case DbbKernelKind::SimdV2: return dbbDotRowSimdV2;
      case DbbKernelKind::Avx2:   return dbbDotRowAvx2;
      case DbbKernelKind::Avx512: return dbbDotRowAvx512;
    }
    return dbbDotRow;
}

/** Random DBB row at roughly the requested mask density. */
std::vector<DbbBlock>
tierRow(Rng &rng, int nblocks, int mask_bits)
{
    std::vector<DbbBlock> row(static_cast<size_t>(nblocks));
    for (auto &b : row) {
        b.mask = 0;
        for (int s = 0; s < mask_bits; ++s)
            b.mask = maskSet(b.mask,
                             static_cast<int>(rng.uniformInt(0, 7)));
        const int stored = maskPopcount(b.mask);
        for (int s = 0; s < stored; ++s)
            b.values[static_cast<size_t>(s)] = static_cast<int8_t>(
                rng.uniformInt(-127, 127) | 1);
    }
    return row;
}

/**
 * The per-tier mask-intersection row dot: kernel-ladder rows side
 * by side. range(0) picks the tier (skipped with an error when the
 * host/build lacks it — an absent row can never be mistaken for a
 * slow one); range(1) picks the mask regime: dense 8/8 masks make
 * the expansion/permute path the whole cost, sparse 4/8 masks make
 * it an intersection-dominated dot. Bytes processed = stored DBB
 * bytes of both rows, so bytes/sec is directly comparable across
 * tiers and regimes.
 */
void
BM_DbbRowDotTier(benchmark::State &state)
{
    const auto kind = static_cast<DbbKernelKind>(state.range(0));
    const bool dense = state.range(1) != 0;
    if (!tierUsable(kind)) {
        state.SkipWithError("tier unavailable on this host/build");
        return;
    }
    Rng rng(0xD07 + state.range(1));
    const int nblocks = 144; // k = 1152, the conv sweet spot
    const auto a = tierRow(rng, nblocks, dense ? 8 : 4);
    const auto w = tierRow(rng, nblocks, dense ? 8 : 4);
    auto *const fn = tierRowDot(kind);
    for (auto _ : state)
        benchmark::DoNotOptimize(fn(a.data(), w.data(), nblocks));
    state.SetLabel(std::string(dbbKernelKindName(kind)) +
                   (dense ? " expansion-bound (8/8 masks)"
                          : " intersection (4/8 masks)"));
    state.SetBytesProcessed(state.iterations() * 2 * nblocks *
                            static_cast<int64_t>(sizeof(DbbBlock)));
}
BENCHMARK(BM_DbbRowDotTier)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 3, 1), {0, 1}})
    ->Unit(benchmark::kNanosecond);

/** Scalar reference dense dot (the baseline the VNNI row beats). */
int32_t
denseDotScalar(const int8_t *a, const int8_t *w, int k)
{
    int32_t sum = 0;
    for (int x = 0; x < k; ++x)
        sum += static_cast<int32_t>(a[x]) * w[x];
    return sum;
}

/**
 * The dense-mirror contraction: scalar loop vs the AVX512-VNNI
 * vpdpbusd kernel (range(0)). This is the dot product dbbGemm picks
 * when mask intersection stops paying (>= half the block pairs
 * matched), i.e. the hot loop of the 4/8-density engine bench.
 */
void
BM_DenseDotTier(benchmark::State &state)
{
    const bool vnni = state.range(0) != 0;
    if (vnni && !dbbVnniKernelSupportedImpl()) {
        state.SkipWithError("no AVX512-VNNI on this host/build");
        return;
    }
    Rng rng(0xDE4);
    const int k = 1152;
    std::vector<int8_t> a(static_cast<size_t>(k));
    std::vector<int8_t> w(static_cast<size_t>(k));
    for (int x = 0; x < k; ++x) {
        a[static_cast<size_t>(x)] =
            static_cast<int8_t>(rng.uniformInt(-128, 127));
        w[static_cast<size_t>(x)] =
            static_cast<int8_t>(rng.uniformInt(-128, 127));
    }
    auto *const fn = vnni ? dbbDenseDotVnni : denseDotScalar;
    for (auto _ : state)
        benchmark::DoNotOptimize(fn(a.data(), w.data(), k));
    state.SetLabel(vnni ? "avx512-vnni" : "scalar");
    state.SetBytesProcessed(state.iterations() * 2 * k);
}
BENCHMARK(BM_DenseDotTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kNanosecond);

/**
 * OperandProfile::fromDbb per derivation tier: the forced-scalar
 * per-bit mask loops vs the VPOPCNTDQ vectorized popcount +
 * histogram (range(0)). Same work as BM_OperandProfileFromDbb,
 * dispatch pinned either side.
 */
void
BM_ProfileDerivationTier(benchmark::State &state)
{
    const bool simd = state.range(0) != 0;
    if (simd && !dbbVpopcntKernelSupportedImpl()) {
        state.SkipWithError("no AVX512-VPOPCNTDQ on this "
                            "host/build");
        return;
    }
    const GemmProblem &p = sharedProblem();
    const GemmPlan plan = GemmPlan::build(p);
    dbbForceKernelCap(simd ? DbbKernelKind::Avx512
                           : DbbKernelKind::Scalar);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            OperandProfile::fromDbb(p, plan.act(), plan.wgt()));
    dbbForceKernelCap(DbbKernelKind::Avx512);
    state.SetLabel(simd ? "avx512-vpopcntdq" : "scalar-bitloops");
    state.SetBytesProcessed(
        state.iterations() *
        (static_cast<int64_t>(p.m) * p.k +
         static_cast<int64_t>(p.k) * p.n) / 8); // mask bytes read
}
BENCHMARK(BM_ProfileDerivationTier)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void
BM_DbbEncodeDecode(benchmark::State &state)
{
    Rng rng(7);
    GemmProblem p = makeDbbGemm(64, 512, 64, 4, 8, rng);
    const DbbSpec spec{4, 8};
    for (auto _ : state) {
        const DbbMatrix m = DbbMatrix::fromWeights(p, spec);
        benchmark::DoNotOptimize(m.toDense());
    }
    state.SetBytesProcessed(state.iterations() * 512 * 64);
}
BENCHMARK(BM_DbbEncodeDecode)->Unit(benchmark::kMicrosecond);

/**
 * VGG-16 fc6 at batch 1 and W 4/8: a 25088 x 4096 weight operand
 * (102 MB) whose 4096 column block streams lie 28 KB apart. The
 * 512 x 64 row above never leaves cache or TLB; here an encoder or
 * spill decoder that scatters across the column streams is
 * TLB-bound, and that shows as a kernel number.
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
BM_SpillDecodeFc(benchmark::State &state)
{
    // The spill tier's rehydration of the same layer: block stream
    // decode, dense operand reconstruction and profile derivation.
    const GemmProblem &p = fc6Problem();
    const std::vector<uint8_t> image =
        spillEncode(CachedPlan(p, 8, false));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            spillDecode(image.data(), image.size()));
    state.SetBytesProcessed(
        state.iterations() * static_cast<int64_t>(p.w.size()));
}
BENCHMARK(BM_SpillDecodeFc)->Unit(benchmark::kMillisecond);

void
BM_DbbEncodeActivationsConv(benchmark::State &state)
{
    // VGG-16 conv1_2 lowered at A 4/8: 224 x 224 output pixels by
    // 3 x 3 x 64 taps (29 MB of activations).
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

} // anonymous namespace
} // namespace s2ta

BENCHMARK_MAIN();
