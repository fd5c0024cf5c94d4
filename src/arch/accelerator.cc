#include "arch/accelerator.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "arch/plan_cache.hh"
#include "base/thread_pool.hh"
#include "core/dap.hh"

namespace s2ta {

namespace {

/**
 * Content key of one layer's lowered GEMM: the conv geometry, the
 * lowering alignment, and the digests of both operand tensors (each
 * hashed on the first visit after it was written, then read back).
 * Two layers with identical key lower to problems the array models
 * see identically. When the alignment divides groupInC no channel
 * segment is padded, so every alignment lowers to the same layout
 * and the key drops it: the SA-family designs (alignment 1) and the
 * S2TA designs (alignment bz) then share one plan per block size. A
 * layer whose segments are modeled padded (a 3-channel stem, a
 * depthwise tap) keeps one plan per alignment.
 */
uint64_t
layerPlanKey(const LayerWorkload &wl, int channel_align)
{
    uint64_t key = 0x4C41594552ull; // domain tag
    const Conv2dShape &s = wl.shape;
    if (s.groupInC() % channel_align == 0)
        channel_align = 1;
    for (int field : {s.in_c, s.in_h, s.in_w, s.out_c, s.kernel_h,
                      s.kernel_w, s.stride, s.pad, s.groups,
                      wl.batch, channel_align}) {
        key = PlanCache::combine(key,
                                 static_cast<uint64_t>(field));
    }
    key = PlanCache::combine(key, wl.input.digest());
    key = PlanCache::combine(key, wl.weights.digest());
    return key;
}

/**
 * The plan entry of one layer visit at alignment @p channel_align
 * and block size @p bz: the input tensor's masks and the conv
 * geometry, the weight tensor's masks (the weight tensor already is
 * the GEMM's K x out_c matrix), and each group's profile, derived
 * from them. Both tensors are masked where they lie. A compute entry
 * also owns the layer's lowered activations, which only the kernel
 * reads, and packs the weight tensor from where it lies: the packed
 * copy is the only copy of the weights it makes. An events-only
 * entry lowers nothing. Its weight-mask bands and profiles spread
 * over @p pool's lanes (null: serial), so a first sight that runs
 * alone does not leave the other lanes idle.
 */
std::shared_ptr<const CachedPlan>
buildLayerEntry(const LayerWorkload &wl, int channel_align, int bz,
                bool compute_output, ThreadPool *pool)
{
    s2ta_assert(wl.weights.shape() ==
                std::vector<int>({wl.shape.kernel_h, wl.shape.kernel_w,
                                  wl.shape.groupInC(), wl.shape.out_c}),
                "layer '%s' weight shape mismatch", wl.name.c_str());
    GemmProblem p =
        compute_output
            ? im2colLowerActivations(wl.shape, wl.input, channel_align,
                                     wl.batch)
            : im2colActivationDims(wl.shape, channel_align, wl.batch);
    return std::make_shared<const CachedPlan>(
        std::move(p), wl.shape, wl.input.data(), wl.weights.data(), bz,
        compute_output, pool);
}

} // anonymous namespace

void
NetworkRun::add(LayerRun lr)
{
    total.add(lr.events);
    dense_macs += lr.dense_macs;
    layers.push_back(std::move(lr));
}

Accelerator::Accelerator(AcceleratorConfig cfg_) : cfg(cfg_)
{
    cfg.array.check();
    if (cfg.wgt_sram_bytes <= 0 || cfg.act_sram_bytes <= 0)
        s2ta_fatal("non-positive SRAM size");
    if (cfg.dma_bytes_per_cycle <= 0.0)
        s2ta_fatal("non-positive DMA bandwidth");
    if (cfg.mcu_count <= 0 || cfg.mcu_elems_per_cycle <= 0.0)
        s2ta_fatal("non-positive MCU throughput");
    if (cfg.sim_threads < 0)
        s2ta_fatal("negative sim_threads %d", cfg.sim_threads);
    if (cfg.sim_threads > 1) {
        // Dedicated pool of exactly sim_threads lanes (the calling
        // thread is one of them).
        own_pool = std::make_unique<ThreadPool>(cfg.sim_threads - 1);
    }
}

Accelerator::~Accelerator() = default;

ThreadPool *
Accelerator::shardPool() const
{
    if (cfg.sim_threads == 1)
        return nullptr;
    return own_pool ? own_pool.get() : &ThreadPool::global();
}

int
Accelerator::channelAlign() const
{
    const ArchKind kind = cfg.array.kind;
    return (kind == ArchKind::S2taW || kind == ArchKind::S2taAw)
               ? cfg.array.bz
               : 1;
}

PreparedLayer
Accelerator::prepareLayer(const LayerWorkload &wl,
                          const NetworkRunOptions &opt) const
{
    const bool compute_output = opt.compute_output;
    s2ta_assert(wl.shape.valid(), "invalid shape for layer '%s'",
                wl.name.c_str());
    s2ta_assert(wl.batch >= 1, "layer '%s' batch %d",
                wl.name.c_str(), wl.batch);

    PreparedLayer prep;
    prep.wl = &wl;

    // Per-layer variable A-DBB (and the per-layer weight bound):
    // rebuild the (stateless) array model with this layer's
    // serialization depth (Sec. 5.2). Grouped layers tighten both
    // bounds structurally: an im2col channel segment holds at most
    // groupInC real values per BZ-block (a depthwise tap has one),
    // so the compiler programs the tighter bound.
    ArrayConfig acfg = cfg.array;
    const int seg_bound =
        std::min(acfg.bz, std::max(1, wl.shape.groupInC()));
    if (acfg.kind == ArchKind::S2taAw)
        acfg.act_nnz = std::min(wl.act_nnz, seg_bound);
    if (acfg.kind == ArchKind::S2taAw ||
        acfg.kind == ArchKind::S2taW) {
        acfg.weight_dbb =
            DbbSpec{std::min(wl.wgt_nnz, seg_bound), acfg.bz};
    }
    prep.acfg = acfg;
    prep.model = makeArrayModel(acfg);

    // The fast engine plans the whole layer, every group at once,
    // as one grouped GEMM whose plan (the input's masks + per-group
    // profiles) is built once and reused across the whole tile grid;
    // only a plan that computes outputs lowers the activations, for
    // the kernel (buildLayerEntry). With a plan cache the layer
    // encodes only on first sight; every later design point in the
    // sweep reuses the cached plan.
    // The scalar reference engine lowers each group to its own
    // padded GEMM and encodes nothing.
    const bool fast = opt.engine != EngineKind::Scalar;
    prep.use_cache = opt.plan_cache != nullptr && fast;
    const auto build = [&] {
        return buildLayerEntry(wl, channelAlign(), acfg.bz,
                               compute_output, shardPool());
    };
    if (prep.use_cache) {
        prep.cached = {opt.plan_cache->acquireKeyed(
            layerPlanKey(wl, channelAlign()),
            acfg.bz, compute_output, build)};
    } else if (fast) {
        prep.cached = {build()};
    } else {
        prep.problems = im2colLowerAll(wl.shape, wl.input, wl.weights,
                                       channelAlign(), wl.batch);
    }

    // ---- DMA traffic ---------------------------------------------
    // Operands enter compressed where the architecture stores them
    // compressed; outputs leave dense INT8.
    const bool dbb_w = acfg.kind == ArchKind::S2taW ||
                       acfg.kind == ArchKind::S2taAw;
    const bool dbb_a = acfg.kind == ArchKind::S2taAw &&
                       wl.act_nnz < acfg.bz;

    const int64_t wgt_elems = wl.weights.size();
    int64_t wgt_bytes = wgt_elems;
    if (dbb_w) {
        const int bz = acfg.bz;
        const int64_t blocks = (wgt_elems + bz - 1) / bz;
        wgt_bytes = blocks * acfg.weight_dbb.storedBytesPerBlock();
    }
    const int64_t act_elems = wl.input.size();
    int64_t act_bytes = act_elems;
    if (dbb_a) {
        const int bz = acfg.bz;
        const int64_t blocks = (act_elems + bz - 1) / bz;
        act_bytes = blocks * (wl.act_nnz + 1);
    }
    const int64_t out_bytes = static_cast<int64_t>(wl.batch) *
                              wl.shape.outH() * wl.shape.outW() *
                              wl.shape.out_c;

    // Residency policy: an operand that fits its SRAM is loaded
    // once. An operand that overflows is *streamed* once when the
    // other operand is resident (column-stripe-outer order for
    // oversized weights, row-stripe-outer for oversized
    // activations); only when neither fits must the cheaper one be
    // re-streamed per stripe of the other.
    const int row_tiles =
        (wl.batch * wl.shape.outH() * wl.shape.outW() +
         acfg.tileRows() - 1) /
        acfg.tileRows();
    const int col_tiles =
        (wl.shape.groupOutC() + acfg.tileCols() - 1) /
        acfg.tileCols();
    int64_t wgt_dma = wgt_bytes;
    int64_t act_dma = act_bytes;
    if (wgt_bytes > cfg.wgt_sram_bytes &&
        act_bytes > cfg.act_sram_bytes) {
        const int64_t refetch_wgt =
            wgt_bytes * row_tiles + act_bytes;
        const int64_t refetch_act =
            act_bytes * col_tiles + wgt_bytes;
        if (refetch_wgt <= refetch_act)
            wgt_dma = wgt_bytes * row_tiles;
        else
            act_dma = act_bytes * col_tiles;
    }
    prep.dma_bytes = wgt_dma + act_dma + out_bytes;
    return prep;
}

LayerRun
Accelerator::executePrepared(const PreparedLayer &prep,
                             const NetworkRunOptions &opt) const
{
    s2ta_assert(prep.wl != nullptr, "executePrepared on an empty "
                "PreparedLayer");
    const LayerWorkload &wl = *prep.wl;
    const ArrayConfig &acfg = prep.acfg;
    const bool compute_output = opt.compute_output;

    LayerRun lr;
    lr.name = wl.name;
    lr.batch = wl.batch;
    lr.dense_macs = wl.shape.denseMacs() * wl.batch;
    lr.act_nnz_used = wl.act_nnz;

    // The GEMM-level options inherit the caller's engine/cache
    // knobs; the shard pool lets the layer's functional kernel fan
    // out in row stripes (the event models always run serially).
    RunOptions gemm_opt = opt;
    gemm_opt.shard_pool = shardPool();

    std::vector<int> out_shape = {wl.shape.outH(), wl.shape.outW(),
                                  wl.shape.out_c};
    if (wl.batch > 1)
        out_shape.insert(out_shape.begin(), wl.batch);

    if (!prep.cached.empty()) {
        // One grouped GEMM: events summed over the groups in group
        // order, and the kernel's m x out_c result is the output
        // tensor itself.
        GemmRun run = prep.model->run(prep.cached.front()->plan,
                                      gemm_opt);
        lr.events = run.events;
        if (compute_output)
            lr.output = Int32Tensor(out_shape, std::move(run.output));
    } else {
        // Scalar reference: one GEMM per group, folded in group
        // order.
        if (compute_output)
            lr.output = Int32Tensor(out_shape, 0);
        for (int g = 0; g < wl.shape.groups; ++g) {
            const GemmRun run = prep.model->run(
                prep.problems[static_cast<size_t>(g)], gemm_opt);
            lr.events.add(run.events);
            if (compute_output)
                scatterGemmResult(wl.shape, g, run.output, lr.output,
                                  wl.batch);
        }
    }

    // The DAP array prunes the input tensor once as it is written to
    // the activation SRAM; its comparator activity belongs to the
    // S2TA-AW design only (other designs have no DAP hardware). The
    // counts depend only on (tensor content, NNZ bound) — not on
    // the array geometry — so sweeps memoize them per layer.
    if (acfg.kind == ArchKind::S2taAw && wl.act_nnz < acfg.bz) {
        const auto prune = [&] {
            Int8Tensor copy = wl.input;
            return dapPruneTensor(copy, wl.act_nnz);
        };
        const DapStats ds =
            prep.use_cache
                ? opt.plan_cache->dapStats(
                      PlanCache::combine(
                          PlanCache::combine(0x444150ull,
                                             wl.input.digest()),
                          static_cast<uint64_t>(wl.act_nnz)),
                      prune)
                : prune();
        lr.events.dap_comparisons = ds.comparisons;
        s2ta_assert(ds.nonzeros_dropped == 0,
                    "layer '%s' input does not satisfy its declared "
                    "A-DBB bound %d/8", wl.name.c_str(), wl.act_nnz);
    }

    // The DMA traffic was priced at prepare time (it depends only
    // on operand geometry and the SRAM budgets); fold it into the
    // event record here so a LayerRun stays self-contained.
    lr.events.dma_bytes = prep.dma_bytes;

    // ---- Latency: compute vs DMA (double buffered overlap) -------
    lr.compute_cycles = lr.events.cycles;
    const int64_t dma_cycles = static_cast<int64_t>(std::ceil(
        static_cast<double>(lr.events.dma_bytes) /
        cfg.dma_bytes_per_cycle));
    if (dma_cycles > lr.compute_cycles) {
        lr.memory_bound = true;
        lr.events.cycles = dma_cycles;
    }

    // The MCU cluster must keep up with the activation-function
    // stream (the paper sizes it so it never bottlenecks). A
    // configuration that breaks that assumption gets the MCU
    // latency, and the layer is marked; the warning prints once per
    // process, since a sweep can hit it on every layer.
    const double mcu_tput = cfg.mcu_count * cfg.mcu_elems_per_cycle;
    const double mcu_cycles =
        static_cast<double>(lr.events.actfn_elements) / mcu_tput;
    if (mcu_cycles > static_cast<double>(lr.events.cycles)) {
        static std::atomic_flag warned = ATOMIC_FLAG_INIT;
        if (!warned.test_and_set(std::memory_order_relaxed)) {
            s2ta_warn("layer '%s': MCU cluster is the bottleneck "
                      "(%.0f > %ld cycles); further MCU-bound layers "
                      "are marked LayerRun::mcu_bound, not reported",
                      wl.name.c_str(), mcu_cycles, lr.events.cycles);
        }
        lr.mcu_bound = true;
        lr.events.cycles =
            static_cast<int64_t>(std::ceil(mcu_cycles));
    }

    return lr;
}

LayerRun
Accelerator::runLayer(const LayerWorkload &wl,
                      const NetworkRunOptions &opt) const
{
    return executePrepared(prepareLayer(wl, opt), opt);
}

NetworkRun
Accelerator::runNetwork(const std::vector<LayerWorkload> &layers,
                        const NetworkRunOptions &opt) const
{
    // Layers are independent simulations; fan them out and fold the
    // results in layer order so totals are bitwise identical to the
    // serial run.
    std::vector<LayerRun> runs(layers.size());
    const auto run_one = [&](int64_t i) {
        runs[static_cast<size_t>(i)] =
            runLayer(layers[static_cast<size_t>(i)], opt);
    };
    parallelForOn(shardPool(), static_cast<int64_t>(layers.size()),
                  run_one);
    NetworkRun nr;
    for (LayerRun &lr : runs)
        nr.add(std::move(lr));
    return nr;
}

} // namespace s2ta
