#include "arch/accelerator.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "arch/plan_cache.hh"
#include "base/fault_injection.hh"
#include "base/thread_pool.hh"
#include "core/dap.hh"

namespace s2ta {

namespace {

/**
 * Content key of one layer's lowered GEMMs: the conv geometry, the
 * lowering alignment, and fingerprints of both operand tensors.
 * Two layers with identical key lower to bit-identical problems.
 * When the alignment divides groupInC no channel segment is
 * padded, so every alignment lowers identically and the key drops
 * it: the SA-family designs (alignment 1) and the S2TA designs
 * (alignment bz) then share one plan per block size. A layer whose
 * segments are padded (a 3-channel stem, a depthwise tap) keeps
 * one plan per alignment.
 */
uint64_t
layerPlanKey(const LayerWorkload &wl, int channel_align,
             uint64_t input_hash)
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
    key = PlanCache::combine(key, input_hash);
    key = PlanCache::combine(
        key, PlanCache::hashBytes(
                 wl.weights.data(),
                 static_cast<size_t>(wl.weights.size())));
    return key;
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

void
Accelerator::runIndexed(int64_t n,
                        const std::function<void(int64_t)> &fn) const
{
    if (cfg.sim_threads == 1) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
    } else if (own_pool) {
        own_pool->parallelFor(n, fn);
    } else {
        ThreadPool::global().parallelFor(n, fn);
    }
}

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

    // Each group lowers to an independent GEMM whose plan (encoding
    // + profile) is built once and reused across the whole tile
    // grid. With a plan cache the layer's activations lower
    // (batched, once for all groups) and encode only on first
    // sight; every later design point in the sweep reuses the
    // cached plans.
    const int groups = wl.shape.groups;
    prep.use_cache = opt.plan_cache != nullptr &&
                     opt.engine != EngineKind::Scalar;
    // The input fingerprint keys both the lowered plans and the
    // DAP memo in executePrepared; compute it once per layer visit.
    prep.input_hash =
        prep.use_cache
            ? PlanCache::hashBytes(
                  wl.input.data(),
                  static_cast<size_t>(wl.input.size()))
            : 0;
    if (prep.use_cache) {
        prep.cached = opt.plan_cache->acquireLayer(
            layerPlanKey(wl, channelAlign(), prep.input_hash),
            groups, acfg.bz, compute_output,
            [&] {
                return im2colLowerAll(wl.shape, wl.input,
                                      wl.weights, channelAlign(),
                                      wl.batch);
            },
            [&](int g) {
                return im2colLower(wl.shape, wl.input, wl.weights,
                                   g, channelAlign(), wl.batch);
            });
    } else {
        prep.problems =
            std::make_shared<std::vector<GemmProblem>>(
                im2colLowerAll(wl.shape, wl.input, wl.weights,
                               channelAlign(), wl.batch));
        if (opt.engine != EngineKind::Scalar) {
            // Encode every group's plan on the host — the driver's
            // "stage operands" work an async backend overlaps with
            // device execution of earlier commands. Grouped layers
            // fan the encode out exactly as the synchronous path
            // fanned out the per-group runs.
            prep.plans.resize(static_cast<size_t>(groups));
            runIndexed(groups, [&](int64_t g) {
                prep.plans[static_cast<size_t>(g)] =
                    std::make_shared<const GemmPlan>(
                        GemmPlan::build(
                            (*prep.problems)[static_cast<size_t>(
                                g)],
                            acfg.bz, compute_output));
            });
        }
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
    prep.h2d_bytes = wgt_dma + act_dma;
    prep.d2h_bytes = out_bytes;
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
    // knobs; the shard pool lets a single big GEMM's functional
    // kernels fan out in row stripes even when the group fan-out is
    // 1 (the event models always run serially).
    RunOptions gemm_opt = opt;
    gemm_opt.shard_pool = shardPool();

    if (compute_output) {
        std::vector<int> out_shape = {wl.shape.outH(),
                                      wl.shape.outW(),
                                      wl.shape.out_c};
        if (wl.batch > 1)
            out_shape.insert(out_shape.begin(), wl.batch);
        lr.output = Int32Tensor(out_shape, 0);
    }

    // Grouped layers fan out across the simulation threads; events
    // are folded in group order for bitwise determinism.
    const int groups = wl.shape.groups;
    std::vector<GemmRun> runs(static_cast<size_t>(groups));
    runIndexed(groups, [&](int64_t g) {
        const size_t gi = static_cast<size_t>(g);
        if (prep.use_cache)
            runs[gi] =
                prep.model->run(prep.cached[gi]->plan, gemm_opt);
        else if (!prep.plans.empty())
            runs[gi] = prep.model->run(*prep.plans[gi], gemm_opt);
        else
            runs[gi] =
                prep.model->run((*prep.problems)[gi], gemm_opt);
    });
    for (int g = 0; g < groups; ++g) {
        lr.events.add(runs[static_cast<size_t>(g)].events);
        if (compute_output) {
            scatterGemmResult(wl.shape, g,
                              runs[static_cast<size_t>(g)].output,
                              lr.output, wl.batch);
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
                                             prep.input_hash),
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
    lr.h2d_bytes = prep.h2d_bytes;
    lr.d2h_bytes = prep.d2h_bytes;
    lr.events.dma_bytes = prep.h2d_bytes + prep.d2h_bytes;

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

AttemptFaults
evaluateAttemptFaults(const FaultInjector &fi, uint64_t attempt_id,
                      size_t n_layers)
{
    AttemptFaults af;
    for (size_t i = 0; i < n_layers; ++i) {
        const uint64_t lid = FaultInjector::combineId(
            attempt_id, static_cast<uint64_t>(i));
        if (fi.shouldFail(FaultSite::LayerCompute, lid)) {
            if (af.fault_layer < 0)
                af.fault_layer = static_cast<int>(i);
            ++af.fault_count;
        }
        const int64_t stall = fi.stallCycles(lid);
        if (stall > 0) {
            ++af.stall_events;
            af.stall_cycles += stall;
        }
    }
    return af;
}

NetworkRun
Accelerator::runNetwork(const std::vector<LayerWorkload> &layers,
                        const NetworkRunOptions &opt) const
{
    // Evaluate every per-layer fault site up front (a serial loop,
    // so the site evaluation order — and thus the injector's exact
    // counters — is thread-count independent). A compute fault
    // aborts the attempt before anything is simulated: the caller
    // gets a cleanly failed attempt to retry, never a partially
    // built or corrupted result.
    NetworkRun pre;
    if (opt.fault != nullptr) {
        const AttemptFaults af = evaluateAttemptFaults(
            *opt.fault, opt.fault_id, layers.size());
        pre.fault_layer = af.fault_layer;
        pre.fault_count = af.fault_count;
        pre.stall_events = af.stall_events;
        pre.stall_cycles = af.stall_cycles;
        if (pre.faulted())
            return pre;
    }

    // Layers are independent simulations; fan them out and fold the
    // results in layer order so totals are bitwise identical to the
    // serial run.
    std::vector<LayerRun> runs(layers.size());
    const auto run_one = [&](int64_t i) {
        runs[static_cast<size_t>(i)] =
            runLayer(layers[static_cast<size_t>(i)], opt);
    };
    runIndexed(static_cast<int64_t>(layers.size()), run_one);
    NetworkRun nr = std::move(pre);
    for (LayerRun &lr : runs)
        nr.add(std::move(lr));
    return nr;
}

} // namespace s2ta
