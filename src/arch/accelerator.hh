/**
 * @file
 * Full-accelerator model: the TPE array plus the software-managed
 * SRAMs, DMA, the DAP array, and the Cortex-M33 MCU cluster (paper
 * Sec. 6.3, Fig. 7a). Runs whole CNN layers and networks, producing
 * per-layer event records for the energy model.
 */

#ifndef S2TA_ARCH_ACCELERATOR_HH
#define S2TA_ARCH_ACCELERATOR_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/array_model.hh"
#include "tensor/conv.hh"
#include "tensor/tensor.hh"

namespace s2ta {

class FaultInjector;
class ThreadPool;
struct CachedPlan;

/** System-level configuration around the array. */
struct AcceleratorConfig
{
    ArrayConfig array;
    /** Weight buffer (WB) capacity in bytes; 512 KB in the paper. */
    int64_t wgt_sram_bytes = 512ll * 1024;
    /** Activation buffer (AB) capacity in bytes; 2 MB in the paper. */
    int64_t act_sram_bytes = 2ll * 1024 * 1024;
    /** Sustained DMA bandwidth in bytes per array cycle. */
    double dma_bytes_per_cycle = 128.0;
    /** Cortex-M33 MCUs for non-GEMM work (4 in the paper). */
    int mcu_count = 4;
    /** Activation-function elements one MCU handles per cycle. */
    double mcu_elems_per_cycle = 8.0;
    /**
     * Simulation threads for runNetwork/runLayer: 0 = one lane per
     * hardware thread (the process-wide pool), 1 = serial, N > 1 =
     * a dedicated pool of exactly N lanes. Results are bitwise
     * identical in all cases (per-layer and per-group results are
     * reduced in order).
     */
    int sim_threads = 0;
};

/**
 * Per-run options for layer and network simulation: the GEMM-level
 * RunOptions knobs (engine, validation, plan cache, ...)
 * with the functional output off by default — network sweeps are
 * usually events-only.
 */
struct NetworkRunOptions : RunOptions
{
    NetworkRunOptions() { compute_output = false; }

    /**
     * Optional fault injector (LayerCompute / LayerStall sites).
     * Per-layer identities are combineId(fault_id, layer_index), so
     * callers that retry set a fresh fault_id per attempt (e.g.
     * combineId(request_id, attempt)) to model *transient* faults.
     * A compute fault aborts the whole attempt before simulation —
     * results are discarded, never corrupted — and a stall adds
     * virtual-time cycles without touching any event or output.
     */
    const FaultInjector *fault = nullptr;
    uint64_t fault_id = 0;
};

/**
 * Injected-fault outcome of one simulation *attempt*: the
 * LayerCompute / LayerStall decisions for every layer of the
 * attempt identified by @p attempt_id, evaluated in layer order
 * (identities combineId(attempt_id, layer)). This is the single
 * source of truth both Accelerator::runNetwork (which evaluates it
 * before simulating anything) and the fleet scheduler's serial
 * event loop (which re-rolls attempts without re-simulating —
 * results are attempt-independent) share, so the injector's exact
 * per-site counters reconcile no matter which path evaluated.
 */
struct AttemptFaults
{
    /** First layer whose compute fault aborts the attempt; -1 when
     *  the attempt survives. */
    int fault_layer = -1;
    /** Compute faults across the attempt's layers. */
    int64_t fault_count = 0;
    /** Injected stalls: virtual-time cycles only. */
    int64_t stall_events = 0;
    int64_t stall_cycles = 0;

    bool faulted() const { return fault_layer >= 0; }
};

/** Evaluate every per-layer fault site of one attempt (see
 *  AttemptFaults). Pure in (injector seed, attempt_id, n_layers)
 *  aside from the injector's counters. */
AttemptFaults evaluateAttemptFaults(const FaultInjector &fi,
                                    uint64_t attempt_id,
                                    size_t n_layers);

/**
 * One CNN layer plus the data it runs on. The tensors must already
 * carry the desired sparsity structure (W-DBB pruned weights,
 * DAP-structured activations); pruning is a property of the deployed
 * model, shared by every architecture under comparison (Sec. 8.3).
 */
struct LayerWorkload
{
    std::string name;
    Conv2dShape shape;
    /**
     * Samples run through the layer per request. Batch folds into
     * the GEMM M axis (sample-major rows), so every engine stays
     * bitwise identical across batch sizes: a batched output is
     * exactly the concatenation of the per-sample outputs.
     */
    int batch = 1;
    /** (in_h, in_w, in_c) activations at batch 1, or
     *  (batch, in_h, in_w, in_c) when batch > 1. */
    Int8Tensor input;
    /** (kernel_h, kernel_w, groupInC, out_c) weights. */
    Int8Tensor weights;
    /** A-DBB bound the input blocks satisfy (bz for dense). */
    int act_nnz = 8;
    /** W-DBB bound the weight blocks satisfy (bz for dense; dense
     *  layers run the S2TA dense-weight fallback). */
    int wgt_nnz = 4;
};

/** Per-layer simulation outcome. */
struct LayerRun
{
    std::string name;
    EventCounts events;
    /** Dense-equivalent MACs of the convolution. */
    int64_t dense_macs = 0;
    /** A-DBB density the array was configured with. */
    int act_nnz_used = 8;
    /** True when DMA, not compute, set the layer latency. */
    bool memory_bound = false;
    /** True when the MCU cluster's activation-function throughput,
     *  not compute or DMA, set the layer latency. */
    bool mcu_bound = false;
    /** Compute-only cycles (before the DMA and MCU bounds). */
    int64_t compute_cycles = 0;
    /** Samples the layer processed (the workload's batch). */
    int batch = 1;
    /** Functional conv output; empty unless requested. Shaped
     *  (outH, outW, out_c), with a leading batch dimension when
     *  the workload's batch is > 1. */
    Int32Tensor output;
    /** Host→device operand DMA bytes (weights + activations, with
     *  the streaming/refetch policy applied). Together with
     *  d2h_bytes this is the buffer-residency ledger an async
     *  device backend reconciles against:
     *  h2d_bytes + d2h_bytes == events.dma_bytes, always. */
    int64_t h2d_bytes = 0;
    /** Device→host result DMA bytes (the dense output tensor). */
    int64_t d2h_bytes = 0;
};

/**
 * Host-side ("driver") stage of one layer, split out of runLayer so
 * an asynchronous device backend (arch/backend.hh) can overlap it
 * with array execution: shape checks, the per-layer tightened array
 * config, im2col lowering, DBB encoding (or plan-cache acquisition)
 * and the DMA-traffic pricing — everything that happens before the
 * device is kicked. Movable; holds shared handles so cached
 * encodings stay alive while a queued command waits to execute.
 */
struct PreparedLayer
{
    /** Borrowed workload; must outlive executePrepared(). */
    const LayerWorkload *wl = nullptr;
    /** Array config with this layer's tightened DBB bounds. */
    ArrayConfig acfg;
    /** Stateless array model built for acfg. */
    std::shared_ptr<const ArrayModel> model;
    /** Plan-cache handles, one per group (cached path). */
    std::vector<std::shared_ptr<const CachedPlan>> cached;
    /** Lowered problems owned by this command (uncached paths);
     *  heap-held so the plans below stay valid across moves. */
    std::shared_ptr<std::vector<GemmProblem>> problems;
    /** Locally encoded plans over `problems` (uncached fast path;
     *  empty on the scalar path, which encodes nothing). */
    std::vector<std::shared_ptr<const GemmPlan>> plans;
    /** Content fingerprint of the input tensor (cached path). */
    uint64_t input_hash = 0;
    /** True when `cached` (not `problems`) carries the plans. */
    bool use_cache = false;
    /** Operand upload / result download bytes; see
     *  LayerRun::h2d_bytes. */
    int64_t h2d_bytes = 0;
    int64_t d2h_bytes = 0;
};

/** Whole-network simulation outcome. */
struct NetworkRun
{
    std::vector<LayerRun> layers;
    EventCounts total;
    int64_t dense_macs = 0;

    /** First layer whose injected compute fault aborted this
     *  attempt; -1 when the attempt completed. A faulted run
     *  carries no layer records (nothing was simulated). */
    int fault_layer = -1;
    /** Injected compute faults across this attempt's layers. */
    int64_t fault_count = 0;
    /** Injected stalls: timing-only, never reflected in events. */
    int64_t stall_events = 0;
    int64_t stall_cycles = 0;

    bool faulted() const { return fault_layer >= 0; }

    /** Fold a layer record into the totals. */
    void add(LayerRun lr);
};

/**
 * The accelerator: array model + SRAM/DMA/MCU bookkeeping.
 *
 * Thread-compatible: const after construction; each runLayer call is
 * independent.
 */
class Accelerator
{
  public:
    explicit Accelerator(AcceleratorConfig cfg);
    ~Accelerator();

    const AcceleratorConfig &config() const { return cfg; }

    /**
     * Simulate one convolution (or FC, expressed as 1x1 conv) layer.
     * Grouped layers fan their per-group GEMMs out across the
     * simulation threads; the per-group events are reduced in group
     * order, so results match the serial run bit for bit.
     */
    LayerRun runLayer(const LayerWorkload &wl,
                      const NetworkRunOptions &opt) const;

    /**
     * Host-side stage of runLayer: validate, build the per-layer
     * array model, lower and encode (or acquire from the plan
     * cache), and price the DMA traffic. No array cycles are
     * simulated. The returned command must be executed with the
     * same options it was prepared with.
     */
    PreparedLayer prepareLayer(const LayerWorkload &wl,
                               const NetworkRunOptions &opt) const;

    /**
     * Device-side stage of runLayer: run the array model over the
     * prepared per-group plans and fold events, outputs and the
     * DMA/MCU latency model. For any (wl, opt),
     * executePrepared(prepareLayer(wl, opt), opt) is bitwise
     * identical to runLayer(wl, opt) — it is its implementation.
     */
    LayerRun executePrepared(const PreparedLayer &prep,
                             const NetworkRunOptions &opt) const;

    /** Convenience overload matching the original API. */
    LayerRun
    runLayer(const LayerWorkload &wl,
             bool compute_output = false) const
    {
        NetworkRunOptions opt;
        opt.compute_output = compute_output;
        return runLayer(wl, opt);
    }

    /**
     * Simulate a sequence of layers and accumulate totals. Layers
     * run concurrently across the simulation threads; totals are
     * folded in layer order (bitwise identical to serial).
     */
    NetworkRun runNetwork(const std::vector<LayerWorkload> &layers,
                          const NetworkRunOptions &opt) const;

    /** Convenience overload matching the original API. */
    NetworkRun
    runNetwork(const std::vector<LayerWorkload> &layers,
               bool compute_output = false) const
    {
        NetworkRunOptions opt;
        opt.compute_output = compute_output;
        return runNetwork(layers, opt);
    }

  private:
    /** DBB architectures need 8-aligned im2col channel segments. */
    int channelAlign() const;

    /** Run fn(i) over [0, n) on the configured lane count. */
    void runIndexed(int64_t n,
                    const std::function<void(int64_t)> &fn) const;

    /** Pool functional GEMM kernels shard row stripes onto
     *  (nullptr when the accelerator is configured serial). */
    ThreadPool *shardPool() const;

    AcceleratorConfig cfg;
    /** Dedicated pool when sim_threads > 1; else serial/global. */
    std::unique_ptr<ThreadPool> own_pool;
};

} // namespace s2ta

#endif // S2TA_ARCH_ACCELERATOR_HH
