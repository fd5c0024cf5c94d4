/**
 * @file
 * Full-accelerator model: the TPE array plus the software-managed
 * SRAMs, DMA, the DAP array, and the Cortex-M33 MCU cluster (paper
 * Sec. 6.3, Fig. 7a). Runs whole CNN layers and networks, producing
 * per-layer event records for the energy model.
 *
 * On the fast engine every conv layer is one GEMM with a group axis
 * (one group unless the layer is grouped or depthwise): one plan
 * over the input's masks, one plan-cache entry and, when outputs are
 * computed, one lowering and one kernel call that writes the layer's
 * output. The scalar reference engine runs one GEMM per group and
 * scatters each result into the output.
 */

#ifndef S2TA_ARCH_ACCELERATOR_HH
#define S2TA_ARCH_ACCELERATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/array_model.hh"
#include "tensor/conv.hh"
#include "tensor/tensor.hh"

namespace s2ta {

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
     * a dedicated pool of exactly N lanes. Layers fan out across
     * the lanes; within a layer, a first-sight plan build splits
     * its weight-mask bands and profiles and the functional kernel
     * its row stripes over the same lanes, which a layer's nested
     * work reaches whenever other lanes are idle. Results are
     * bitwise identical in all cases (per-layer results are reduced
     * in order).
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
};

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
};

/**
 * Host-side stage of one layer, split out of runLayer so a traced
 * pass can time it apart from array execution: shape checks, the
 * per-layer tightened array config, DBB encoding (with im2col
 * lowering when outputs are computed) or plan-cache acquisition, and
 * the DMA-traffic pricing —
 * everything that happens before the array runs. Movable; holds
 * shared handles so cached encodings stay alive until
 * executePrepared() has run.
 */
struct PreparedLayer
{
    /** Borrowed workload; must outlive executePrepared(). */
    const LayerWorkload *wl = nullptr;
    /** Array config with this layer's tightened DBB bounds. */
    ArrayConfig acfg;
    /** Stateless array model built for acfg. */
    std::shared_ptr<const ArrayModel> model;
    /** Fast engine: one entry, the layer's grouped GEMM and its
     *  plan, from the plan cache or built for this visit. Empty on
     *  the scalar engine. */
    std::vector<std::shared_ptr<const CachedPlan>> cached;
    /** Scalar engine: one lowered GEMM per group. */
    std::vector<GemmProblem> problems;
    /** True when `cached` came from RunOptions::plan_cache. */
    bool use_cache = false;
    /** DMA bytes of the layer: operands in (weights +
     *  activations, with the streaming/refetch policy applied) plus
     *  the dense output tensor out. Becomes events.dma_bytes. */
    int64_t dma_bytes = 0;
};

/** Whole-network simulation outcome. */
struct NetworkRun
{
    std::vector<LayerRun> layers;
    EventCounts total;
    int64_t dense_macs = 0;

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
     * On the fast engine a layer is one GEMM with a group axis (one
     * group unless the layer is grouped or depthwise): one plan, one
     * cache entry and, with outputs, one lowering and one kernel
     * call, its events summed over the groups in group order. The
     * scalar engine runs one GEMM per group.
     */
    LayerRun runLayer(const LayerWorkload &wl,
                      const NetworkRunOptions &opt) const;

    /**
     * Host-side stage of runLayer: validate, build the per-layer
     * array model, encode (or acquire from the plan cache), and
     * price the DMA traffic. No array cycles are
     * simulated. The result must be executed with the same options
     * it was prepared with.
     */
    PreparedLayer prepareLayer(const LayerWorkload &wl,
                               const NetworkRunOptions &opt) const;

    /**
     * Device-side stage of runLayer: run the array model over the
     * prepared plan (or the scalar engine's per-group GEMMs) and
     * fold events, outputs and the DMA/MCU latency model. For any (wl, opt),
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

    /** Pool the layer fan-out, first-sight plan builds and
     *  functional GEMM kernels split their work over (nullptr when
     *  the accelerator is configured serial). */
    ThreadPool *shardPool() const;

    AcceleratorConfig cfg;
    /** Dedicated pool when sim_threads > 1; else serial/global. */
    std::unique_ptr<ThreadPool> own_pool;
};

} // namespace s2ta

#endif // S2TA_ARCH_ACCELERATOR_HH
