/** @file Unit tests for the full-accelerator (layer/network) model. */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/accelerator.hh"
#include "workload/model_workloads.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

/** A small conv layer workload with the requested structure. */
LayerWorkload
smallLayer(int act_nnz, int wgt_nnz, Rng &rng)
{
    LayerWorkload wl;
    wl.name = "test_conv";
    wl.shape = {16, 10, 10, 24, 3, 3, 1, 1, 1};
    wl.act_nnz = act_nnz;
    wl.wgt_nnz = wgt_nnz;
    wl.input = act_nnz >= 8
                   ? makeUnstructuredTensor({10, 10, 16}, 0.4, rng)
                   : makeDbbTensor({10, 10, 16}, act_nnz, rng);
    // Weight blocks along cin: generate channel-innermost and
    // transpose.
    Int8Tensor tmp = wgt_nnz >= 8
                         ? makeUnstructuredTensor({3, 3, 24, 16},
                                                  0.2, rng)
                         : makeDbbTensor({3, 3, 24, 16}, wgt_nnz,
                                         rng);
    wl.weights = Int8Tensor({3, 3, 16, 24});
    for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
            for (int c = 0; c < 16; ++c)
                for (int oc = 0; oc < 24; ++oc)
                    wl.weights(ky, kx, c, oc) = tmp(ky, kx, oc, c);
    return wl;
}

AcceleratorConfig
configFor(ArrayConfig array)
{
    AcceleratorConfig cfg;
    cfg.array = array;
    return cfg;
}

TEST(Accelerator, FunctionalOutputMatchesConvReference)
{
    Rng rng(1);
    const LayerWorkload wl = smallLayer(3, 4, rng);
    for (const ArrayConfig &array :
         {ArrayConfig::sa(), ArrayConfig::saZvcg(),
          ArrayConfig::saSmt(2), ArrayConfig::s2taW(),
          ArrayConfig::s2taAw(3)}) {
        const Accelerator acc(configFor(array));
        const LayerRun lr = acc.runLayer(wl, true);
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(lr.output == ref) << array.name();
    }
}

TEST(Accelerator, DepthwiseLayerRunsOnAllArchitectures)
{
    Rng rng(2);
    LayerWorkload wl;
    wl.name = "dw";
    wl.shape = {16, 8, 8, 16, 3, 3, 1, 1, 16};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({8, 8, 16}, 4, rng);
    wl.weights = makeUnstructuredTensor({3, 3, 1, 16}, 0.0, rng);
    for (const ArrayConfig &array :
         {ArrayConfig::saZvcg(), ArrayConfig::s2taW(),
          ArrayConfig::s2taAw(4)}) {
        const Accelerator acc(configFor(array));
        const LayerRun lr = acc.runLayer(wl, true);
        const Int32Tensor ref =
            convReference(wl.shape, wl.input, wl.weights);
        EXPECT_TRUE(lr.output == ref) << array.name();
    }
}

TEST(Accelerator, FcLayersAreMemoryBound)
{
    Rng rng(3);
    LayerWorkload wl;
    wl.name = "fc";
    wl.shape = {4096, 1, 1, 1000, 1, 1, 1, 0, 1};
    wl.act_nnz = 4;
    wl.wgt_nnz = 4;
    wl.input = makeDbbTensor({1, 1, 4096}, 4, rng);
    wl.weights = makeDbbTensor({1, 1, 1000, 4096}, 4, rng);
    // Transpose into (1, 1, cin, cout).
    Int8Tensor w({1, 1, 4096, 1000});
    for (int c = 0; c < 4096; ++c)
        for (int oc = 0; oc < 1000; ++oc)
            w(0, 0, c, oc) = wl.weights(0, 0, oc, c);
    wl.weights = std::move(w);

    const Accelerator acc(configFor(ArrayConfig::s2taAw(4)));
    const LayerRun lr = acc.runLayer(wl);
    // Batch-1 FC: DMA (weight streaming) dominates (Sec. 8.3).
    EXPECT_TRUE(lr.memory_bound);
    EXPECT_GT(lr.events.cycles, lr.compute_cycles);
}

TEST(Accelerator, McuBottleneckIsMarkedAndSetsLatency)
{
    // One MCU cannot keep up with this layer's activation-function
    // stream: the layer takes the MCU latency and is marked, while
    // the paper's 4-MCU cluster keeps up with the same layer.
    Rng rng(8);
    const LayerWorkload wl = smallLayer(3, 4, rng);
    AcceleratorConfig cfg = configFor(ArrayConfig::s2taAw(3));
    const LayerRun paper = Accelerator(cfg).runLayer(wl);
    EXPECT_FALSE(paper.mcu_bound);

    cfg.mcu_count = 1;
    const LayerRun lr = Accelerator(cfg).runLayer(wl);
    ASSERT_TRUE(lr.mcu_bound);
    const double tput = cfg.mcu_count * cfg.mcu_elems_per_cycle;
    EXPECT_EQ(lr.events.cycles,
              static_cast<int64_t>(std::ceil(
                  static_cast<double>(lr.events.actfn_elements) /
                  tput)));
    EXPECT_GT(lr.events.cycles, lr.compute_cycles);
    // Only the latency moves: compute and every other event stay.
    EXPECT_EQ(lr.compute_cycles, paper.compute_cycles);
    EXPECT_EQ(lr.events.macs_executed, paper.events.macs_executed);
    EXPECT_EQ(lr.events.dma_bytes, paper.events.dma_bytes);

    cfg.mcu_count = 0;
    EXPECT_DEATH({ const Accelerator acc(cfg); },
                 "non-positive MCU throughput");
}

TEST(Accelerator, DapComparisonsOnlyOnS2taAw)
{
    Rng rng(4);
    const LayerWorkload wl = smallLayer(3, 4, rng);
    const Accelerator aw(configFor(ArrayConfig::s2taAw(3)));
    const Accelerator zvcg(configFor(ArrayConfig::saZvcg()));
    EXPECT_GT(aw.runLayer(wl).events.dap_comparisons, 0);
    EXPECT_EQ(zvcg.runLayer(wl).events.dap_comparisons, 0);
}

TEST(Accelerator, DmaCompressesDbbOperands)
{
    Rng rng(5);
    const LayerWorkload wl = smallLayer(2, 4, rng);
    const Accelerator aw(configFor(ArrayConfig::s2taAw(2)));
    const Accelerator sa(configFor(ArrayConfig::sa()));
    const int64_t dma_aw = aw.runLayer(wl).events.dma_bytes;
    const int64_t dma_sa = sa.runLayer(wl).events.dma_bytes;
    EXPECT_LT(dma_aw, dma_sa);
}

TEST(Accelerator, NetworkRunAccumulatesLayers)
{
    Rng rng(6);
    std::vector<LayerWorkload> layers = {smallLayer(3, 4, rng),
                                         smallLayer(4, 4, rng)};
    const Accelerator acc(configFor(ArrayConfig::s2taAw(3)));
    const NetworkRun nr = acc.runNetwork(layers);
    ASSERT_EQ(nr.layers.size(), 2u);
    EXPECT_EQ(nr.total.cycles, nr.layers[0].events.cycles +
                                   nr.layers[1].events.cycles);
    EXPECT_EQ(nr.dense_macs, nr.layers[0].dense_macs +
                                 nr.layers[1].dense_macs);
}

TEST(Accelerator, LeNetWorkloadEndToEnd)
{
    // Whole-model integration on the smallest zoo model.
    Rng rng(7);
    const ModelWorkload mw = buildModelWorkload(leNet5(), rng);
    for (const ArrayConfig &array :
         {ArrayConfig::saZvcg(), ArrayConfig::s2taAw(4)}) {
        const Accelerator acc(configFor(array));
        const NetworkRun nr = acc.runNetwork(mw.layers);
        EXPECT_EQ(nr.layers.size(), mw.layers.size());
        EXPECT_GT(nr.total.cycles, 0);
        EXPECT_EQ(nr.dense_macs, mw.spec.totalMacs());
    }
}

} // anonymous namespace
} // namespace s2ta
