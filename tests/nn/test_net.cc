/** @file Unit tests for the training substrate, including numerical
 *  gradient checks for every trainable layer. */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/net.hh"

namespace s2ta {
namespace {

/** Scalar loss = sum of logits * coeffs, with analytic gradient. */
float
lossOf(const FloatTensor &out, const FloatTensor &coeffs)
{
    float l = 0.0f;
    for (int64_t i = 0; i < out.size(); ++i)
        l += out.flat(i) * coeffs.flat(i);
    return l;
}

/**
 * Numerical vs analytic input gradient for a single layer.
 * Perturbs each input element and compares the finite difference
 * against the backward() result.
 */
void
checkInputGradient(Layer &layer, FloatTensor x, double tol = 2e-2)
{
    Rng rng(99);
    FloatTensor out = layer.forward(x, true);
    FloatTensor coeffs(out.shape());
    for (int64_t i = 0; i < coeffs.size(); ++i)
        coeffs.flat(i) =
            static_cast<float>(rng.uniformReal(-1.0, 1.0));

    const FloatTensor gx = layer.backward(coeffs);
    ASSERT_EQ(gx.shape(), x.shape());

    const float eps = 1e-2f;
    // Probe a deterministic subset of elements.
    for (int64_t i = 0; i < x.size();
         i += std::max<int64_t>(1, x.size() / 17)) {
        FloatTensor xp = x;
        xp.flat(i) += eps;
        FloatTensor xm = x;
        xm.flat(i) -= eps;
        const float lp = lossOf(layer.forward(xp, false), coeffs);
        const float lm = lossOf(layer.forward(xm, false), coeffs);
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(gx.flat(i), numeric,
                    tol * std::max(1.0, std::fabs(numeric)))
            << "element " << i;
    }
}

/**
 * Numerical vs analytic parameter gradients (every weight and bias
 * element) for a single layer. backward() accumulates them inside
 * the layer, so they are read back through step(lr = 1,
 * momentum = 0, batch = 1), which subtracts each gradient from its
 * parameter: the gradient is the old parameter minus the new one.
 */
void
checkParameterGradients(Layer &layer, const FloatTensor &x,
                        double tol = 2e-2)
{
    Rng rng(98);
    const FloatTensor out = layer.forward(x, true);
    FloatTensor coeffs(out.shape());
    for (int64_t i = 0; i < coeffs.size(); ++i)
        coeffs.flat(i) =
            static_cast<float>(rng.uniformReal(-1.0, 1.0));
    layer.backward(coeffs);

    const std::vector<FloatTensor *> params = layer.parameters();
    ASSERT_EQ(params.size(), 2u);
    std::vector<FloatTensor> grads;
    for (FloatTensor *p : params)
        grads.push_back(*p);
    layer.step(1.0f, 0.0f, 1);
    for (size_t k = 0; k < params.size(); ++k) {
        FloatTensor &p = *params[k];
        for (int64_t i = 0; i < p.size(); ++i) {
            const float old_v = grads[k].flat(i);
            grads[k].flat(i) = old_v - p.flat(i);
            p.flat(i) = old_v;
        }
    }

    const float eps = 1e-2f;
    for (size_t k = 0; k < params.size(); ++k) {
        FloatTensor &p = *params[k];
        for (int64_t i = 0; i < p.size(); ++i) {
            const float v = p.flat(i);
            p.flat(i) = v + eps;
            const float lp = lossOf(layer.forward(x, false), coeffs);
            p.flat(i) = v - eps;
            const float lm = lossOf(layer.forward(x, false), coeffs);
            p.flat(i) = v;
            const double numeric = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(grads[k].flat(i), numeric,
                        tol * std::max(1.0, std::fabs(numeric)))
                << "parameter " << k << " element " << i;
        }
    }
}

FloatTensor
randomInput(std::vector<int> shape, uint64_t seed)
{
    Rng rng(seed);
    FloatTensor t(std::move(shape));
    for (int64_t i = 0; i < t.size(); ++i)
        t.flat(i) = static_cast<float>(rng.normal(0.0, 1.0));
    return t;
}

TEST(GradCheck, ConvLayer)
{
    Rng rng(1);
    ConvLayer conv(3, 4, 3, 1, rng);
    checkInputGradient(conv, randomInput({5, 5, 3}, 11));
}

TEST(GradCheck, DenseLayer)
{
    Rng rng(2);
    DenseLayer dense(10, 7, rng);
    checkInputGradient(dense, randomInput({10}, 12));
}

TEST(GradCheck, ConvLayerWeightsAndBias)
{
    // A non-square input, so swapped height and width indexing
    // shows.
    Rng rng(5);
    ConvLayer conv(3, 4, 3, 1, rng);
    checkParameterGradients(conv, randomInput({5, 6, 3}, 14));
}

TEST(GradCheck, DenseLayerWeightsAndBias)
{
    Rng rng(6);
    DenseLayer dense(10, 7, rng);
    checkParameterGradients(dense, randomInput({10}, 15));
}

TEST(GradCheck, ConvBackwardRejectsMismatchedGradOut)
{
    Rng rng(7);
    ConvLayer conv(3, 4, 3, 1, rng);
    conv.forward(randomInput({5, 6, 3}, 16), true);
    EXPECT_DEATH(conv.backward(FloatTensor({5, 5, 4})),
                 "grad_out shape");
    EXPECT_DEATH(conv.backward(FloatTensor({5, 6, 3})),
                 "grad_out shape");
}

TEST(GradCheck, ReluLayer)
{
    ReluLayer relu;
    // Keep activations away from the kink for finite differences.
    FloatTensor x = randomInput({4, 4, 3}, 13);
    for (int64_t i = 0; i < x.size(); ++i)
        if (std::fabs(x.flat(i)) < 0.05f)
            x.flat(i) = 0.2f;
    checkInputGradient(relu, x);
}

TEST(GradCheck, DapLayerStraightThrough)
{
    // With DAP active, the gradient must be the binary keep mask:
    // surviving positions pass gradient, pruned ones block it.
    DapLayer dap(2, 8);
    FloatTensor x({1, 1, 8});
    const float vals[8] = {0.1f, -0.9f, 0.2f, 0.5f,
                           -0.05f, 0.3f, 0.02f, -0.01f};
    for (int c = 0; c < 8; ++c)
        x(0, 0, c) = vals[c];
    FloatTensor out = dap.forward(x, true);
    // Survivors: positions 1 (|-0.9|) and 3 (0.5).
    EXPECT_FLOAT_EQ(out(0, 0, 1), -0.9f);
    EXPECT_FLOAT_EQ(out(0, 0, 3), 0.5f);
    EXPECT_FLOAT_EQ(out(0, 0, 0), 0.0f);

    FloatTensor go({1, 1, 8});
    go.fill(1.0f);
    const FloatTensor gx = dap.backward(go);
    for (int c = 0; c < 8; ++c)
        EXPECT_FLOAT_EQ(gx(0, 0, c), (c == 1 || c == 3) ? 1.0f : 0.0f);
}

TEST(Layers, MaxPoolForwardAndGradientRouting)
{
    MaxPoolLayer pool;
    FloatTensor x({4, 4, 1});
    for (int y = 0; y < 4; ++y)
        for (int xx = 0; xx < 4; ++xx)
            x(y, xx, 0) = static_cast<float>(y * 4 + xx);
    FloatTensor out = pool.forward(x, true);
    ASSERT_EQ(out.shape(), (std::vector<int>{2, 2, 1}));
    EXPECT_FLOAT_EQ(out(0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out(1, 1, 0), 15.0f);

    FloatTensor go({2, 2, 1});
    go.fill(1.0f);
    const FloatTensor gx = pool.backward(go);
    // Gradient flows only to the argmax positions.
    EXPECT_FLOAT_EQ(gx(1, 1, 0), 1.0f);
    EXPECT_FLOAT_EQ(gx(3, 3, 0), 1.0f);
    EXPECT_FLOAT_EQ(gx(0, 0, 0), 0.0f);
}

TEST(Layers, SoftmaxCrossEntropyGradient)
{
    FloatTensor logits({4});
    logits(0) = 1.0f;
    logits(1) = 2.0f;
    logits(2) = 0.5f;
    logits(3) = -1.0f;
    FloatTensor grad;
    const float loss = softmaxCrossEntropy(logits, 1, grad);
    EXPECT_GT(loss, 0.0f);
    // Gradient sums to zero and is negative only at the label.
    float sum = 0.0f;
    for (int i = 0; i < 4; ++i)
        sum += grad(i);
    EXPECT_NEAR(sum, 0.0f, 1e-5f);
    EXPECT_LT(grad(1), 0.0f);
    EXPECT_GT(grad(0), 0.0f);
}

TEST(Network, WeightDbbProjectionHoldsOnAllLayers)
{
    Rng rng(3);
    Network net;
    net.add<ConvLayer>(8, 8, 3, 1, rng);
    net.add<FlattenLayer>();
    net.add<DenseLayer>(8 * 6 * 6, 10, rng);

    net.applyWeightDbb(DbbSpec{2, 8});
    for (const auto &l : net.all()) {
        FloatTensor *w = l->weights();
        if (w == nullptr)
            continue;
        const int dim = l->dbbDim();
        ASSERT_GE(dim, 0);
        // Spot-check: count non-zeros along the blocking dim.
        // For conv (k,k,cin,cout): fix (0,0,*,0); for dense
        // (in,out): fix (*,0).
        int nz = 0;
        const int len = w->dim(dim);
        for (int c = 0; c < std::min(len, 8); ++c) {
            const float v = dim == 2 ? (*w)(0, 0, c, 0)
                                     : (*w)(c, 0);
            nz += v != 0.0f;
        }
        EXPECT_LE(nz, 2);
    }
}

TEST(Network, FakeQuantizeKeepsZeroAndBounds)
{
    Rng rng(4);
    Network net;
    net.add<DenseLayer>(16, 4, rng);
    FloatTensor *w = net.all()[0]->weights();
    (*w)(0, 0) = 0.0f;
    net.fakeQuantizeWeightsInt8();
    EXPECT_FLOAT_EQ((*w)(0, 0), 0.0f);
    // All values sit on the INT8 grid.
    float max_abs = 0.0f;
    for (int64_t i = 0; i < w->size(); ++i)
        max_abs = std::max(max_abs, std::fabs(w->flat(i)));
    const float scale = max_abs / 127.0f;
    for (int64_t i = 0; i < w->size(); ++i) {
        const float q = w->flat(i) / scale;
        EXPECT_NEAR(q, std::nearbyint(q), 1e-3f);
    }
}

} // anonymous namespace
} // namespace s2ta
