#include "nn/net.hh"

#include <cmath>
#include <utility>

#include "core/topk.hh"
#include "core/weight_pruner.hh"

namespace s2ta {

namespace {

/** He-uniform initialization bound for fan_in inputs. */
float
initBound(int fan_in)
{
    return std::sqrt(6.0f / static_cast<float>(fan_in));
}

/** SGD + momentum update for one parameter tensor. */
void
sgdUpdate(FloatTensor &param, FloatTensor &grad, FloatTensor &vel,
          float lr, float momentum, int batch)
{
    s2ta_assert(grad.shape() == param.shape() &&
                    vel.shape() == param.shape(),
                "sgd state shape mismatch");
    const float scale = 1.0f / static_cast<float>(batch);
    float *p = param.data();
    float *g = grad.data();
    float *v = vel.data();
    for (int64_t i = 0; i < param.size(); ++i) {
        const float gi = g[i] * scale;
        v[i] = momentum * v[i] - lr * gi;
        p[i] += v[i];
        g[i] = 0.0f;
    }
}

/** Assert that a layer's weights, bias and their gradients have
 *  the shapes its loops index through raw pointers; the bias has
 *  one element per output, the weights' last dimension. */
void
checkParameterShapes(const FloatTensor &w, const FloatTensor &bias,
                     const FloatTensor &gw, const FloatTensor &gbias,
                     const std::vector<int> &wshape)
{
    s2ta_assert(w.shape() == wshape && gw.shape() == wshape,
                "weight shape mismatch");
    s2ta_assert(bias.shape() == std::vector<int>{wshape.back()} &&
                    gbias.shape() == bias.shape(),
                "bias shape mismatch");
}

} // anonymous namespace

// ---------------------------------------------------------------
// ConvLayer
// ---------------------------------------------------------------

ConvLayer::ConvLayer(int in_c_, int out_c_, int kernel_, int pad_,
                     Rng &rng)
    : in_c(in_c_), out_c(out_c_), kernel(kernel_), pad(pad_),
      w({kernel_, kernel_, in_c_, out_c_}),
      bias({out_c_}),
      gw(w.shape()), gbias(bias.shape()),
      vw(w.shape()), vbias(bias.shape())
{
    const float bound = initBound(kernel * kernel * in_c);
    for (int64_t i = 0; i < w.size(); ++i)
        w.flat(i) = static_cast<float>(rng.uniformReal(-bound, bound));
}

FloatTensor
ConvLayer::forward(const FloatTensor &x, bool train)
{
    s2ta_assert(x.rank() == 3 && x.dim(2) == in_c,
                "conv input shape mismatch");
    checkParameterShapes(w, bias, gw, gbias,
                         {kernel, kernel, in_c, out_c});
    if (train)
        last_in = x;
    const int ih = x.dim(0), iw = x.dim(1);
    const int oh = ih + 2 * pad - kernel + 1;
    const int ow = iw + 2 * pad - kernel + 1;
    FloatTensor y({oh, ow, out_c});
    const float *xd = x.data();
    const float *wd = std::as_const(w).data();
    const float *bd = std::as_const(bias).data();
    float *yd = y.data();
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            float *yp = yd + (int64_t{oy} * ow + ox) * out_c;
            for (int oc = 0; oc < out_c; ++oc)
                yp[oc] = bd[oc];
            for (int ky = 0; ky < kernel; ++ky) {
                const int iy = oy + ky - pad;
                if (iy < 0 || iy >= ih)
                    continue;
                for (int kx = 0; kx < kernel; ++kx) {
                    const int ix = ox + kx - pad;
                    if (ix < 0 || ix >= iw)
                        continue;
                    const float *xp =
                        xd + (int64_t{iy} * iw + ix) * in_c;
                    const float *wtap =
                        wd + int64_t{ky * kernel + kx} * in_c * out_c;
                    for (int c = 0; c < in_c; ++c) {
                        const float xv = xp[c];
                        if (xv == 0.0f)
                            continue;
                        const float *wp = wtap + int64_t{c} * out_c;
                        for (int oc = 0; oc < out_c; ++oc)
                            yp[oc] += xv * wp[oc];
                    }
                }
            }
        }
    }
    return y;
}

FloatTensor
ConvLayer::backward(const FloatTensor &grad_out)
{
    const FloatTensor &x = last_in;
    s2ta_assert(x.rank() == 3 && x.dim(2) == in_c,
                "conv backward without a training forward");
    checkParameterShapes(w, bias, gw, gbias,
                         {kernel, kernel, in_c, out_c});
    const int ih = x.dim(0), iw = x.dim(1);
    const int oh = ih + 2 * pad - kernel + 1;
    const int ow = iw + 2 * pad - kernel + 1;
    s2ta_assert(grad_out.rank() == 3 && grad_out.dim(0) == oh &&
                    grad_out.dim(1) == ow && grad_out.dim(2) == out_c,
                "conv grad_out shape mismatch");
    FloatTensor gx(x.shape());
    const float *xd = x.data();
    const float *god = grad_out.data();
    const float *wd = std::as_const(w).data();
    float *gxd = gx.data();
    float *gwd = gw.data();
    float *gbd = gbias.data();
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            const float *gop = god + (int64_t{oy} * ow + ox) * out_c;
            for (int oc = 0; oc < out_c; ++oc)
                gbd[oc] += gop[oc];
            for (int ky = 0; ky < kernel; ++ky) {
                const int iy = oy + ky - pad;
                if (iy < 0 || iy >= ih)
                    continue;
                for (int kx = 0; kx < kernel; ++kx) {
                    const int ix = ox + kx - pad;
                    if (ix < 0 || ix >= iw)
                        continue;
                    const int64_t in_off =
                        (int64_t{iy} * iw + ix) * in_c;
                    const int64_t tap =
                        int64_t{ky * kernel + kx} * in_c * out_c;
                    for (int c = 0; c < in_c; ++c) {
                        const float xv = xd[in_off + c];
                        const float *wp = wd + tap + int64_t{c} * out_c;
                        float *gwp = gwd + tap + int64_t{c} * out_c;
                        float gx_acc = 0.0f;
                        for (int oc = 0; oc < out_c; ++oc) {
                            const float go = gop[oc];
                            gwp[oc] += xv * go;
                            gx_acc += go * wp[oc];
                        }
                        gxd[in_off + c] += gx_acc;
                    }
                }
            }
        }
    }
    return gx;
}

void
ConvLayer::step(float lr, float momentum, int batch)
{
    sgdUpdate(w, gw, vw, lr, momentum, batch);
    sgdUpdate(bias, gbias, vbias, lr, momentum, batch);
}

std::string
ConvLayer::describe() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "conv%dx%d %d->%d", kernel,
                  kernel, in_c, out_c);
    return buf;
}

// ---------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------

DenseLayer::DenseLayer(int in_f_, int out_f_, Rng &rng)
    : in_f(in_f_), out_f(out_f_),
      w({in_f_, out_f_}), bias({out_f_}),
      gw(w.shape()), gbias(bias.shape()),
      vw(w.shape()), vbias(bias.shape())
{
    const float bound = initBound(in_f);
    for (int64_t i = 0; i < w.size(); ++i)
        w.flat(i) = static_cast<float>(rng.uniformReal(-bound, bound));
}

FloatTensor
DenseLayer::forward(const FloatTensor &x, bool train)
{
    s2ta_assert(x.rank() == 1 && x.dim(0) == in_f,
                "dense input shape mismatch");
    checkParameterShapes(w, bias, gw, gbias, {in_f, out_f});
    if (train)
        last_in = x;
    FloatTensor y({out_f});
    const float *xd = x.data();
    const float *wd = std::as_const(w).data();
    const float *bd = std::as_const(bias).data();
    float *yd = y.data();
    for (int o = 0; o < out_f; ++o)
        yd[o] = bd[o];
    for (int i = 0; i < in_f; ++i) {
        const float xv = xd[i];
        if (xv == 0.0f)
            continue;
        const float *wp = wd + int64_t{i} * out_f;
        for (int o = 0; o < out_f; ++o)
            yd[o] += xv * wp[o];
    }
    return y;
}

FloatTensor
DenseLayer::backward(const FloatTensor &grad_out)
{
    s2ta_assert(last_in.rank() == 1 && last_in.dim(0) == in_f,
                "dense backward without a training forward");
    s2ta_assert(grad_out.rank() == 1 && grad_out.dim(0) == out_f,
                "dense grad_out shape mismatch");
    checkParameterShapes(w, bias, gw, gbias, {in_f, out_f});
    FloatTensor gx({in_f});
    const float *xd = std::as_const(last_in).data();
    const float *god = grad_out.data();
    const float *wd = std::as_const(w).data();
    float *gxd = gx.data();
    float *gwd = gw.data();
    float *gbd = gbias.data();
    for (int o = 0; o < out_f; ++o)
        gbd[o] += god[o];
    for (int i = 0; i < in_f; ++i) {
        const float xv = xd[i];
        const float *wp = wd + int64_t{i} * out_f;
        float *gwp = gwd + int64_t{i} * out_f;
        float acc = 0.0f;
        for (int o = 0; o < out_f; ++o) {
            const float go = god[o];
            gwp[o] += xv * go;
            acc += go * wp[o];
        }
        gxd[i] = acc;
    }
    return gx;
}

void
DenseLayer::step(float lr, float momentum, int batch)
{
    sgdUpdate(w, gw, vw, lr, momentum, batch);
    sgdUpdate(bias, gbias, vbias, lr, momentum, batch);
}

std::string
DenseLayer::describe() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "dense %d->%d", in_f, out_f);
    return buf;
}

// ---------------------------------------------------------------
// ReluLayer / MaxPoolLayer / FlattenLayer
// ---------------------------------------------------------------

FloatTensor
ReluLayer::forward(const FloatTensor &x, bool train)
{
    if (train)
        last_in = x;
    FloatTensor y(x.shape());
    for (int64_t i = 0; i < x.size(); ++i)
        y.flat(i) = x.flat(i) > 0.0f ? x.flat(i) : 0.0f;
    return y;
}

FloatTensor
ReluLayer::backward(const FloatTensor &grad_out)
{
    FloatTensor gx(grad_out.shape());
    for (int64_t i = 0; i < gx.size(); ++i)
        gx.flat(i) = last_in.flat(i) > 0.0f ? grad_out.flat(i) : 0.0f;
    return gx;
}

FloatTensor
MaxPoolLayer::forward(const FloatTensor &x, bool train)
{
    s2ta_assert(x.rank() == 3, "pool input must be (H, W, C)");
    const int ih = x.dim(0), iw = x.dim(1), c = x.dim(2);
    const int oh = ih / 2, ow = iw / 2;
    FloatTensor y({oh, ow, c});
    if (train) {
        last_in = x;
        argmax.assign(static_cast<size_t>(y.size()), 0);
        out_shape = y.shape();
    }
    int64_t oidx = 0;
    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            for (int ch = 0; ch < c; ++ch, ++oidx) {
                float best = -1e30f;
                int64_t best_idx = 0;
                for (int dy = 0; dy < 2; ++dy) {
                    for (int dx = 0; dx < 2; ++dx) {
                        const int iy = oy * 2 + dy;
                        const int ix = ox * 2 + dx;
                        const float v = x(iy, ix, ch);
                        if (v > best) {
                            best = v;
                            best_idx =
                                (static_cast<int64_t>(iy) * iw + ix)
                                    * c + ch;
                        }
                    }
                }
                y.flat(oidx) = best;
                if (train)
                    argmax[static_cast<size_t>(oidx)] = best_idx;
            }
        }
    }
    return y;
}

FloatTensor
MaxPoolLayer::backward(const FloatTensor &grad_out)
{
    FloatTensor gx(last_in.shape());
    for (int64_t i = 0; i < grad_out.size(); ++i)
        gx.flat(argmax[static_cast<size_t>(i)]) += grad_out.flat(i);
    return gx;
}

FloatTensor
FlattenLayer::forward(const FloatTensor &x, bool train)
{
    if (train)
        in_shape = x.shape();
    FloatTensor y = x;
    y.reshape({static_cast<int>(x.size())});
    return y;
}

FloatTensor
FlattenLayer::backward(const FloatTensor &grad_out)
{
    FloatTensor gx = grad_out;
    gx.reshape(in_shape);
    return gx;
}

// ---------------------------------------------------------------
// DapLayer
// ---------------------------------------------------------------

DapLayer::DapLayer(int nnz_, int bz_) : nnz(nnz_), bz(bz_)
{
    s2ta_assert(bz >= 1 && bz <= 8, "bz=%d", bz);
    s2ta_assert(nnz >= 1 && nnz <= bz, "nnz=%d", nnz);
}

FloatTensor
DapLayer::forward(const FloatTensor &x, bool train)
{
    if (nnz >= bz) {
        if (train) {
            last_mask = FloatTensor(x.shape());
            last_mask.fill(1.0f);
        }
        return x;
    }
    const int channels = x.dim(x.rank() - 1);
    FloatTensor y = x;
    FloatTensor mask(x.shape());
    mask.fill(0.0f);
    float *data = y.data();
    float *mdata = mask.data();
    for (int64_t base = 0; base < y.size(); base += channels) {
        for (int off = 0; off < channels; off += bz) {
            const int len = std::min(bz, channels - off);
            const int bound = std::min(nnz, len);
            std::span<float> blk(data + base + off,
                                 static_cast<size_t>(len));
            const Mask8 keep =
                topNnzMask(std::span<const float>(blk), bound);
            for (int e = 0; e < len; ++e) {
                if (maskTest(keep, e))
                    mdata[base + off + e] = 1.0f;
                else
                    blk[static_cast<size_t>(e)] = 0.0f;
            }
        }
    }
    if (train)
        last_mask = std::move(mask);
    return y;
}

FloatTensor
DapLayer::backward(const FloatTensor &grad_out)
{
    // Straight-through estimator: dDAP(a)/da is the binary Top-NNZ
    // keep mask (paper Sec. 8.1).
    FloatTensor gx(grad_out.shape());
    for (int64_t i = 0; i < gx.size(); ++i)
        gx.flat(i) = grad_out.flat(i) * last_mask.flat(i);
    return gx;
}

std::string
DapLayer::describe() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "dap %d/%d", nnz, bz);
    return buf;
}

// ---------------------------------------------------------------
// Network
// ---------------------------------------------------------------

FloatTensor
Network::forward(const FloatTensor &x, bool train)
{
    FloatTensor cur = x;
    for (auto &l : layers)
        cur = l->forward(cur, train);
    return cur;
}

void
Network::backward(const FloatTensor &grad_logits)
{
    FloatTensor cur = grad_logits;
    for (auto it = layers.rbegin(); it != layers.rend(); ++it)
        cur = (*it)->backward(cur);
}

void
Network::step(float lr, float momentum, int batch)
{
    for (auto &l : layers)
        l->step(lr, momentum, batch);
}

void
Network::applyWeightDbb(const DbbSpec &spec)
{
    for (auto &l : layers) {
        FloatTensor *w = l->weights();
        if (w != nullptr && l->dbbDim() >= 0)
            pruneFloatTensorDbbAlongDim(*w, l->dbbDim(), spec);
    }
}

std::vector<FloatTensor>
Network::snapshotParameters()
{
    std::vector<FloatTensor> snap;
    for (auto &l : layers)
        for (FloatTensor *p : l->parameters())
            snap.push_back(*p);
    return snap;
}

void
Network::restoreParameters(const std::vector<FloatTensor> &snap)
{
    size_t i = 0;
    for (auto &l : layers) {
        for (FloatTensor *p : l->parameters()) {
            s2ta_assert(i < snap.size(),
                        "snapshot too small (%zu params)",
                        snap.size());
            s2ta_assert(snap[i].shape() == p->shape(),
                        "snapshot shape mismatch at param %zu", i);
            *p = snap[i++];
        }
    }
    s2ta_assert(i == snap.size(), "snapshot has %zu extra params",
                snap.size() - i);
}

void
Network::enableDap(int nnz)
{
    for (auto &l : layers) {
        if (auto *dap = dynamic_cast<DapLayer *>(l.get()))
            dap->enable(nnz);
    }
}

void
Network::disableDap()
{
    for (auto &l : layers) {
        if (auto *dap = dynamic_cast<DapLayer *>(l.get()))
            dap->disable();
    }
}

void
Network::fakeQuantizeWeightsInt8()
{
    for (auto &l : layers) {
        FloatTensor *w = l->weights();
        if (w == nullptr)
            continue;
        float max_abs = 0.0f;
        for (int64_t i = 0; i < w->size(); ++i)
            max_abs = std::max(max_abs, std::fabs(w->flat(i)));
        if (max_abs == 0.0f)
            continue;
        const float scale = max_abs / 127.0f;
        for (int64_t i = 0; i < w->size(); ++i) {
            float q = std::nearbyint(w->flat(i) / scale);
            q = std::min(127.0f, std::max(-127.0f, q));
            w->flat(i) = q * scale;
        }
    }
}

float
softmaxCrossEntropy(const FloatTensor &logits, int label,
                    FloatTensor &grad_out)
{
    s2ta_assert(logits.rank() == 1, "logits must be flat");
    const int n = logits.dim(0);
    s2ta_assert(label >= 0 && label < n, "label %d of %d", label, n);

    float max_logit = logits.flat(0);
    for (int i = 1; i < n; ++i)
        max_logit = std::max(max_logit, logits.flat(i));
    double denom = 0.0;
    for (int i = 0; i < n; ++i)
        denom += std::exp(static_cast<double>(
            logits.flat(i) - max_logit));

    grad_out = FloatTensor({n});
    double loss = 0.0;
    for (int i = 0; i < n; ++i) {
        const double pr = std::exp(static_cast<double>(
                              logits.flat(i) - max_logit)) / denom;
        grad_out(i) = static_cast<float>(pr - (i == label ? 1.0 : 0.0));
        if (i == label)
            loss = -std::log(std::max(pr, 1e-12));
    }
    return static_cast<float>(loss);
}

} // namespace s2ta
