#include "tensor/conv.hh"

#include <cstring>

namespace s2ta {

namespace {

/** Round @p v up to the next multiple of @p align. */
int
alignUp(int v, int align)
{
    return (v + align - 1) / align * align;
}

/**
 * Validate a (possibly batched) activation tensor against the conv
 * geometry: (in_h, in_w, in_c) at batch 1, (batch, in_h, in_w,
 * in_c) for batch > 1.
 */
void
checkBatchedInput(const Conv2dShape &shape, const Int8Tensor &input,
                  int batch)
{
    s2ta_assert(batch >= 1, "batch=%d", batch);
    const std::vector<int> per_sample = {shape.in_h, shape.in_w,
                                         shape.in_c};
    const std::vector<int> batched = {batch, shape.in_h, shape.in_w,
                                      shape.in_c};
    if (batch == 1) {
        s2ta_assert(input.shape() == per_sample ||
                    input.shape() == batched,
                    "input shape mismatch");
    } else {
        s2ta_assert(input.shape() == batched,
                    "batched input shape mismatch (batch=%d)",
                    batch);
    }
}

} // anonymous namespace

Int32Tensor
convReference(const Conv2dShape &shape, const Int8Tensor &input,
              const Int8Tensor &weights)
{
    s2ta_assert(shape.valid(), "invalid conv shape");
    s2ta_assert(input.shape() ==
                std::vector<int>({shape.in_h, shape.in_w, shape.in_c}),
                "input shape mismatch");
    s2ta_assert(weights.shape() ==
                std::vector<int>({shape.kernel_h, shape.kernel_w,
                                  shape.groupInC(), shape.out_c}),
                "weight shape mismatch");

    const int oh = shape.outH(), ow = shape.outW();
    Int32Tensor out({oh, ow, shape.out_c}, 0);

    for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
            for (int oc = 0; oc < shape.out_c; ++oc) {
                const int g = oc / shape.groupOutC();
                const int c_base = g * shape.groupInC();
                int32_t acc = 0;
                for (int ky = 0; ky < shape.kernel_h; ++ky) {
                    const int iy = oy * shape.stride + ky - shape.pad;
                    if (iy < 0 || iy >= shape.in_h)
                        continue;
                    for (int kx = 0; kx < shape.kernel_w; ++kx) {
                        const int ix =
                            ox * shape.stride + kx - shape.pad;
                        if (ix < 0 || ix >= shape.in_w)
                            continue;
                        for (int c = 0; c < shape.groupInC(); ++c) {
                            acc += static_cast<int32_t>(
                                       input(iy, ix, c_base + c)) *
                                   weights(ky, kx, c, oc);
                        }
                    }
                }
                out(oy, ox, oc) = acc;
            }
        }
    }
    return out;
}

std::vector<GemmProblem>
im2colLowerAll(const Conv2dShape &shape, const Int8Tensor &input,
               const Int8Tensor &weights, int channel_align,
               int batch)
{
    s2ta_assert(shape.valid(), "invalid conv shape");
    s2ta_assert(channel_align > 0, "channel_align=%d", channel_align);
    checkBatchedInput(shape, input, batch);

    const int oh = shape.outH(), ow = shape.outW();
    const int gc = shape.groupInC();
    const int gn = shape.groupOutC();
    const int seg = alignUp(gc, channel_align);
    const int k = shape.kernel_h * shape.kernel_w * seg;
    const int groups = shape.groups;
    const int64_t sample_elems = static_cast<int64_t>(shape.in_h) *
                                 shape.in_w * shape.in_c;

    std::vector<GemmProblem> out;
    out.reserve(static_cast<size_t>(groups));
    for (int g = 0; g < groups; ++g)
        out.emplace_back(batch * oh * ow, k, gn);

    // Activation matrices: the tap-bounds arithmetic runs once per
    // (sample, pixel, tap) for all groups, and each input channel
    // row (contiguous in NHWC) is scattered to the group matrices
    // with one contiguous copy per group. Samples stack back to
    // back along M.
    for (int s = 0; s < batch; ++s) {
        const int8_t *in =
            input.data() + static_cast<size_t>(s) * sample_elems;
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                const int row = (s * oh + oy) * ow + ox;
                for (int ky = 0; ky < shape.kernel_h; ++ky) {
                    const int iy =
                        oy * shape.stride + ky - shape.pad;
                    if (iy < 0 || iy >= shape.in_h)
                        continue; // zero padding already in place
                    for (int kx = 0; kx < shape.kernel_w; ++kx) {
                        const int ix =
                            ox * shape.stride + kx - shape.pad;
                        if (ix < 0 || ix >= shape.in_w)
                            continue;
                        const int kbase =
                            (ky * shape.kernel_w + kx) * seg;
                        const int8_t *src =
                            in + (static_cast<size_t>(iy) *
                                      shape.in_w +
                                  ix) *
                                     shape.in_c;
                        for (int g = 0; g < groups; ++g) {
                            std::memcpy(
                                &out[static_cast<size_t>(g)]
                                     .a[static_cast<size_t>(row) *
                                            k +
                                        kbase],
                                src + static_cast<size_t>(g) * gc,
                                static_cast<size_t>(gc));
                        }
                    }
                }
            }
        }
    }

    // Weight matrices: the output-channel dimension is contiguous,
    // so each (tap, channel) row is split across groups with one
    // contiguous copy per group.
    for (int ky = 0; ky < shape.kernel_h; ++ky) {
        for (int kx = 0; kx < shape.kernel_w; ++kx) {
            const int kbase = (ky * shape.kernel_w + kx) * seg;
            for (int c = 0; c < gc; ++c) {
                const int8_t *src = &weights(ky, kx, c, 0);
                for (int g = 0; g < groups; ++g) {
                    std::memcpy(
                        &out[static_cast<size_t>(g)]
                             .w[static_cast<size_t>(kbase + c) * gn],
                        src + static_cast<size_t>(g) * gn,
                        static_cast<size_t>(gn));
                }
            }
        }
    }
    return out;
}

GemmProblem
im2colLowerGrouped(const Conv2dShape &shape, const Int8Tensor &input,
                   const Int8Tensor &weights, int channel_align,
                   int batch)
{
    s2ta_assert(shape.valid(), "invalid conv shape");
    s2ta_assert(channel_align > 0, "channel_align=%d", channel_align);
    checkBatchedInput(shape, input, batch);
    s2ta_assert(weights.shape() ==
                std::vector<int>({shape.kernel_h, shape.kernel_w,
                                  shape.groupInC(), shape.out_c}),
                "weight shape mismatch");

    const int oh = shape.outH(), ow = shape.outW();
    const int gc = shape.groupInC();
    const int groups = shape.groups;
    const int k = shape.kernel_h * shape.kernel_w * gc;
    const size_t lda = static_cast<size_t>(groups) * k;
    const int64_t sample_elems = static_cast<int64_t>(shape.in_h) *
                                 shape.in_w * shape.in_c;

    GemmProblem p(batch * oh * ow, k, shape.groupOutC(), groups);
    p.seg = gc;
    p.seg_align = channel_align;

    // Each in-image tap's channel row (contiguous in NHWC) is split
    // across the groups' column blocks of the lowered row;
    // out-of-image taps keep the zeros already in place.
    for (int s = 0; s < batch; ++s) {
        const int8_t *in =
            input.data() + static_cast<size_t>(s) * sample_elems;
        for (int oy = 0; oy < oh; ++oy) {
            for (int ox = 0; ox < ow; ++ox) {
                int8_t *row =
                    p.a.data() +
                    static_cast<size_t>((s * oh + oy) * ow + ox) * lda;
                for (int ky = 0; ky < shape.kernel_h; ++ky) {
                    const int iy =
                        oy * shape.stride + ky - shape.pad;
                    if (iy < 0 || iy >= shape.in_h)
                        continue;
                    for (int kx = 0; kx < shape.kernel_w; ++kx) {
                        const int ix =
                            ox * shape.stride + kx - shape.pad;
                        if (ix < 0 || ix >= shape.in_w)
                            continue;
                        const int8_t *src =
                            in + (static_cast<size_t>(iy) *
                                      shape.in_w +
                                  ix) *
                                     shape.in_c;
                        int8_t *dst =
                            row + (ky * shape.kernel_w + kx) * gc;
                        if (gc == 1) {
                            // Depthwise: one channel per group.
                            for (int g = 0; g < groups; ++g)
                                dst[static_cast<size_t>(g) * k] =
                                    src[g];
                            continue;
                        }
                        for (int g = 0; g < groups; ++g)
                            std::memcpy(dst + static_cast<size_t>(g) * k,
                                        src + g * gc,
                                        static_cast<size_t>(gc));
                    }
                }
            }
        }
    }

    // (kh, kw, groupInC, out_c) row-major is already the k x out_c
    // weight matrix, group g's columns at [g*n, (g+1)*n).
    std::memcpy(p.w.data(), weights.data(), p.w.size());
    return p;
}

void
scatterGemmResult(const Conv2dShape &shape, int group,
                  const std::vector<int32_t> &gemm_out,
                  Int32Tensor &output, int batch)
{
    const int oh = shape.outH(), ow = shape.outW();
    const int gn = shape.groupOutC();
    const int oc_base = group * gn;
    s2ta_assert(batch >= 1, "batch=%d", batch);
    s2ta_assert(gemm_out.size() == static_cast<size_t>(batch) * oh *
                                       ow * gn,
                "gemm result size mismatch");
    const std::vector<int> per_sample = {oh, ow, shape.out_c};
    const std::vector<int> batched = {batch, oh, ow, shape.out_c};
    s2ta_assert(batch == 1 ? (output.shape() == per_sample ||
                              output.shape() == batched)
                           : output.shape() == batched,
                "output shape mismatch");

    const int64_t out_stride = static_cast<int64_t>(oh) * ow *
                               shape.out_c;
    for (int s = 0; s < batch; ++s) {
        int32_t *dst =
            output.data() + static_cast<size_t>(s) * out_stride;
        for (int oy = 0; oy < oh; ++oy)
            for (int ox = 0; ox < ow; ++ox)
                for (int j = 0; j < gn; ++j)
                    dst[(static_cast<size_t>(oy) * ow + ox) *
                            shape.out_c +
                        oc_base + j] =
                        gemm_out[(((static_cast<size_t>(s) * oh +
                                    oy) *
                                       ow +
                                   ox)) *
                                     gn +
                                 j];
    }
}

} // namespace s2ta
