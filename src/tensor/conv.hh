/**
 * @file
 * 2-D convolution shapes, the direct reference kernel, and the
 * im2col lowerings used to map convolutions onto the GEMM-based
 * accelerator models.
 *
 * Layout conventions:
 *  - activations: NHWC, i.e. (H, W, C) at batch 1 or (N, H, W, C)
 *    for batch > 1;
 *  - weights: (KH, KW, C/groups, OC).
 * The channel dimension is innermost so that 1x1xBZ DBB blocks
 * (paper Fig. 5) are contiguous.
 *
 * Two lowerings share one K layout, (ky, kx, c) with the channel
 * fastest and each tap's channel segment padded to the DBB
 * alignment. The fast engine lowers a layer once, as one grouped
 * GEMM that stores only real values (im2colLowerGrouped); the scalar
 * reference engine lowers each group to its own GEMM with the
 * padding stored (im2colLowerAll), and scatters each group's result
 * into the output (scatterGemmResult).
 *
 * Batch handling: a batch of N samples folds into the GEMM M axis.
 * The lowered activation matrix stacks each sample's im2col rows
 * back to back (sample-major: rows [s*outH*outW, (s+1)*outH*outW)
 * belong to sample s), and the weight matrix is untouched. GEMM
 * output rows are computed independently of each other, so a
 * batched run is bitwise identical to the concatenation of the
 * per-sample runs on every engine.
 */

#ifndef S2TA_TENSOR_CONV_HH
#define S2TA_TENSOR_CONV_HH

#include <cstdint>

#include "tensor/gemm.hh"
#include "tensor/tensor.hh"

namespace s2ta {

/** Geometry of a 2-D convolution (per sample; batch is a property
 *  of the workload, not the shape). */
struct Conv2dShape
{
    int in_c = 0;
    int in_h = 0;
    int in_w = 0;
    int out_c = 0;
    int kernel_h = 1;
    int kernel_w = 1;
    int stride = 1;
    int pad = 0;
    /** groups == in_c (and out_c == in_c) makes this depthwise. */
    int groups = 1;

    int
    outH() const
    {
        return (in_h + 2 * pad - kernel_h) / stride + 1;
    }

    int
    outW() const
    {
        return (in_w + 2 * pad - kernel_w) / stride + 1;
    }

    /** Input channels seen by one group. */
    int groupInC() const { return in_c / groups; }

    /** Output channels produced by one group. */
    int groupOutC() const { return out_c / groups; }

    /** Dense multiply-accumulate count of the whole convolution. */
    int64_t
    denseMacs() const
    {
        return static_cast<int64_t>(outH()) * outW() * out_c *
               kernel_h * kernel_w * groupInC();
    }

    bool
    valid() const
    {
        return in_c > 0 && in_h > 0 && in_w > 0 && out_c > 0 &&
               kernel_h > 0 && kernel_w > 0 && stride > 0 &&
               pad >= 0 && groups > 0 && in_c % groups == 0 &&
               out_c % groups == 0 && outH() > 0 && outW() > 0;
    }
};

/**
 * Direct (nested-loop) INT8 convolution reference.
 *
 * @param shape convolution geometry (must be valid()).
 * @param input (in_h, in_w, in_c) INT8 tensor.
 * @param weights (kernel_h, kernel_w, groupInC, out_c) INT8 tensor.
 * @return (outH, outW, out_c) INT32 tensor.
 */
Int32Tensor convReference(const Conv2dShape &shape,
                          const Int8Tensor &input,
                          const Int8Tensor &weights);

/**
 * Lower every group of a convolution to its own GEMM via im2col, in
 * one pass (the scalar reference engine's lowering).
 *
 * The reduction dimension is laid out as (ky, kx, c) with the
 * channel index fastest, and each (ky, kx) channel segment is padded
 * with stored zeros up to a multiple of @p channel_align so DBB
 * blocks never straddle kernel positions. Out-of-image taps
 * contribute zeros (zero padding). The input tensor's channel rows
 * and the weight taps are each walked once for all groups.
 *
 * @param shape convolution geometry.
 * @param input (in_h, in_w, in_c) INT8 activations, or
 *        (batch, in_h, in_w, in_c) when @p batch > 1.
 * @param weights (kernel_h, kernel_w, groupInC, out_c) INT8 weights.
 * @param channel_align pad each channel segment to this multiple.
 * @param batch samples stacked along the GEMM M axis
 *        (sample-major rows).
 * @return one GemmProblem per group, indexed by group, each with
 *         m = batch*outH*outW, n = groupOutC,
 *         k = kernel_h*kernel_w*align(groupInC).
 */
std::vector<GemmProblem> im2colLowerAll(const Conv2dShape &shape,
                                        const Int8Tensor &input,
                                        const Int8Tensor &weights,
                                        int channel_align = 8,
                                        int batch = 1);

/**
 * Lower a whole convolution to one grouped GEMM (GemmProblem's group
 * axis), in one allocation: groups = shape.groups,
 * m = batch*outH*outW, k = kernel_h*kernel_w*groupInC and
 * n = groupOutC. Row r of the activations holds, group after group,
 * that group's taps in (ky, kx) order with its channels fastest;
 * out-of-image taps are zeros. The weights are the weight tensor
 * itself, read as a k x out_c matrix. Only real values are stored:
 * each tap's channel segment is marked as modeled padded to a
 * multiple of @p channel_align (seg = groupInC, seg_align =
 * @p channel_align), so the array models see group g as exactly
 * im2colLowerAll's problem g. The GEMM result, m x out_c row-major,
 * is the output tensor.
 */
GemmProblem im2colLowerGrouped(const Conv2dShape &shape,
                               const Int8Tensor &input,
                               const Int8Tensor &weights,
                               int channel_align = 8,
                               int batch = 1);

/**
 * Scatter a GEMM result for one group back into the output tensor.
 *
 * @param shape convolution geometry.
 * @param group group index the GEMM result belongs to.
 * @param gemm_out row-major (batch*outH*outW) x groupOutC INT32
 *        values (sample-major rows).
 * @param output (outH, outW, out_c) tensor updated in place, or
 *        (batch, outH, outW, out_c) when @p batch > 1.
 * @param batch samples carried by @p gemm_out.
 */
void scatterGemmResult(const Conv2dShape &shape, int group,
                       const std::vector<int32_t> &gemm_out,
                       Int32Tensor &output, int batch = 1);

} // namespace s2ta

#endif // S2TA_TENSOR_CONV_HH
