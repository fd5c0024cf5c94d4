/**
 * @file
 * Synthetic sparse operand generators.
 *
 * Microbenchmarks (paper Sec. 8.2) need operands with *exact* target
 * sparsity so that sweeps are noise-free:
 *  - unstructured: every activation row / weight column gets exactly
 *    round(len * density) non-zeros at random positions;
 *  - DBB-structured: every BZ-block gets exactly nnz non-zeros.
 * Non-zero values are uniform over [-128, 127] \ {0}.
 */

#ifndef S2TA_WORKLOAD_SPARSE_GEN_HH
#define S2TA_WORKLOAD_SPARSE_GEN_HH

#include "base/random.hh"
#include "tensor/gemm.hh"
#include "tensor/tensor.hh"

namespace s2ta {

/**
 * GEMM with unstructured (random) sparsity at exact per-vector
 * rates.
 *
 * @param wgt_sparsity fraction of zeros in each weight column.
 * @param act_sparsity fraction of zeros in each activation row.
 */
GemmProblem makeUnstructuredGemm(int m, int k, int n,
                                 double wgt_sparsity,
                                 double act_sparsity, Rng &rng);

/**
 * GEMM with DBB-structured sparsity: every BZ-block of every weight
 * column has exactly @p wgt_nnz non-zeros, and every block of every
 * activation row exactly @p act_nnz. K must be a multiple of bz.
 */
GemmProblem makeDbbGemm(int m, int k, int n, int wgt_nnz,
                        int act_nnz, Rng &rng, int bz = 8);

/**
 * Tensor with unstructured sparsity: exactly
 * round(size * (1 - sparsity)) non-zeros overall, random positions.
 */
Int8Tensor makeUnstructuredTensor(const std::vector<int> &shape,
                                  double sparsity, Rng &rng);

/**
 * Tensor with exactly @p nnz non-zeros per BZ-block along the
 * innermost (channel) dimension; partial tail blocks of r < bz
 * elements get min(nnz, r).
 */
Int8Tensor makeDbbTensor(const std::vector<int> &shape, int nnz,
                         Rng &rng, int bz = 8);

/**
 * Weight tensor (..., c, oc) with exactly @p nnz non-zeros per
 * BZ-block along c, its second-innermost dimension: the input
 * channels of a (kh, kw, c, oc) convolution weight. Tail blocks as
 * in makeDbbTensor. Byte for byte makeDbbTensor over (..., oc, c)
 * transposed to (..., c, oc): the draws run in (..., oc, c) order.
 */
Int8Tensor makeDbbWeights(const std::vector<int> &shape, int nnz,
                          Rng &rng, int bz = 8);

} // namespace s2ta

#endif // S2TA_WORKLOAD_SPARSE_GEN_HH
