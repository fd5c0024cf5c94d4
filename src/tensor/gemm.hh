/**
 * @file
 * GEMM problem container and the golden INT8 reference kernel.
 *
 * Every accelerator model in src/arch consumes a GemmProblem and must
 * produce a result bit-identical to gemmReference() over the same
 * (possibly DBB-pruned) operands. CNN layers are lowered to GEMM via
 * im2col (tensor/conv.hh), with the K dimension laid out so that DBB
 * channel blocks are contiguous.
 */

#ifndef S2TA_TENSOR_GEMM_HH
#define S2TA_TENSOR_GEMM_HH

#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace s2ta {

/**
 * INT8 GEMM operands: C[i][j] = sum_k a[i*k + kk] * w[kk*n + j].
 *
 * 'a' holds activations (M x K row-major, one output pixel per row)
 * and 'w' holds weights (K x N row-major, one output channel per
 * column).
 *
 * A grouped problem (a grouped or depthwise convolution) is
 * `groups` such GEMMs along a block diagonal that share the M axis:
 * 'a' is M x (groups*K) and 'w' is K x (groups*N), and group g
 * contracts a's columns [g*K, (g+1)*K) against w's columns
 * [g*N, (g+1)*N) into the result's columns [g*N, (g+1)*N). K and N
 * are per group. actAt/wgtAt index the whole matrices.
 *
 * The array models may see K padded: K is a run of segments of
 * `seg` stored values (a conv tap's channels of one group), and each
 * segment is modeled as padded with zeros to a multiple of
 * `seg_align`, so that DBB blocks never straddle kernel taps. The
 * padding is never stored; modeledK() is the reduction length the
 * models see. seg == 0 means one unpadded segment (a plain GEMM).
 *
 * A problem may carry its dims alone (withoutOperands()): an
 * events-only plan reads nothing else.
 */
struct GemmProblem
{
    int m = 0;
    int k = 0;
    int n = 0;
    /** Independent GEMMs sharing the M axis (see above). */
    int groups = 1;
    /** Stored values per K segment; 0: K is one segment. */
    int seg = 0;
    /** Each segment is modeled padded to a multiple of this. */
    int seg_align = 1;
    std::vector<int8_t> a;
    std::vector<int8_t> w;

    GemmProblem() = default;

    GemmProblem(int m_, int k_, int n_, int groups_ = 1)
        : m(m_), k(k_), n(n_), groups(groups_),
          a(static_cast<size_t>(m_) * k_ * groups_, 0),
          w(static_cast<size_t>(k_) * n_ * groups_, 0)
    {
        s2ta_assert(m_ > 0 && k_ > 0 && n_ > 0 && groups_ > 0,
                    "bad GEMM dims %dx%dx%d, %d groups", m_, k_, n_,
                    groups_);
    }

    /** Positions the array models give one segment. */
    int
    modeledSeg() const
    {
        return seg == 0 ? k : (seg + seg_align - 1) / seg_align *
                                  seg_align;
    }

    /** Reduction length the array models see per group: K with
     *  every segment padded to seg_align. */
    int
    modeledK() const
    {
        return seg == 0 ? k : k / seg * modeledSeg();
    }

    /** True when the models see padding that is not stored. */
    bool padded() const { return modeledK() != k; }

    /** True when a and w hold every operand element. */
    bool
    hasOperands() const
    {
        return a.size() == static_cast<size_t>(m) * groups * k &&
               w.size() == static_cast<size_t>(k) * groups * n;
    }

    /** The same GEMM with no operands (a and w empty): the dims an
     *  events-only plan reads. */
    GemmProblem
    withoutOperands() const
    {
        GemmProblem d;
        d.m = m;
        d.k = k;
        d.n = n;
        d.groups = groups;
        d.seg = seg;
        d.seg_align = seg_align;
        return d;
    }

    /** Activation element (row i, column kk of the M x groups*K
     *  matrix). */
    int8_t &actAt(int i, int kk) { return a[idxA(i, kk)]; }
    int8_t actAt(int i, int kk) const { return a[idxA(i, kk)]; }

    /** Weight element (row kk, column j of the K x groups*N
     *  matrix). */
    int8_t &wgtAt(int kk, int j) { return w[idxW(kk, j)]; }
    int8_t wgtAt(int kk, int j) const { return w[idxW(kk, j)]; }

    /** Stored multiply-accumulate count groups*m*k*n. */
    int64_t
    denseMacs() const
    {
        return static_cast<int64_t>(groups) * m * k * n;
    }

    /** Fraction of zero elements in the activation operand. */
    double actSparsity() const { return sparsityOf(a); }

    /** Fraction of zero elements in the weight operand. */
    double wgtSparsity() const { return sparsityOf(w); }

  private:
    size_t
    idxA(int i, int kk) const
    {
        s2ta_assert(i >= 0 && i < m && kk >= 0 && kk < groups * k,
                    "A index (%d, %d)", i, kk);
        return static_cast<size_t>(i) * groups * k + kk;
    }

    size_t
    idxW(int kk, int j) const
    {
        s2ta_assert(kk >= 0 && kk < k && j >= 0 && j < groups * n,
                    "W index (%d, %d)", kk, j);
        return static_cast<size_t>(kk) * groups * n + j;
    }

    static double
    sparsityOf(const std::vector<int8_t> &v)
    {
        if (v.empty())
            return 0.0;
        int64_t zeros = 0;
        for (int8_t x : v)
            zeros += (x == 0);
        return static_cast<double>(zeros) /
               static_cast<double>(v.size());
    }
};

/**
 * Golden dense INT8 GEMM with INT32 accumulation.
 * @return row-major M x (groups*N) INT32 result.
 */
std::vector<int32_t> gemmReference(const GemmProblem &p);

} // namespace s2ta

#endif // S2TA_TENSOR_GEMM_HH
