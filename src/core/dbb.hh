/**
 * @file
 * Density Bound Block (DBB) sparse format (paper Sec. 3.1, Fig. 4/5).
 *
 * A tensor is tiled into BZ-element blocks along the channel
 * dimension; each block stores at most NNZ non-zero values plus an
 * 8-bit positional bitmask. A block is referred to by its ratio
 * NNZ/BZ (e.g. "4/8"). Blocks holding fewer than NNZ non-zeros are
 * padded with zero values in compressed form.
 *
 * In memory the simulator keeps one mask per block (DbbMatrix), next
 * to the dense operand only where outputs are computed; compressed
 * blocks (DbbBlock) exist only in the scalar reference models.
 */

#ifndef S2TA_CORE_DBB_HH
#define S2TA_CORE_DBB_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/bitmask.hh"
#include "tensor/gemm.hh"

namespace s2ta {

/** A DBB density specification: at most nnz non-zeros per bz block. */
struct DbbSpec
{
    int nnz = 4;
    int bz = 8;

    /** Density upper bound nnz / bz. */
    double density() const { return static_cast<double>(nnz) / bz; }

    /** Sparsity lower bound 1 - nnz / bz. */
    double sparsity() const { return 1.0 - density(); }

    /** Render as "4/8". */
    std::string toString() const;

    /** True when the spec admits any 8-bit content (nnz == bz). */
    bool isDense() const { return nnz == bz; }

    /**
     * Storage bytes per block: nnz values plus the mask byte, or bz
     * raw bytes when dense (no mask needed).
     */
    int storedBytesPerBlock() const { return isDense() ? bz : nnz + 1; }

    bool
    valid() const
    {
        return bz >= 1 && bz <= 8 && nnz >= 1 && nnz <= bz;
    }

    bool operator==(const DbbSpec &) const = default;
};

/**
 * One compressed DBB block (paper Fig. 5): up to 8 stored values and
 * the positional bitmask M, nnz value bytes plus one mask byte. This
 * is the stored form: dbbEncode/dbbDecode and the scalar reference
 * models use it. Plans keep only the masks (DbbMatrix), next to the
 * dense operands in a plan that computes outputs.
 */
struct DbbBlock
{
    /** Compressed values; slots beyond popcount(mask) hold zero. */
    std::array<int8_t, 8> values{};
    /** Bit i set <=> expanded position i holds values[rank(i)]. */
    Mask8 mask = 0;

    /** Number of stored (mask-flagged) elements. */
    int storedCount() const { return maskPopcount(mask); }

    /** Expanded value at position i in [0, bz). */
    int8_t
    expandedAt(int i) const
    {
        if (!maskTest(mask, i))
            return 0;
        return values[static_cast<size_t>(maskRank(mask, i))];
    }
};

/**
 * Encode a dense block into DBB form.
 *
 * The block must already satisfy the density bound (apply a pruner
 * from core/weight_pruner.hh or core/dap.hh first); encoding never
 * drops data.
 *
 * @param dense exactly spec.bz elements.
 * @param spec density bound; popcount of non-zeros must be <= nnz.
 */
DbbBlock dbbEncode(std::span<const int8_t> dense, const DbbSpec &spec);

/** Decode a block back to dense form (bz elements written). */
void dbbDecode(const DbbBlock &block, const DbbSpec &spec,
               std::span<int8_t> dense_out);

/** True if the dense block satisfies the density bound. */
bool dbbSatisfies(std::span<const int8_t> dense, const DbbSpec &spec);

/**
 * The block masks of a GEMM operand blocked along K: one Mask8 per
 * block, bit i set when the block's expanded position i is non-zero.
 * The values stay in the dense operand, which the kernels contract
 * as dense lanes the masks steer; the event models read the masks
 * alone.
 *
 * For weights (K x N) vectors run down each column; for activations
 * (M x K) vectors run along each row. 'vectors' is the number of
 * rows/columns and 'blocks_per_vector' is ceil(K / bz); when bz does
 * not divide K the tail block is zero-padded (padding positions stay
 * unset in its mask).
 *
 * Masks follow the problem's modeled K layout (GemmProblem::
 * modeledK()): a padded problem's segments each start a block, and
 * blocks over the unstored padding are empty. A grouped problem's
 * vectors are group-major: activation vector g*M + i is group g's
 * row i and weight vector g*N + j its column j, so each group's
 * masks are laid out as a plain GEMM's.
 */
class DbbMatrix
{
  public:
    DbbMatrix() = default;

    /** Wrap @p m: @p vectors runs of @p blocks masks each, in the
     *  layout described above. */
    DbbMatrix(DbbSpec s, int vectors, int blocks, std::vector<Mask8> m);

    /**
     * Masks of the weight operand of @p p (K x N, blocked along K).
     * Every block of every column must satisfy @p spec.
     */
    static DbbMatrix fromWeights(const GemmProblem &p,
                                 const DbbSpec &spec);

    /**
     * The same for the K x groups*N weight matrix at @p w, laid out
     * as @p p's weights (p.w is not read, and may be empty). The one
     * builder for every layout: W is read row by row, each row's
     * non-zero flags are ORed, in one vectorized pass over the
     * columns, into the mask row of that row's modeled block (the
     * block walk the activation masks use), and one
     * transposeBytes puts the mask rows in column-major order. W
     * streams once, in row order, and is never copied.
     */
    static DbbMatrix fromWeights(const GemmProblem &p, const int8_t *w,
                                 const DbbSpec &spec);

    /**
     * Masks of the activation operand of @p p (M x K, blocked along
     * K). Every block of every row must satisfy @p spec.
     */
    static DbbMatrix fromActivations(const GemmProblem &p,
                                     const DbbSpec &spec);

    const DbbSpec &spec() const { return dbb_spec; }
    int vectors() const { return n_vectors; }
    int blocksPerVector() const { return n_blocks; }

    /** Mask of block @p b of vector @p v. */
    Mask8
    mask(int v, int b) const
    {
        s2ta_assert(v >= 0 && v < n_vectors && b >= 0 && b < n_blocks,
                    "block (%d, %d)", v, b);
        return masks[static_cast<size_t>(v) * n_blocks + b];
    }

    /** Unchecked pointer to the masks of vector @p v. */
    const Mask8 *
    vectorMasks(int v) const
    {
        return masks.data() + static_cast<size_t>(v) * n_blocks;
    }

    /** True when expanded position @p kk of vector @p v is non-zero. */
    bool
    nonZeroAt(int v, int kk) const
    {
        return (masks[static_cast<size_t>(v) * n_blocks +
                      kk / dbb_spec.bz] >>
                (kk % dbb_spec.bz)) &
               1u;
    }

    /**
     * Compressed storage footprint in bytes: nnz value bytes plus one
     * mask byte per block (paper Fig. 5).
     */
    int64_t compressedBytes() const;

    /** Dense storage footprint in bytes. */
    int64_t
    denseBytes() const
    {
        return static_cast<int64_t>(n_vectors) * n_blocks *
               dbb_spec.bz;
    }

  private:
    DbbSpec dbb_spec;
    int n_vectors = 0;
    int n_blocks = 0;
    std::vector<Mask8> masks;
};

/**
 * The transposed weights W^T (groups*n x k, row j holding weight
 * column j's K stored elements contiguously): the dense lanes the
 * functional kernel contracts against.
 */
std::vector<int8_t> transposedWeights(const GemmProblem &p);

/**
 * Transpose the rows x cols byte window at @p src (row stride
 * @p src_ld) into @p dst (row stride @p dst_ld):
 * dst[c * dst_ld + r] = src[r * src_ld + c]. In 8 x 8 squares
 * through registers, the ragged edges element by element. The dense
 * mirror and the weight generators move W with it, and the weight
 * mask builder its mask rows into columns.
 */
void transposeBytes(const int8_t *src, size_t src_ld, int rows,
                    int cols, int8_t *dst, size_t dst_ld);

} // namespace s2ta

#endif // S2TA_CORE_DBB_HH
