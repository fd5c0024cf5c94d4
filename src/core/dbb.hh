/**
 * @file
 * Density Bound Block (DBB) sparse format (paper Sec. 3.1, Fig. 4/5).
 *
 * A tensor is tiled into BZ-element blocks along the channel
 * dimension; each block stores at most NNZ non-zero values plus an
 * 8-bit positional bitmask. A block is referred to by its ratio
 * NNZ/BZ (e.g. "4/8"). Blocks holding fewer than NNZ non-zeros are
 * padded with zero values in compressed form.
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
 * One compressed DBB block: up to 8 stored values and the positional
 * bitmask M. Storage cost is nnz value bytes plus one mask byte.
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
 * Mask-intersection dot product of one block pair: the DBB-native
 * fast path. A single AND of the two positional masks yields the
 * matched positions; each match gathers its stored values by rank.
 * Work is O(popcount(a.mask & w.mask)), not O(bz), and the INT32 sum
 * is bit-identical to the dense product of the expanded blocks
 * (skipped terms are exactly zero).
 */
inline int32_t
dbbDotBlocks(const DbbBlock &a, const DbbBlock &w)
{
    int32_t acc = 0;
    for (Mask8 inter = maskAnd(a.mask, w.mask); inter;
         inter = maskClearLowest(inter)) {
        const int pos = maskLowestSetBit(inter);
        acc += static_cast<int32_t>(
                   a.values[static_cast<size_t>(
                       maskRankUnchecked(a.mask, pos))]) *
               static_cast<int32_t>(
                   w.values[static_cast<size_t>(
                       maskRankUnchecked(w.mask, pos))]);
    }
    return acc;
}

/**
 * Mask-intersection dot product over @p nblocks consecutive block
 * pairs (one activation row against one weight column).
 */
inline int32_t
dbbDotRow(const DbbBlock *a, const DbbBlock *w, int nblocks)
{
    int32_t acc = 0;
    for (int b = 0; b < nblocks; ++b)
        acc += dbbDotBlocks(a[b], w[b]);
    return acc;
}

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
 * A GEMM operand compressed in DBB form along the K dimension.
 *
 * For weights (K x N) vectors run down each column; for activations
 * (M x K) vectors run along each row. 'vectors' is the number of
 * rows/columns and 'blocks_per_vector' is ceil(K / bz); when bz does
 * not divide K the tail block is zero-padded, which encodes
 * losslessly (padding positions simply stay unset in the mask).
 */
class DbbMatrix
{
  public:
    DbbMatrix() = default;

    /**
     * Compress the weight operand of @p p (K x N, blocked along K).
     * Every block of every column must satisfy @p spec.
     */
    static DbbMatrix fromWeights(const GemmProblem &p,
                                 const DbbSpec &spec);

    /**
     * Compress the activation operand of @p p (M x K, blocked along
     * K). Every block of every row must satisfy @p spec.
     */
    static DbbMatrix fromActivations(const GemmProblem &p,
                                     const DbbSpec &spec);

    /**
     * Inverse of fromWeights: write the dense K x N weights these
     * column blocks encode into p.w (p.n == vectors()). No mask bit
     * may flag a position in the zero-padded tail past p.k.
     */
    void weightsInto(GemmProblem &p) const;

    /** Inverse of fromActivations, into p.a (p.m == vectors()). */
    void activationsInto(GemmProblem &p) const;

    /**
     * Reassemble a matrix from already-encoded blocks — the plan
     * store and spill-tier hydration paths, which recover blocks
     * from a serialized image instead of re-encoding operands.
     * @p blks must hold exactly vectors * blocks_per_vector blocks
     * in vector-major order (the layout vectorBlocks exposes).
     */
    static DbbMatrix
    fromParts(DbbSpec s, int vectors, int blocks_per_vector,
              std::vector<DbbBlock> blks)
    {
        s2ta_assert(blks.size() == static_cast<size_t>(vectors) *
                                       blocks_per_vector,
                    "%zu blocks for %d x %d", blks.size(), vectors,
                    blocks_per_vector);
        return DbbMatrix(s, vectors, blocks_per_vector,
                         std::move(blks));
    }

    const DbbSpec &spec() const { return dbb_spec; }
    int vectors() const { return n_vectors; }
    int blocksPerVector() const { return n_blocks; }

    /** Block @p b of vector @p v. */
    const DbbBlock &
    block(int v, int b) const
    {
        s2ta_assert(v >= 0 && v < n_vectors && b >= 0 && b < n_blocks,
                    "block (%d, %d)", v, b);
        return blks[static_cast<size_t>(v) * n_blocks + b];
    }

    /**
     * Unchecked pointer to the blocks of vector @p v, for the hot
     * kernels (dbbDotRow et al.).
     */
    const DbbBlock *
    vectorBlocks(int v) const
    {
        return blks.data() + static_cast<size_t>(v) * n_blocks;
    }

    /** True when expanded position @p kk of vector @p v is non-zero;
     *  a pure mask test, no value gather. */
    bool
    nonZeroAt(int v, int kk) const
    {
        const DbbBlock &blk =
            blks[static_cast<size_t>(v) * n_blocks +
                 kk / dbb_spec.bz];
        return (blk.mask >> (kk % dbb_spec.bz)) & 1u;
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

    /** Mean stored-value occupancy over all blocks, in [0, 1]. */
    double occupancy() const;

    /**
     * Decompress back to a dense row-major matrix of
     * vectors x (blocksPerVector() * bz); when bz does not divide
     * the original K, the tail columns hold the zero padding.
     */
    std::vector<int8_t> toDense() const;

  private:
    DbbMatrix(DbbSpec s, int vectors, int blocks)
        : dbb_spec(s), n_vectors(vectors), n_blocks(blocks),
          blks(static_cast<size_t>(vectors) * blocks)
    {}

    /** Adopt already-encoded blocks without the zero-fill pass
     *  (the hydration paths memcpy/decode straight into place). */
    DbbMatrix(DbbSpec s, int vectors, int blocks,
              std::vector<DbbBlock> b)
        : dbb_spec(s), n_vectors(vectors), n_blocks(blocks),
          blks(std::move(b))
    {}

    DbbSpec dbb_spec;
    int n_vectors = 0;
    int n_blocks = 0;
    std::vector<DbbBlock> blks;
};

} // namespace s2ta

#endif // S2TA_CORE_DBB_HH
