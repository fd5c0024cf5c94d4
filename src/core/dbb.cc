#include "core/dbb.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace s2ta {

std::string
DbbSpec::toString() const
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d/%d", nnz, bz);
    return buf;
}

DbbBlock
dbbEncode(std::span<const int8_t> dense, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    s2ta_assert(dense.size() == static_cast<size_t>(spec.bz),
                "block length %zu != bz %d", dense.size(), spec.bz);

    DbbBlock blk;
    int slot = 0;
    for (int i = 0; i < spec.bz; ++i) {
        if (dense[static_cast<size_t>(i)] == 0)
            continue;
        s2ta_assert(slot < spec.nnz,
                    "block violates %s density bound; prune first",
                    spec.toString().c_str());
        blk.values[static_cast<size_t>(slot)] =
            dense[static_cast<size_t>(i)];
        blk.mask = maskSet(blk.mask, i);
        ++slot;
    }
    return blk;
}

void
dbbDecode(const DbbBlock &block, const DbbSpec &spec,
          std::span<int8_t> dense_out)
{
    s2ta_assert(dense_out.size() == static_cast<size_t>(spec.bz),
                "output length %zu != bz %d", dense_out.size(),
                spec.bz);
    for (int i = 0; i < spec.bz; ++i)
        dense_out[static_cast<size_t>(i)] = block.expandedAt(i);
}

bool
dbbSatisfies(std::span<const int8_t> dense, const DbbSpec &spec)
{
    if (dense.size() != static_cast<size_t>(spec.bz))
        return false;
    int nz = 0;
    for (int8_t v : dense)
        nz += (v != 0);
    return nz <= spec.nnz;
}

namespace {

/**
 * Weight tile: kTileBlocks blocks down K by kTileCols columns. At
 * bz 8 the transposed tile is 16 KB, so it stays in L1 next to the
 * W rows it is read from.
 */
constexpr int kTileBlocks = 64;
constexpr int kTileCols = 32;

// The block codec and the tile transpose read 8 bytes as one word
// whose byte i is element i.
static_assert(std::endian::native == std::endian::little,
              "the DBB block codec assumes a little-endian host");

/** The first @p len <= 8 bytes at @p p as a word, zero-extended.
 *  Short lengths (K tails, narrow channel segments) are gathered
 *  byte by byte: a variable-length memcpy would be a library call
 *  per block. */
inline uint64_t
loadBytes(const int8_t *p, int len)
{
    uint64_t v = 0;
    if (len == 8) {
        std::memcpy(&v, p, 8);
        return v;
    }
    for (int i = 0; i < len; ++i)
        v |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
    return v;
}

/** Store the low @p len <= 8 bytes of @p v at @p p (short lengths
 *  byte by byte, as in loadBytes). */
inline void
storeBytes(int8_t *p, uint64_t v, int len)
{
    if (len == 8) {
        std::memcpy(p, &v, 8);
        return;
    }
    for (int i = 0; i < len; ++i)
        p[i] = static_cast<int8_t>(v >> (8 * i));
}

// The SWAR helpers below keep one flag per byte (0x01 or 0x00).
constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;

/** 0x01 in every non-zero byte of @p x. */
inline uint64_t
nonZeroBytes(uint64_t x)
{
    return ((((x & kLow7) + kLow7) | x) >> 7) & kOnes;
}

/** Byte flags -> positional mask (bit i = flag of byte i). */
inline Mask8
flagsToMask(uint64_t flags)
{
    return static_cast<Mask8>((flags * 0x0102040810204080ull) >> 56);
}

/**
 * The byte moves that pack the flagged bytes of a word to its low
 * end: every flagged byte drops by the number of unflagged bytes
 * below it, in three stages of 1, 2 and 4 bytes (the byte-wise
 * parallel-suffix compress of Hacker's Delight, 7-4). Each selector
 * marks with 0xFF the bytes its stage moves.
 */
struct ByteMoves
{
    uint64_t by1, by2, by4;
};

constexpr ByteMoves
compressMoves(Mask8 mask)
{
    const uint64_t bits = (mask * kOnes) & 0x8040201008040201ull;
    const uint64_t flags = ((bits + kLow7) >> 7) & kOnes;
    // Unflagged bytes strictly below each flagged byte.
    uint64_t drop = (((flags ^ kOnes) * kOnes) << 8) & (flags * 0xFF);
    ByteMoves mv{};
    mv.by1 = (drop & kOnes) * 0xFF;
    drop = (drop & ~mv.by1) | ((drop & mv.by1) >> 8);
    mv.by2 = ((drop >> 1) & kOnes) * 0xFF;
    drop = (drop & ~mv.by2) | ((drop & mv.by2) >> 16);
    mv.by4 = ((drop >> 2) & kOnes) * 0xFF;
    return mv;
}

/** The moves of every mask (6 KB, L1-resident while encoding). */
struct ByteMovesTable
{
    ByteMoves of[256];
};

alignas(64) constexpr ByteMovesTable kByteMoves = [] {
    ByteMovesTable t{};
    for (int m = 0; m < 256; ++m)
        t.of[m] = compressMoves(static_cast<Mask8>(m));
    return t;
}();

inline uint64_t
compressBytes(uint64_t x, const ByteMoves &mv)
{
    x = (x & ~mv.by1) | ((x & mv.by1) >> 8);
    x = (x & ~mv.by2) | ((x & mv.by2) >> 16);
    return (x & ~mv.by4) | ((x & mv.by4) >> 32);
}

/** compressBytes' inverse: the same moves undone in reverse. */
inline uint64_t
expandBytes(uint64_t v, const ByteMoves &mv)
{
    uint64_t at = mv.by4 >> 32;
    v = (v & ~at) | ((v & at) << 32);
    at = mv.by2 >> 16;
    v = (v & ~at) | ((v & at) << 16);
    at = mv.by1 >> 8;
    return (v & ~at) | ((v & at) << 8);
}

/**
 * Encode @p len <= 8 contiguous dense elements into @p blk and
 * return their non-zero count: the non-zeros packed in position
 * order, zeros after them, and the positional mask. Branch-free.
 */
inline int
encodeBlock(const int8_t *src, int len, DbbBlock &blk)
{
    const uint64_t x = loadBytes(src, len);
    const Mask8 mask = flagsToMask(nonZeroBytes(x));
    storeBytes(blk.values.data(), compressBytes(x, kByteMoves.of[mask]),
               8);
    blk.mask = mask;
    return maskPopcount(mask);
}

/** Expand @p blk into @p len dense elements (encodeBlock's
 *  inverse); positions the mask does not flag read zero. */
inline void
decodeBlock(const DbbBlock &blk, int len, int8_t *dst)
{
    // Only the first popcount values are stored values.
    const int stored = maskPopcount(blk.mask);
    const uint64_t live = stored == 8
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (8 * stored)) - 1;
    storeBytes(dst,
               expandBytes(loadBytes(blk.values.data(), 8) & live,
                           kByteMoves.of[blk.mask]),
               len);
}

/** Swap the @p mask-selected @p shift-bit fields of @p a and @p b
 *  that sit across the transpose diagonal from each other. */
inline void
swapFields(uint64_t &a, uint64_t &b, int shift, uint64_t mask)
{
    const uint64_t t = ((a >> shift) ^ b) & mask;
    b ^= t;
    a ^= t << shift;
}

/** Transpose an 8 x 8 byte matrix held as 8 row words in place:
 *  byte j of word i trades places with byte i of word j. */
inline void
transpose8x8(uint64_t r[8])
{
    for (int i = 0; i < 8; i += 2)
        swapFields(r[i], r[i + 1], 8, 0x00FF00FF00FF00FFull);
    for (int i : {0, 1, 4, 5})
        swapFields(r[i], r[i + 2], 16, 0x0000FFFF0000FFFFull);
    for (int i = 0; i < 4; ++i)
        swapFields(r[i], r[i + 4], 32, 0x00000000FFFFFFFFull);
}

/**
 * Visit the weight tiles of a K x N operand with @p blocks blocks
 * per column, k-outer: a band of K rows is walked across all of N
 * before the next band starts, so W streams in row order and each
 * column's blocks are produced in runs of kTileBlocks. @p fn gets
 * (first block b0, blocks nb, rows, first column j0, columns cols):
 * the tile's segment is nb * bz rows, of which the first rows lie
 * inside K and the rest are the tail block's zero padding.
 */
template <typename Fn>
void
forWeightTiles(int k, int n, int bz, int blocks, Fn &&fn)
{
    for (int b0 = 0; b0 < blocks; b0 += kTileBlocks) {
        const int nb = std::min(kTileBlocks, blocks - b0);
        const int rows = std::min(nb * bz, k - b0 * bz);
        for (int j0 = 0; j0 < n; j0 += kTileCols)
            fn(b0, nb, rows, j0, std::min(kTileCols, n - j0));
    }
}

/**
 * Visit every block of @p p's weight operand as @p bz contiguous
 * dense elements, zero past K: fn(column, block, elements). Each
 * tile is read row by row and transposed in L1, so W streams in row
 * order instead of scattering across N column streams, and each
 * column's blocks come in runs of kTileBlocks.
 */
template <typename Fn>
void
forWeightBlocks(const GemmProblem &p, int bz, Fn &&fn)
{
    alignas(64) int8_t tile[kTileCols * kTileBlocks * 8];
    const int8_t *w = p.w.data();
    const int cols = p.groups * p.n;
    const size_t ld = static_cast<size_t>(cols);
    forWeightTiles(p.k, cols, bz, (p.k + bz - 1) / bz,
                   [&](int b0, int nb, int rows, int j0, int cols) {
        const int seg = nb * bz;
        transposeBytes(w + b0 * bz * ld + j0, ld, rows, cols, tile, seg);
        for (int c = 0; c < cols; ++c) {
            int8_t *col = tile + c * seg;
            std::fill(col + rows, col + seg, int8_t{0});
            for (int b = 0; b < nb; ++b)
                fn(j0 + c, b0 + b, col + b * bz);
        }
    });
}

/** The same for the stored activation rows (groups*K values
 *  each), which are contiguous already: fn(row, block, elements,
 *  length), length < bz on the row's tail. */
template <typename Fn>
void
forActivationBlocks(const GemmProblem &p, int bz, Fn &&fn)
{
    const int len = p.groups * p.k;
    const int nb = (len + bz - 1) / bz;
    for (int i = 0; i < p.m; ++i) {
        const int8_t *row = &p.a[static_cast<size_t>(i) * len];
        for (int b = 0; b < nb; ++b)
            fn(i, b, row + b * bz, std::min(bz, len - b * bz));
    }
}

/** Positional mask of @p len <= 8 contiguous elements. */
inline Mask8
blockMask(const int8_t *src, int len)
{
    return flagsToMask(nonZeroBytes(loadBytes(src, len)));
}

/**
 * How one vector's K stored values map onto @p p's modeled layout at
 * block size bz: unpadded values block straight through (the last
 * block may be short); a padded layout starts every segment on a
 * block boundary, so its segments must span whole blocks, and a
 * segment's blocks past its stored values are empty.
 */
struct ModeledLayout
{
    ModeledLayout(const GemmProblem &p, int bz_)
        : k(p.k), seg(p.seg), bz(bz_), padded(p.padded()),
          seg_blocks(p.modeledSeg() / bz_),
          blocks((p.modeledK() + bz_ - 1) / bz_)
    {
        s2ta_assert(!padded || p.modeledSeg() % bz == 0,
                    "segments of %d modeled positions at block size "
                    "%d", p.modeledSeg(), bz);
    }

    /** The masks of the vector whose stored values start at
     *  @p src, into @p out (`blocks` masks). */
    void
    masks(const int8_t *src, Mask8 *out) const
    {
        if (!padded) {
            for (int b = 0, kk = 0; kk < k; ++b, kk += bz)
                out[b] = blockMask(src + kk, std::min(bz, k - kk));
            return;
        }
        if (seg == 1 && seg_blocks == 1) {
            // One value per one-block segment (a depthwise tap):
            // each mask is its value's non-zero flag, eight
            // segments per word.
            int t = 0;
            for (; t + 8 <= k; t += 8) {
                const uint64_t flags = nonZeroBytes(loadBytes(src + t, 8));
                std::memcpy(out + t, &flags, 8);
            }
            for (; t < k; ++t)
                out[t] = src[t] != 0;
            return;
        }
        for (int s0 = 0; s0 < k; s0 += seg, out += seg_blocks) {
            for (int b = 0; b < seg_blocks; ++b) {
                const int len = std::min(bz, seg - b * bz);
                out[b] = len > 0 ? blockMask(src + s0 + b * bz, len)
                                 : 0;
            }
        }
    }

    int k, seg, bz;
    bool padded;
    /** Blocks per padded segment. */
    int seg_blocks;
    /** Blocks per vector. */
    int blocks;
};

/** Fatal unless every one of the @p nb masks at @p masks (vector
 *  @p v) holds at most spec.nnz non-zeros (a dense spec admits
 *  every mask). */
void
checkDensity(const Mask8 *masks, int nb, const DbbSpec &spec,
             const char *kind, const char *vec_name, int v)
{
    if (spec.isDense())
        return;
    for (int b = 0; b < nb; ++b) {
        s2ta_assert(maskPopcount(masks[b]) <= spec.nnz,
                    "%s block (%s %d, block %d) violates %s density "
                    "bound; prune first",
                    kind, vec_name, v, b, spec.toString().c_str());
    }
}

/** The mask of the last block of a vector must leave K's padding
 *  tail (positions @p tail and up) unset. */
inline void
checkTail(Mask8 last, int tail, const char *kind, int v)
{
    s2ta_assert((last >> tail) == 0,
                "%s non-zero in the padding tail (vector %d)", kind, v);
}

} // anonymous namespace

DbbMatrix
DbbMatrix::fromWeights(const GemmProblem &p, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const int bz = spec.bz;
    const ModeledLayout layout(p, bz);
    const int nb = layout.blocks;
    const int cols = p.groups * p.n;
    std::vector<Mask8> masks(static_cast<size_t>(cols) * nb);
    if (!layout.padded) {
        forWeightBlocks(p, bz, [&](int j, int b, const int8_t *blk) {
            masks[static_cast<size_t>(j) * nb + b] = blockMask(blk, bz);
        });
    } else {
        // Padded layers (narrow stems, depthwise taps) have small
        // weights: mask each column from its contiguous transpose.
        const std::vector<int8_t> wt = transposedWeights(p);
        for (int j = 0; j < cols; ++j) {
            layout.masks(&wt[static_cast<size_t>(j) * p.k],
                         &masks[static_cast<size_t>(j) * nb]);
        }
    }
    for (int j = 0; j < cols; ++j)
        checkDensity(&masks[static_cast<size_t>(j) * nb], nb, spec,
                     "weight", "col", j);
    return DbbMatrix(spec, cols, nb, std::move(masks));
}

DbbMatrix
DbbMatrix::fromActivations(const GemmProblem &p, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const ModeledLayout layout(p, spec.bz);
    const int nb = layout.blocks;
    const size_t lda = static_cast<size_t>(p.groups) * p.k;
    std::vector<Mask8> masks(static_cast<size_t>(p.groups) * p.m * nb);
    // Row-outer, so each stored row streams once; its group slices
    // land in the groups' group-major vectors.
    for (int i = 0; i < p.m; ++i) {
        const int8_t *row = &p.a[i * lda];
        for (int g = 0; g < p.groups; ++g) {
            const int v = g * p.m + i;
            Mask8 *out = &masks[static_cast<size_t>(v) * nb];
            layout.masks(row + static_cast<size_t>(g) * p.k, out);
            checkDensity(out, nb, spec, "activation", "row", v);
        }
    }
    return DbbMatrix(spec, p.groups * p.m, nb, std::move(masks));
}

int64_t
DbbMatrix::compressedBytes() const
{
    // nnz value bytes + 1 mask byte per block.
    return static_cast<int64_t>(n_vectors) * n_blocks *
           (dbb_spec.nnz + 1);
}

std::vector<DbbBlock>
dbbEncodeWeights(const GemmProblem &p, int bz)
{
    const int nb = (p.k + bz - 1) / bz;
    std::vector<DbbBlock> blks(static_cast<size_t>(p.groups) * p.n *
                               nb);
    forWeightBlocks(p, bz, [&](int j, int b, const int8_t *blk) {
        encodeBlock(blk, bz, blks[static_cast<size_t>(j) * nb + b]);
    });
    return blks;
}

std::vector<DbbBlock>
dbbEncodeActivations(const GemmProblem &p, int bz)
{
    const int nb = (p.groups * p.k + bz - 1) / bz;
    std::vector<DbbBlock> blks(static_cast<size_t>(p.m) * nb);
    forActivationBlocks(p, bz, [&](int i, int b, const int8_t *blk,
                                   int len) {
        encodeBlock(blk, len, blks[static_cast<size_t>(i) * nb + b]);
    });
    return blks;
}

void
dbbDecodeWeights(const DbbBlock *blocks, int bz, GemmProblem &p)
{
    // forWeightBlocks in reverse, through the same tile: each
    // column's blocks expand into its tile segment, and the tile is
    // transposed back into W's rows.
    const int n_blocks = (p.k + bz - 1) / bz;
    const int tail = p.k - (n_blocks - 1) * bz;
    alignas(64) int8_t tile[kTileCols * kTileBlocks * 8];
    int8_t *w = p.w.data();
    const int cols = p.groups * p.n;
    const size_t ld = static_cast<size_t>(cols);
    forWeightTiles(p.k, cols, bz, n_blocks, [&](int b0, int nb, int rows,
                                               int j0, int cols) {
        const int seg = nb * bz;
        const bool last = b0 + nb == n_blocks;
        for (int c = 0; c < cols; ++c) {
            const DbbBlock *in =
                blocks + static_cast<size_t>(j0 + c) * n_blocks + b0;
            if (last)
                checkTail(in[nb - 1].mask, tail, "weight", j0 + c);
            int8_t *col = tile + c * seg;
            for (int b = 0; b < nb; ++b)
                decodeBlock(in[b], bz, col + b * bz);
        }
        transposeBytes(tile, seg, cols, rows, w + b0 * bz * ld + j0, ld);
    });
}

void
dbbDecodeActivations(const DbbBlock *blocks, int bz, GemmProblem &p)
{
    const int len = p.groups * p.k;
    const int nb = (len + bz - 1) / bz;
    const int tail = len - (nb - 1) * bz;
    for (int i = 0; i < p.m; ++i) {
        const DbbBlock *in = blocks + static_cast<size_t>(i) * nb;
        checkTail(in[nb - 1].mask, tail, "activation", i);
        int8_t *row = &p.a[static_cast<size_t>(i) * len];
        for (int b = 0; b < nb; ++b)
            decodeBlock(in[b], std::min(bz, len - b * bz),
                        row + b * bz);
    }
}

std::vector<int8_t>
transposedWeights(const GemmProblem &p)
{
    // The weight tiles' transpose, written straight into the
    // (groups*n) x k result (its rows are the tile's column
    // segments, k apart).
    const int cols = p.groups * p.n;
    std::vector<int8_t> wt(static_cast<size_t>(cols) * p.k);
    const size_t ld = static_cast<size_t>(cols);
    forWeightTiles(p.k, cols, 8, (p.k + 7) / 8,
                   [&](int b0, int, int rows, int j0, int cols) {
        transposeBytes(p.w.data() + b0 * 8 * ld + j0, ld, rows, cols,
                       wt.data() + static_cast<size_t>(j0) * p.k + b0 * 8,
                       p.k);
    });
    return wt;
}

void
transposeBytes(const int8_t *src, size_t src_ld, int rows, int cols,
               int8_t *dst, size_t dst_ld)
{
    const auto square = [&](int r0, int c0) {
        uint64_t sq[8];
        for (int i = 0; i < 8; ++i)
            sq[i] = loadBytes(src + (r0 + i) * src_ld + c0, 8);
        transpose8x8(sq);
        for (int i = 0; i < 8; ++i)
            storeBytes(dst + (c0 + i) * dst_ld + r0, sq[i], 8);
    };
    // Walk the squares along the rows of the side with the larger
    // row stride (W rather than an L1 tile), so that W streams in
    // row order whether it is read or written.
    const int rows8 = rows & ~7, cols8 = cols & ~7;
    if (src_ld >= dst_ld) {
        for (int r0 = 0; r0 < rows8; r0 += 8)
            for (int c0 = 0; c0 < cols8; c0 += 8)
                square(r0, c0);
    } else {
        for (int c0 = 0; c0 < cols8; c0 += 8)
            for (int r0 = 0; r0 < rows8; r0 += 8)
                square(r0, c0);
    }
    for (int r = 0; r < rows; ++r) {
        for (int c = r < rows8 ? cols8 : 0; c < cols; ++c)
            dst[c * dst_ld + r] = src[r * src_ld + c];
    }
}

} // namespace s2ta
