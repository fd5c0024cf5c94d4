#include "core/dbb.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <type_traits>

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

/** The first @p len <= 8 bytes at @p p as a word, zero-extended. */
inline uint64_t
loadBytes(const int8_t *p, int len)
{
    uint64_t v = 0;
    if (len == 8)
        std::memcpy(&v, p, 8);
    else
        std::memcpy(&v, p, static_cast<size_t>(len));
    return v;
}

/** Store the low @p len <= 8 bytes of @p v at @p p. */
inline void
storeBytes(int8_t *p, uint64_t v, int len)
{
    if (len == 8)
        std::memcpy(p, &v, 8);
    else
        std::memcpy(p, &v, static_cast<size_t>(len));
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
 * Copy a rows x cols window of a row-major matrix (row stride @p ld)
 * into the tile, where column c's rows sit contiguously at
 * tile + c * seg (kToTile), or back out of it. In 8 x 8 byte
 * squares through registers; the ragged edges element by element.
 */
template <bool kToTile>
void
tileCopy(std::conditional_t<kToTile, const int8_t, int8_t> *mat,
         size_t ld, int rows, int cols, int seg,
         std::conditional_t<kToTile, int8_t, const int8_t> *tile)
{
    const auto copy = [](auto *dst, size_t dst_ld, const auto *src,
                         size_t src_ld) {
        uint64_t sq[8];
        for (int i = 0; i < 8; ++i)
            sq[i] = loadBytes(src + i * src_ld, 8);
        transpose8x8(sq);
        for (int i = 0; i < 8; ++i)
            storeBytes(dst + i * dst_ld, sq[i], 8);
    };
    const int rows8 = rows & ~7, cols8 = cols & ~7;
    const auto tseg = static_cast<size_t>(seg);
    for (int r0 = 0; r0 < rows8; r0 += 8) {
        for (int c0 = 0; c0 < cols8; c0 += 8) {
            auto *m = mat + r0 * ld + c0;
            auto *t = tile + c0 * tseg + r0;
            if constexpr (kToTile)
                copy(t, tseg, m, ld);
            else
                copy(m, ld, t, tseg);
        }
    }
    for (int r = 0; r < rows; ++r) {
        for (int c = r < rows8 ? cols8 : 0; c < cols; ++c) {
            if constexpr (kToTile)
                tile[c * tseg + r] = mat[r * ld + c];
            else
                mat[r * ld + c] = tile[c * tseg + r];
        }
    }
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

} // anonymous namespace

DbbMatrix
DbbMatrix::fromWeights(const GemmProblem &p, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const int bz = spec.bz;
    DbbMatrix m(spec, p.n, (p.k + bz - 1) / bz);
    // W is K x N row-major but its blocks run down each column.
    // Each tile is read row by row, transposed in L1, and every
    // column's blocks are encoded from its contiguous segment into
    // a contiguous run of output blocks, so reads and writes both
    // stream instead of scattering across N column streams.
    alignas(64) int8_t tile[kTileCols * kTileBlocks * 8];
    const int8_t *w = p.w.data();
    const size_t ld = static_cast<size_t>(p.n);
    DbbBlock *blks = m.blks.data();
    const int nbv = m.n_blocks;
    forWeightTiles(p.k, p.n, bz, nbv, [&](int b0, int nb, int rows,
                                          int j0, int cols) {
        const int seg = nb * bz;
        tileCopy<true>(w + b0 * bz * ld + j0, ld, rows, cols, seg,
                       tile);
        for (int c = 0; c < cols; ++c) {
            int8_t *col = tile + c * seg;
            std::fill(col + rows, col + seg, int8_t{0});
            DbbBlock *out =
                blks + static_cast<size_t>(j0 + c) * nbv + b0;
            for (int b = 0; b < nb; ++b) {
                const int nz = encodeBlock(col + b * bz, bz, out[b]);
                s2ta_assert(nz <= spec.nnz,
                            "weight block (col %d, block %d) "
                            "violates %s density bound; prune first",
                            j0 + c, b0 + b, spec.toString().c_str());
            }
        }
    });
    return m;
}

DbbMatrix
DbbMatrix::fromActivations(const GemmProblem &p, const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const int bz = spec.bz;
    DbbMatrix m(spec, p.m, (p.k + bz - 1) / bz);
    for (int i = 0; i < p.m; ++i) {
        const int8_t *row = &p.a[static_cast<size_t>(i) * p.k];
        DbbBlock *out = &m.blks[static_cast<size_t>(i) * m.n_blocks];
        for (int b = 0; b < m.n_blocks; ++b) {
            const int nz = encodeBlock(
                row + b * bz, std::min(bz, p.k - b * bz), out[b]);
            s2ta_assert(nz <= spec.nnz,
                        "activation block (row %d, block %d) "
                        "violates %s density bound; prune first",
                        i, b, spec.toString().c_str());
        }
    }
    return m;
}

void
DbbMatrix::weightsInto(GemmProblem &p) const
{
    const int bz = dbb_spec.bz;
    s2ta_assert(p.n == n_vectors && (p.k + bz - 1) / bz == n_blocks,
                "%d x %d weight blocks for a %dx%d operand", n_vectors,
                n_blocks, p.k, p.n);
    // fromWeights in reverse, through the same tile: each column's
    // blocks expand into its tile segment, and the tile is
    // transposed back into W's rows.
    const int tail = p.k - (n_blocks - 1) * bz;
    alignas(64) int8_t tile[kTileCols * kTileBlocks * 8];
    int8_t *w = p.w.data();
    const size_t ld = static_cast<size_t>(p.n);
    forWeightTiles(p.k, p.n, bz, n_blocks, [&](int b0, int nb, int rows,
                                               int j0, int cols) {
        const int seg = nb * bz;
        const bool last = b0 + nb == n_blocks;
        for (int c = 0; c < cols; ++c) {
            const DbbBlock *in = vectorBlocks(j0 + c) + b0;
            s2ta_assert(!last || (in[nb - 1].mask >> tail) == 0,
                        "weight non-zero in the padding tail "
                        "(col %d)", j0 + c);
            int8_t *col = tile + c * seg;
            for (int b = 0; b < nb; ++b)
                decodeBlock(in[b], bz, col + b * bz);
        }
        tileCopy<false>(w + b0 * bz * ld + j0, ld, rows, cols, seg,
                        tile);
    });
}

void
DbbMatrix::activationsInto(GemmProblem &p) const
{
    const int bz = dbb_spec.bz;
    s2ta_assert(p.m == n_vectors && (p.k + bz - 1) / bz == n_blocks,
                "%d x %d activation blocks for a %dx%d operand",
                n_vectors, n_blocks, p.m, p.k);
    const int tail = p.k - (n_blocks - 1) * bz;
    for (int i = 0; i < p.m; ++i) {
        const DbbBlock *in = vectorBlocks(i);
        s2ta_assert((in[n_blocks - 1].mask >> tail) == 0,
                    "activation non-zero in the padding tail (row %d)",
                    i);
        int8_t *row = &p.a[static_cast<size_t>(i) * p.k];
        for (int b = 0; b < n_blocks; ++b)
            decodeBlock(in[b], std::min(bz, p.k - b * bz),
                        row + b * bz);
    }
}

int64_t
DbbMatrix::compressedBytes() const
{
    // nnz value bytes + 1 mask byte per block.
    return static_cast<int64_t>(n_vectors) * n_blocks *
           (dbb_spec.nnz + 1);
}

double
DbbMatrix::occupancy() const
{
    if (blks.empty())
        return 0.0;
    int64_t stored = 0;
    for (const DbbBlock &b : blks)
        stored += b.storedCount();
    return static_cast<double>(stored) /
           (static_cast<double>(blks.size()) * dbb_spec.nnz);
}

std::vector<int8_t>
DbbMatrix::toDense() const
{
    // Vector-major with K padded to whole blocks, so block i expands
    // to elements [i * bz, (i + 1) * bz).
    const int bz = dbb_spec.bz;
    std::vector<int8_t> dense(blks.size() * static_cast<size_t>(bz));
    for (size_t i = 0; i < blks.size(); ++i)
        decodeBlock(blks[i], bz, &dense[i * static_cast<size_t>(bz)]);
    return dense;
}

} // namespace s2ta
