#include "core/dbb.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "base/thread_pool.hh"

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
 * The bytes of one band of a mask builder's temporary rows (a
 * multiple of 8 rows, 8 at least), which it transposes into the
 * result a band at a time: the weight builder's mask rows, and a
 * depthwise input's non-zero flags. A band stays in L2 between being
 * written and being read, and the temporary is one band, not a
 * matrix.
 */
constexpr size_t kMaskBandBytes = size_t{256} << 10;

// The mask builders and the transpose read 8 bytes as one word
// whose byte i is element i.
static_assert(std::endian::native == std::endian::little,
              "the DBB mask builders assume a little-endian host");

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

/** Positional mask of @p len <= 8 contiguous elements. */
inline Mask8
blockMask(const int8_t *src, int len)
{
    return flagsToMask(nonZeroBytes(loadBytes(src, len)));
}

/**
 * One mask row of a row-major operand: ORs into out[j] the
 * positional mask of column j's elements in the @p len <= 8 rows at
 * @p src (row stride @p ld), row e giving bit e. Row by row, each a
 * loop over the columns the compiler vectorizes, so W streams
 * through at memory speed.
 */
void
maskRows(const int8_t *src, size_t ld, int len, int cols, Mask8 *out)
{
    for (int e = 0; e < len; ++e) {
        const int8_t *row = src + e * ld;
        const Mask8 bit = static_cast<Mask8>(1u << e);
        for (int j = 0; j < cols; ++j)
            out[j] |= row[j] != 0 ? bit : 0;
    }
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

    /**
     * Calls @p f(r, first, len) for each of a vector's `blocks`
     * blocks r in order: the block's stored values are the @p len
     * starting at stored position @p first, none when len <= 0 (a
     * padded segment's blocks past its stored values).
     */
    template <typename F>
    void
    forEachBlock(F &&f) const
    {
        if (!padded) {
            for (int b = 0, kk = 0; kk < k; ++b, kk += bz)
                f(b, kk, std::min(bz, k - kk));
            return;
        }
        for (int s0 = 0, r = 0; s0 < k; s0 += seg)
            for (int b = 0; b < seg_blocks; ++b, ++r)
                f(r, s0 + b * bz, std::min(bz, seg - b * bz));
    }

    /** Block @p r's stored values: the len starting at stored
     *  position first, none when len <= 0 (forEachBlock's r-th
     *  call). */
    std::pair<int, int>
    block(int r) const
    {
        if (!padded)
            return {r * bz, std::min(bz, k - r * bz)};
        const int b = r % seg_blocks;
        return {r / seg_blocks * seg + b * bz, std::min(bz, seg - b * bz)};
    }

    /** The masks of the vector whose stored values start at
     *  @p src, into @p out (`blocks` masks). */
    void
    masks(const int8_t *src, Mask8 *out) const
    {
        forEachBlock([&](int r, int first, int len) {
            out[r] = len > 0 ? blockMask(src + first, len) : 0;
        });
    }

    int k, seg, bz;
    bool padded;
    /** Blocks per padded segment. */
    int seg_blocks;
    /** Blocks per vector. */
    int blocks;
};

/** Fatal unless each of the @p vectors vectors of @p nb masks at
 *  @p masks holds at most spec.nnz non-zeros per mask (a dense spec
 *  admits every mask). */
void
checkDensity(const Mask8 *masks, int vectors, int nb, const DbbSpec &spec,
             const char *kind, const char *vec_name)
{
    if (spec.isDense())
        return;
    for (int v = 0; v < vectors; ++v) {
        for (int b = 0; b < nb; ++b) {
            s2ta_assert(maskPopcount(masks[static_cast<size_t>(v) * nb + b]) <=
                            spec.nnz,
                        "%s block (%s %d, block %d) violates %s density "
                        "bound; prune first",
                        kind, vec_name, v, b, spec.toString().c_str());
        }
    }
}

/**
 * The masks of the M x groups*K activation matrix at @p a into
 * @p masks, all of p's group-major vectors: row i's group-g slice
 * is vector g * m + i. Row-outer, so each row streams once.
 */
void
maskActivationRows(const GemmProblem &p, const ModeledLayout &layout,
                   const int8_t *a, Mask8 *masks)
{
    const size_t lda = static_cast<size_t>(p.groups) * p.k;
    if (p.k == 1) {
        // One value per vector (a depthwise layer's input pixel): a
        // mask is its value's non-zero flag, so the masks are the
        // flags of the M x groups matrix in group-major order,
        // transposed a band of rows at a time.
        const int band = std::min(
            p.m, std::max(8, static_cast<int>(kMaskBandBytes / lda) & ~7));
        std::vector<int8_t> flags(static_cast<size_t>(band) * lda);
        for (int i0 = 0; i0 < p.m; i0 += band) {
            const int rows = std::min(band, p.m - i0);
            const int8_t *src = a + i0 * lda;
            for (size_t e = 0; e < rows * lda; ++e)
                flags[e] = src[e] != 0;
            transposeBytes(flags.data(), lda, rows, p.groups,
                           reinterpret_cast<int8_t *>(masks) + i0,
                           static_cast<size_t>(p.m));
        }
        return;
    }
    for (int i = 0; i < p.m; ++i) {
        for (int g = 0; g < p.groups; ++g) {
            layout.masks(a + i * lda + static_cast<size_t>(g) * p.k,
                         masks + (static_cast<size_t>(g) * p.m + i) *
                                     layout.blocks);
        }
    }
}

} // anonymous namespace

DbbMatrix::DbbMatrix(DbbSpec s, int vectors, int blocks,
                     std::vector<Mask8> m)
    : dbb_spec(s), n_vectors(vectors), n_blocks(blocks),
      masks(std::move(m))
{
    s2ta_assert(masks.size() == static_cast<size_t>(vectors) * blocks,
                "%zu masks for %d vectors of %d blocks", masks.size(),
                vectors, blocks);
}

DbbMatrix
DbbMatrix::fromWeights(const GemmProblem &p, const DbbSpec &spec)
{
    return fromWeights(p, p.w.data(), spec);
}

DbbMatrix
DbbMatrix::fromWeights(const GemmProblem &p, const int8_t *w,
                       const DbbSpec &spec, ThreadPool *pool)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const int bz = spec.bz;
    const ModeledLayout layout(p, bz);
    const int nb = layout.blocks;
    const int cols = p.groups * p.n;
    const size_t ld = static_cast<size_t>(cols);
    // Mask row r holds block r's mask of every column: the flags
    // of the block's (at most bz) stored W rows; a block with no
    // stored values stays empty. One index builds one band of mask
    // rows [r0, r1) in its own buffer and transposes it into its
    // columns' masks [r0, r1), so bands write disjoint bytes.
    const int band = std::min(
        nb, std::max(8, static_cast<int>(kMaskBandBytes /
                                         std::max<size_t>(ld, 1)) &
                            ~7));
    std::vector<Mask8> masks(static_cast<size_t>(cols) * nb);
    parallelForOn(pool, (nb + band - 1) / band, [&](int64_t bi) {
        const int r0 = static_cast<int>(bi) * band;
        const int r1 = std::min(nb, r0 + band);
        std::vector<Mask8> rows(static_cast<size_t>(r1 - r0) * ld);
        for (int r = r0; r < r1; ++r) {
            const auto [first, len] = layout.block(r);
            if (len > 0) {
                maskRows(w + static_cast<size_t>(first) * ld, ld, len,
                         cols, &rows[static_cast<size_t>(r - r0) * ld]);
            }
        }
        transposeBytes(reinterpret_cast<const int8_t *>(rows.data()), ld,
                       r1 - r0, cols,
                       reinterpret_cast<int8_t *>(masks.data()) + r0,
                       static_cast<size_t>(nb));
    });
    checkDensity(masks.data(), cols, nb, spec, "weight", "col");
    return DbbMatrix(spec, cols, nb, std::move(masks));
}

DbbMatrix
DbbMatrix::fromActivations(const GemmProblem &p, const DbbSpec &spec)
{
    return fromActivations(p, p.a.data(), spec);
}

DbbMatrix
DbbMatrix::fromActivations(const GemmProblem &p, const int8_t *a,
                           const DbbSpec &spec)
{
    s2ta_assert(spec.valid(), "invalid DBB spec %d/%d",
                spec.nnz, spec.bz);
    const ModeledLayout layout(p, spec.bz);
    const int nb = layout.blocks;
    std::vector<Mask8> masks(static_cast<size_t>(p.groups) * p.m * nb);
    maskActivationRows(p, layout, a, masks.data());
    checkDensity(masks.data(), p.groups * p.m, nb, spec, "activation",
                 "row");
    return DbbMatrix(spec, p.groups * p.m, nb, std::move(masks));
}

int64_t
DbbMatrix::compressedBytes() const
{
    // nnz value bytes + 1 mask byte per block.
    return static_cast<int64_t>(n_vectors) * n_blocks *
           (dbb_spec.nnz + 1);
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
            std::memcpy(dst + (c0 + i) * dst_ld + r0, &sq[i], 8);
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
