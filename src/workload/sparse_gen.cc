#include "workload/sparse_gen.hh"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "core/dbb.hh"

namespace s2ta {

namespace {

constexpr auto kIota = [] {
    std::array<uint8_t, 64> a{};
    for (int i = 0; i < 64; ++i)
        a[static_cast<size_t>(i)] = static_cast<uint8_t>(i);
    return a;
}();

/**
 * Fill out[0, len) with exactly @p nnz non-zeros at uniformly random
 * positions, zeros elsewhere. The draws are Rng::chooseK's (a partial
 * Fisher-Yates of uniformInt(i, len - 1)), then one nonZeroInt8 per
 * chosen position in ascending order. Up to 64 elements the shuffle
 * runs on the stack and the positions leave a bitmask in set-bit
 * order, where chooseK would allocate and sort.
 */
void
fillVector(int8_t *out, int len, int nnz, Rng &rng)
{
    std::memset(out, 0, static_cast<size_t>(len));
    if (len > 64) {
        for (int pos : rng.chooseK(len, nnz))
            out[pos] = rng.nonZeroInt8();
        return;
    }
    s2ta_assert(nnz >= 0 && nnz <= len, "chooseK(%d, %d)", len, nnz);
    std::array<uint8_t, 64> idx = kIota;
    uint64_t chosen = 0;
    for (int i = 0; i < nnz; ++i) {
        std::swap(idx[i], idx[rng.uniformInt(i, len - 1)]);
        chosen |= uint64_t{1} << idx[i];
    }
    for (; chosen != 0; chosen &= chosen - 1)
        out[std::countr_zero(chosen)] = rng.nonZeroInt8();
}

/** A vector of @p bz-element blocks, each with exactly min(nnz, r)
 *  non-zeros among its r elements (r < bz only in the tail block). */
void
fillDbbVector(int8_t *out, int len, int nnz, int bz, Rng &rng)
{
    for (int off = 0; off < len; off += bz) {
        const int r = std::min(bz, len - off);
        fillVector(out + off, r, std::min(nnz, r), rng);
    }
}

/**
 * Fill the rows x cols matrix at @p dst (row stride @p ld) one column
 * after another: fill(col) draws a column's rows elements into col.
 * Columns are drawn kChunkCols at a time into a buffer and transposed
 * into place, so dst is written a tile at a time instead of one byte
 * per row down each column.
 */
template <typename Fill>
void
fillColumns(int8_t *dst, size_t ld, int rows, int cols, Fill &&fill)
{
    constexpr int kChunkCols = 64;
    std::vector<int8_t> chunk(static_cast<size_t>(kChunkCols) * rows);
    for (int j0 = 0; j0 < cols; j0 += kChunkCols) {
        const int nc = std::min(kChunkCols, cols - j0);
        for (int c = 0; c < nc; ++c)
            fill(chunk.data() + static_cast<size_t>(c) * rows);
        transposeBytes(chunk.data(), static_cast<size_t>(rows), nc,
                       rows, dst + j0, ld);
    }
}

int
nnzFor(int len, double sparsity)
{
    s2ta_assert(sparsity >= 0.0 && sparsity <= 1.0,
                "sparsity %g out of range", sparsity);
    return static_cast<int>(
        std::lround(len * (1.0 - sparsity)));
}

} // anonymous namespace

GemmProblem
makeUnstructuredGemm(int m, int k, int n, double wgt_sparsity,
                     double act_sparsity, Rng &rng)
{
    GemmProblem p(m, k, n);
    const int act_nnz = nnzFor(k, act_sparsity);
    const int wgt_nnz = nnzFor(k, wgt_sparsity);
    for (int i = 0; i < m; ++i)
        fillVector(&p.a[static_cast<size_t>(i) * k], k, act_nnz, rng);
    fillColumns(p.w.data(), static_cast<size_t>(n), k, n,
                [&](int8_t *col) { fillVector(col, k, wgt_nnz, rng); });
    return p;
}

GemmProblem
makeDbbGemm(int m, int k, int n, int wgt_nnz, int act_nnz, Rng &rng,
            int bz)
{
    s2ta_assert(k % bz == 0, "K=%d vs bz=%d", k, bz);
    s2ta_assert(wgt_nnz >= 0 && wgt_nnz <= bz &&
                act_nnz >= 0 && act_nnz <= bz,
                "nnz out of range");
    GemmProblem p(m, k, n);
    for (int i = 0; i < m; ++i) {
        fillDbbVector(&p.a[static_cast<size_t>(i) * k], k, act_nnz, bz,
                      rng);
    }
    fillColumns(p.w.data(), static_cast<size_t>(n), k, n,
                [&](int8_t *col) {
        fillDbbVector(col, k, wgt_nnz, bz, rng);
    });
    return p;
}

Int8Tensor
makeUnstructuredTensor(const std::vector<int> &shape, double sparsity,
                       Rng &rng)
{
    Int8Tensor t(shape);
    const int64_t total = t.size();
    const int64_t nnz = std::llround(
        static_cast<double>(total) * (1.0 - sparsity));
    // Exact global count via reservoir-style selection: walk the
    // tensor once, keeping the running draw probability exact.
    int64_t remaining_slots = total;
    int64_t remaining_nnz = nnz;
    for (int64_t i = 0; i < total; ++i) {
        const double pr =
            static_cast<double>(remaining_nnz) /
            static_cast<double>(remaining_slots);
        if (remaining_nnz > 0 && rng.bernoulli(pr)) {
            t.flat(i) = rng.nonZeroInt8();
            --remaining_nnz;
        }
        --remaining_slots;
    }
    return t;
}

Int8Tensor
makeDbbTensor(const std::vector<int> &shape, int nnz, Rng &rng,
              int bz)
{
    Int8Tensor t(shape);
    const int channels = t.dim(t.rank() - 1);
    for (int64_t base = 0; base < t.size(); base += channels)
        fillDbbVector(t.data() + base, channels, nnz, bz, rng);
    return t;
}

Int8Tensor
makeDbbWeights(const std::vector<int> &shape, int nnz, Rng &rng,
               int bz)
{
    Int8Tensor t(shape);
    s2ta_assert(t.rank() >= 2, "rank %d weight tensor", t.rank());
    const int rows = t.dim(t.rank() - 2), cols = t.dim(t.rank() - 1);
    const int64_t plane = static_cast<int64_t>(rows) * cols;
    for (int64_t base = 0; base < t.size(); base += plane) {
        fillColumns(t.data() + base, static_cast<size_t>(cols), rows,
                    cols, [&](int8_t *col) {
            fillDbbVector(col, rows, nnz, bz, rng);
        });
    }
    return t;
}

} // namespace s2ta
