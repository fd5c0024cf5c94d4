#include "core/dap.hh"

#include "core/topk.hh"

namespace s2ta {

Mask8
dapSelectMask(std::span<const int8_t> block, int nnz)
{
    return topNnzMask(block, nnz);
}

DapUnit::DapUnit(DapConfig cfg_) : cfg(cfg_)
{
    s2ta_assert(cfg.bz >= 1 && cfg.bz <= 8, "bz=%d", cfg.bz);
    s2ta_assert(cfg.max_stages >= 1 && cfg.max_stages <= cfg.bz,
                "max_stages=%d", cfg.max_stages);
}

DapUnit::BlockResult
DapUnit::process(std::span<const int8_t> block, int nnz) const
{
    s2ta_assert(block.size() == static_cast<size_t>(cfg.bz),
                "block size %zu != bz %d", block.size(), cfg.bz);
    s2ta_assert(cfg.supports(nnz), "unsupported NNZ %d", nnz);

    BlockResult res;
    if (nnz == cfg.bz) {
        // Dense bypass: no comparator activity; the mask simply
        // flags the non-zero positions (what dbbEncode would store).
        for (int i = 0; i < cfg.bz; ++i) {
            if (block[static_cast<size_t>(i)] != 0)
                res.mask = maskSet(res.mask, i);
        }
        return res;
    }

    // Cascade of magnitude maxpool stages. Each stage performs a
    // left-biased binary-tree reduction over the elements not yet
    // selected, which is equivalent to a linear argmax scan with
    // strict-greater comparison (lowest index wins ties). Each stage
    // burns BZ-1 comparators regardless of data (Fig. 8), including
    // the stages left once only zeros remain.
    res.comparisons = nnz * (cfg.bz - 1);
    for (int stage = 0; stage < nnz; ++stage) {
        int best = -1;
        int best_mag = 0;
        for (int i = 0; i < cfg.bz; ++i) {
            if (maskTest(res.mask, i))
                continue; // discounted in consecutive maxpools
            const int mag =
                std::abs(static_cast<int>(block[
                    static_cast<size_t>(i)]));
            if (mag > best_mag) {
                best_mag = mag;
                best = i;
            }
        }
        if (best < 0)
            break; // only zeros remain; later stages select nothing
        res.winner_positions.push_back(best);
        res.mask = maskSet(res.mask, best);
    }
    return res;
}

namespace {

/**
 * Prune contiguous channel vectors of length @p vec_len inside a
 * flat buffer, accumulating DAP statistics.
 *
 * A block holding no more non-zeros than its bound keeps all of
 * them, so only over-dense blocks run the Top-NNZ selection; the
 * comparator count is charged either way, since the cascade burns
 * its comparators regardless of data. Squared magnitudes are summed
 * as integers: each is at most 2^14, so the sums stay exact (and
 * equal to a double accumulation) far past any tensor size.
 */
DapStats
dapPruneContiguous(int8_t *data, int64_t count, int vec_len, int nnz,
                   const DapConfig &cfg)
{
    s2ta_assert(cfg.supports(nnz), "unsupported NNZ %d", nnz);
    s2ta_assert(count % vec_len == 0,
                "buffer %ld not a multiple of vector length %d",
                count, vec_len);

    DapStats stats;
    int64_t l2_before = 0, l2_dropped = 0;
    const bool bypass = (nnz == cfg.bz);

    for (int64_t base = 0; base < count; base += vec_len) {
        for (int off = 0; off < vec_len; off += cfg.bz) {
            const int len = std::min(cfg.bz, vec_len - off);
            const int bound = std::min(nnz, len);
            int8_t *blk = data + base + off;

            int nz = 0;
            int32_t l2 = 0;
            for (int i = 0; i < len; ++i) {
                const int32_t v = blk[i];
                nz += v != 0;
                l2 += v * v;
            }
            stats.nonzeros_before += nz;
            l2_before += l2;

            if (bypass || bound >= len) {
                ++stats.bypassed_blocks;
                continue;
            }
            ++stats.blocks;
            stats.comparisons +=
                static_cast<int64_t>(bound) * (len - 1);
            if (nz <= bound)
                continue;

            std::span<int8_t> span(blk, static_cast<size_t>(len));
            const Mask8 keep =
                topNnzMask(std::span<const int8_t>(span), bound);
            stats.nonzeros_dropped += nz - maskPopcount(keep);
            for (int i = 0; i < len; ++i) {
                if (!maskTest(keep, i)) {
                    const int32_t v = blk[i];
                    l2_dropped += v * v;
                }
            }
            applyKeepMask(span, keep);
        }
    }
    stats.l2_retained =
        l2_before > 0 ? static_cast<double>(l2_before - l2_dropped) /
                            static_cast<double>(l2_before)
                      : 1.0;
    return stats;
}

} // anonymous namespace

DapStats
dapPruneTensor(Int8Tensor &t, int nnz, const DapConfig &cfg)
{
    s2ta_assert(t.rank() >= 1, "rank-0 tensor");
    const int channels = t.dim(t.rank() - 1);
    return dapPruneContiguous(t.data(), t.size(), channels, nnz, cfg);
}

DapStats
dapPruneActivations(GemmProblem &p, int nnz, const DapConfig &cfg)
{
    s2ta_assert(p.k % cfg.bz == 0, "K=%d vs bz=%d", p.k, cfg.bz);
    return dapPruneContiguous(p.a.data(),
                              static_cast<int64_t>(p.a.size()), p.k,
                              nnz, cfg);
}

int
chooseLayerNnz(const Int8Tensor &activations, double min_l2_retention,
               const DapConfig &cfg)
{
    for (int nnz = 1; nnz <= cfg.max_stages; ++nnz) {
        Int8Tensor copy = activations;
        const DapStats st = dapPruneTensor(copy, nnz, cfg);
        if (st.l2_retained >= min_l2_retention)
            return nnz;
    }
    return cfg.bz; // dense bypass
}

} // namespace s2ta
