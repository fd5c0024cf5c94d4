#include <algorithm>
#include <cmath>

#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "core/dbb.hh"

namespace s2ta {

S2taWModel::S2taWModel(ArrayConfig cfg_) : ArrayModel(cfg_)
{
    s2ta_assert(cfg.kind == ArchKind::S2taW, "S2taWModel kind");
}

void
S2taWModel::simulate(const GemmPlan &plan, const RunOptions &,
                     std::span<const OperandProfile> profs,
                     EventCounts &total) const
{
    const GemmProblem &p = plan.problem();
    const int k = p.modeledK();
    const int bz = cfg.bz;
    const int nblocks = k / bz;
    const int wstored = cfg.weight_dbb.nnz;
    const int wblock_bytes = cfg.weight_dbb.storedBytesPerBlock();
    // DP4M8 holds 4 weight lanes; denser weight specs need extra
    // sequential passes per block (dense fallback, Sec. 4).
    const int lanes = kDp4Lanes;
    const int passes = (wstored + lanes - 1) / lanes;

    const TileGrid grid = tileGrid(p.m, p.n);

    // One weight block (and one dense activation block) per DP4M8
    // per cycle; M+N TPE hops to fill plus a block drain.
    const int64_t tile_cycles =
        static_cast<int64_t>(nblocks) * passes + cfg.tpe.m +
        cfg.tpe.n + bz;

    // MAC slots: 'lanes' multipliers evaluated per block pass per
    // output. A slot executes when its stored weight is non-zero and
    // the mux-steered activation is non-zero; everything else (empty
    // weight lanes, ZVCG'd zero activations) is clock gated.
    const int64_t slots = static_cast<int64_t>(p.m) * p.n * nblocks *
                          lanes * passes;
    const int64_t accum_slots =
        static_cast<int64_t>(p.m) * p.n * nblocks * passes;

    // Operand registers at TPE granularity: activation blocks hop
    // across the TPE columns, weight blocks down the TPE rows; each
    // value is reused by A x C datapaths once latched (the new
    // data-reuse dimension of Sec. 6.1). The same for every group.
    int64_t operand_reg_bytes = 0;
    for (int trow = 0; trow < grid.row_tiles; ++trow) {
        const int rows =
            std::min(grid.eff_rows, p.m - trow * grid.eff_rows);
        const int tpe_rows = (rows + cfg.tpe.a - 1) / cfg.tpe.a;
        for (int tcol = 0; tcol < grid.col_tiles; ++tcol) {
            const int cols =
                std::min(grid.eff_cols, p.n - tcol * grid.eff_cols);
            const int tpe_cols = (cols + cfg.tpe.c - 1) / cfg.tpe.c;
            // Dense activation blocks (bz bytes per row per hop)
            // plus compressed weight blocks (stored values + mask).
            operand_reg_bytes +=
                static_cast<int64_t>(nblocks) * bz * rows *
                    tpe_cols +
                static_cast<int64_t>(nblocks) * wblock_bytes * cols *
                    tpe_rows;
        }
    }

    for (const OperandProfile &prof : profs) {
        EventCounts ev;
        ev.cycles = grid.tiles() * tile_cycles;
        ev.macs_executed = prof.matched_products;
        ev.macs_gated = slots - prof.matched_products;
        ev.mux_selects = slots; // one 8:1 steer per slot

        // Accumulator: the DP4 adder-tree result is accumulated once
        // per block pass, gated when all four products are zero. The
        // active fraction is estimated statistically (DESIGN.md
        // Sec. 3).
        const double q = slots > 0
            ? static_cast<double>(prof.matched_products) /
                  static_cast<double>(slots)
            : 0.0;
        const double p_active = 1.0 - std::pow(1.0 - q, lanes);
        ev.accum_updates = static_cast<int64_t>(std::llround(
            static_cast<double>(accum_slots) * p_active));
        ev.accum_gated = accum_slots - ev.accum_updates;

        ev.operand_reg_bytes = operand_reg_bytes;

        // SRAM: weights move compressed; activations are dense.
        ev.act_sram_read_bytes =
            static_cast<int64_t>(grid.col_tiles) * p.m * k;
        ev.wgt_sram_bytes = static_cast<int64_t>(grid.row_tiles) *
                            p.n * nblocks * wblock_bytes;
        ev.act_sram_write_bytes = static_cast<int64_t>(p.m) * p.n;
        ev.actfn_elements = static_cast<int64_t>(p.m) * p.n;
        total.add(ev);
    }
}

std::vector<int32_t>
S2taWModel::scalarOutput(const GemmProblem &p) const
{
    // Scalar reference: per-element functional model through the
    // DP4M8 steering path: for each stored weight, the 8:1 mux
    // selects the activation at the weight's expanded position
    // (Fig. 6c). Encode permissively — density enforcement belongs
    // to checkOperands, which RunOptions may have skipped.
    const int bz = cfg.bz;
    const int nblocks = p.k / bz;
    const std::vector<DbbBlock> wblocks = referenceBlocks(p, bz, true);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n, 0);
    for (int i = 0; i < p.m; ++i) {
        for (int j = 0; j < p.n; ++j) {
            int32_t acc = 0;
            for (int b = 0; b < nblocks; ++b) {
                const DbbBlock &blk =
                    wblocks[static_cast<size_t>(j) * nblocks + b];
                const int stored = blk.storedCount();
                for (int s = 0; s < stored; ++s) {
                    const int pos = maskNthSetBit(blk.mask, s);
                    acc += static_cast<int32_t>(
                               p.actAt(i, b * bz + pos)) *
                           blk.values[static_cast<size_t>(s)];
                }
            }
            out[static_cast<size_t>(i) * p.n + j] = acc;
        }
    }
    return out;
}

} // namespace s2ta
