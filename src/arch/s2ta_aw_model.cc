#include <algorithm>

#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "core/dbb.hh"

namespace s2ta {

S2taAwModel::S2taAwModel(ArrayConfig cfg_) : ArrayModel(cfg_)
{
    s2ta_assert(cfg.kind == ArchKind::S2taAw, "S2taAwModel kind");
}

void
S2taAwModel::simulate(const GemmPlan &plan, const RunOptions &,
                      std::span<const OperandProfile> profs,
                      EventCounts &total) const
{
    const GemmProblem &p = plan.problem();
    const int bz = cfg.bz;
    const int nblocks = p.modeledK() / bz;
    const int nnz_a = cfg.act_nnz;
    const int wstored = cfg.weight_dbb.nnz;
    const int wblock_bytes = cfg.weight_dbb.storedBytesPerBlock();
    // Dense activation bypass stores raw blocks without a mask.
    const int ablock_bytes = nnz_a >= bz ? bz : nnz_a + 1;
    // The DP1M4 mux spans tpe.b weight lanes; denser weight specs
    // need extra sequential passes per block (dense fallback).
    const int passes = (wstored + cfg.tpe.b - 1) / cfg.tpe.b;

    const TileGrid grid = tileGrid(p.m, p.n);

    // Time-unrolled serialization: one activation element per cycle,
    // so a block costs exactly NNZ_a cycles (Sec. 5.2). This is the
    // mechanism behind speedup = BZ / NNZ_a.
    const int64_t tile_cycles =
        static_cast<int64_t>(nblocks) * nnz_a * passes + cfg.tpe.m +
        cfg.tpe.n + bz;

    // Each DP1M4 evaluates one MAC slot per cycle. A slot executes
    // when the serialized activation is non-zero and the 4:1 mux
    // finds a matching non-zero weight at the same expanded
    // position; otherwise the MAC is clock gated.
    const int64_t slots = static_cast<int64_t>(p.m) * p.n * nblocks *
                          nnz_a * passes;

    // Operand registers at TPE granularity. Activation blocks are
    // serialized (values plus the positional mask) and hop across
    // TPE columns; weight blocks are latched once per block and
    // reused for all NNZ_a serialized cycles. The same for every
    // group.
    int64_t operand_reg_bytes = 0;
    for (int trow = 0; trow < grid.row_tiles; ++trow) {
        const int rows =
            std::min(grid.eff_rows, p.m - trow * grid.eff_rows);
        const int tpe_rows = (rows + cfg.tpe.a - 1) / cfg.tpe.a;
        for (int tcol = 0; tcol < grid.col_tiles; ++tcol) {
            const int cols =
                std::min(grid.eff_cols, p.n - tcol * grid.eff_cols);
            const int tpe_cols = (cols + cfg.tpe.c - 1) / cfg.tpe.c;
            operand_reg_bytes +=
                static_cast<int64_t>(nblocks) * ablock_bytes * rows *
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
        ev.mux_selects = slots; // one 4:1 steer per slot

        // One accumulator per DP1M4; it updates only on executed
        // MACs.
        ev.accum_updates = prof.matched_products;
        ev.accum_gated = slots - prof.matched_products;

        ev.operand_reg_bytes = operand_reg_bytes;

        // SRAM: both operands move compressed (the dominant energy
        // win of S2TA-AW over S2TA-W, Fig. 10).
        ev.act_sram_read_bytes = static_cast<int64_t>(grid.col_tiles) *
                                 p.m * nblocks * ablock_bytes;
        ev.wgt_sram_bytes = static_cast<int64_t>(grid.row_tiles) *
                            p.n * nblocks * wblock_bytes;
        ev.act_sram_write_bytes = static_cast<int64_t>(p.m) * p.n;
        ev.actfn_elements = static_cast<int64_t>(p.m) * p.n;
        total.add(ev);
    }
}

std::vector<int32_t>
S2taAwModel::scalarOutput(const GemmProblem &p) const
{
    // Scalar reference: per-element functional model through the
    // time-unrolled DP1M4 path: each serialized activation element
    // carries its expanded position; the 4:1 mux selects the weight
    // slot whose mask bit matches (Fig. 6e). Encode permissively —
    // density enforcement belongs to checkOperands, which
    // RunOptions may have skipped.
    const int bz = cfg.bz;
    const int nblocks = p.k / bz;
    const std::vector<DbbBlock> ablocks = referenceBlocks(p, bz, false);
    const std::vector<DbbBlock> wblocks = referenceBlocks(p, bz, true);
    std::vector<int32_t> out(static_cast<size_t>(p.m) * p.n, 0);
    for (int i = 0; i < p.m; ++i) {
        for (int j = 0; j < p.n; ++j) {
            int32_t acc = 0;
            for (int b = 0; b < nblocks; ++b) {
                const DbbBlock &ab =
                    ablocks[static_cast<size_t>(i) * nblocks + b];
                const DbbBlock &wb =
                    wblocks[static_cast<size_t>(j) * nblocks + b];
                const int stored = ab.storedCount();
                for (int s = 0; s < stored; ++s) {
                    const int pos = maskNthSetBit(ab.mask, s);
                    if (!maskTest(wb.mask, pos))
                        continue; // mux finds no match: gated
                    acc += static_cast<int32_t>(
                               ab.values[static_cast<size_t>(s)])
                           * wb.values[static_cast<size_t>(
                                 maskRank(wb.mask, pos))];
                }
            }
            out[static_cast<size_t>(i) * p.n + j] = acc;
        }
    }
    return out;
}

} // namespace s2ta
