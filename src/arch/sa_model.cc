#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "core/dbb.hh"

namespace s2ta {

SaModel::SaModel(ArrayConfig cfg_) : ArrayModel(cfg_)
{
    s2ta_assert(cfg.kind == ArchKind::Sa ||
                cfg.kind == ArchKind::SaZvcg,
                "SaModel needs an SA kind");
}

void
SaModel::simulate(const GemmPlan &plan, const RunOptions &,
                  std::span<const OperandProfile> profs,
                  EventCounts &total) const
{
    const GemmProblem &p = plan.problem();
    const int k = p.modeledK();
    const bool zvcg = cfg.kind == ArchKind::SaZvcg;

    const TileGrid grid = tileGrid(p.m, p.n);

    // Output-stationary: K streams through each tile, plus wavefront
    // fill and accumulator drain.
    const int64_t tile_cycles = k + cfg.tileRows() + cfg.tileCols();

    // MAC slots: every mapped output sees all K operand pairs.
    const int64_t slots = static_cast<int64_t>(p.m) * p.n * k;

    for (const OperandProfile &prof : profs) {
        EventCounts ev;
        ev.cycles = grid.tiles() * tile_cycles;
        ev.macs_executed = prof.matched_products;
        if (zvcg)
            ev.macs_gated = slots - prof.matched_products;
        else
            ev.macs_zero = slots - prof.matched_products;

        // Operand pipeline registers: each PE latches one activation
        // and one weight byte per streaming cycle. ZVCG gates the
        // latch for zero bytes; the dense SA pays for every move.
        const int64_t moves = 2 * slots;
        const int64_t active_moves =
            static_cast<int64_t>(p.n) * prof.act_nnz +
            static_cast<int64_t>(p.m) * prof.wgt_nnz;
        if (zvcg) {
            ev.operand_reg_bytes = active_moves;
            ev.operand_reg_gated_bytes = moves - active_moves;
        } else {
            ev.operand_reg_bytes = moves;
        }

        // Output-stationary accumulator: the dense SA clocks it every
        // cycle; ZVCG suppresses the update when the product is zero.
        if (zvcg) {
            ev.accum_updates = prof.matched_products;
            ev.accum_gated = slots - prof.matched_products;
        } else {
            ev.accum_updates = slots;
        }

        // SRAM: the activation row stripe is re-read for every
        // column tile and the weight column stripe for every row
        // tile.
        ev.act_sram_read_bytes =
            static_cast<int64_t>(grid.col_tiles) * p.m * k;
        ev.wgt_sram_bytes =
            static_cast<int64_t>(grid.row_tiles) * k * p.n;
        ev.act_sram_write_bytes = static_cast<int64_t>(p.m) * p.n;
        ev.actfn_elements = static_cast<int64_t>(p.m) * p.n;
        total.add(ev);
    }
}

} // namespace s2ta
