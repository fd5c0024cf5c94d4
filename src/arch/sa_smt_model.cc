#include <algorithm>

#include "arch/gemm_plan.hh"
#include "arch/models.hh"
#include "core/dbb.hh"

namespace s2ta {

namespace {

/** Seed of the sampled queue-timing simulation (deterministic). */
constexpr uint64_t kSampleSeed = 0xC0FFEE;
/** PEs sampled per simulated tile. */
constexpr int kSamplePes = 192;
/** Tiles simulated; their mean is reused for the rest. */
constexpr int kSampleTiles = 6;

} // anonymous namespace

SaSmtModel::SaSmtModel(ArrayConfig cfg_) : ArrayModel(cfg_)
{
    s2ta_assert(cfg.kind == ArchKind::SaSmt, "SaSmtModel kind");
}

int64_t
SaSmtModel::queueCycles(const std::vector<int> &arrivals,
                        int queue_depth)
{
    s2ta_assert(queue_depth >= 1, "queue depth %d", queue_depth);
    int64_t cycles = 0;
    int queue = 0;
    for (int arr : arrivals) {
        s2ta_assert(arr >= 0, "negative arrival count");
        // Each cycle the MAC pops one entry; the streams advance
        // (delivering 'arr' non-zero pairs) only once the FIFO has
        // room for all of them, otherwise the wavefront stalls.
        while (true) {
            ++cycles;
            if (queue > 0)
                --queue;
            if (queue + arr <= queue_depth) {
                queue += arr;
                break;
            }
        }
    }
    // Drain what is still queued after the streams finish.
    cycles += queue;
    return cycles;
}

void
SaSmtModel::simulate(const GemmPlan &plan, const RunOptions &opt,
                     GemmRun &out) const
{
    const GemmProblem &p = plan.problem();
    const bool scalar = usesScalarEngine(plan, opt);
    const OperandProfile prof = profileFor(plan, opt);
    EventCounts &ev = out.events;
    const int tcount = cfg.smt.threads;
    const int qdepth = cfg.smt.queue_depth;
    // Arrival slots per thread: K is split across threads.
    const int slots_per_thread = (p.k + tcount - 1) / tcount;

    // ---- Event totals (exact, closed form) ----------------------
    // Only position-matched non-zero pairs are enqueued and MACed.
    ev.macs_executed = prof.matched_products;
    const int64_t pe_slots =
        static_cast<int64_t>(p.m) * p.n * slots_per_thread;
    // MAC idle cycles burn clock energy only.
    ev.macs_gated = std::max<int64_t>(0, pe_slots - ev.macs_executed);

    // Streams shift every cycle; zero bytes are latch-gated like
    // ZVCG (the zero detection already exists for the skip logic).
    const int64_t moves = 2ll * p.m * p.n * p.k;
    const int64_t active_moves =
        static_cast<int64_t>(p.n) * prof.act_nnz +
        static_cast<int64_t>(p.m) * prof.wgt_nnz;
    ev.operand_reg_bytes = active_moves;
    ev.operand_reg_gated_bytes = moves - active_moves;

    // Staging FIFO: one push and one pop per matched pair.
    ev.fifo_pushes = prof.matched_products;
    ev.fifo_pops = prof.matched_products;

    ev.accum_updates = prof.matched_products;
    ev.accum_gated = std::max<int64_t>(0,
        pe_slots - prof.matched_products);

    const TileGrid grid = tileGrid(p.m, p.n);
    ev.act_sram_read_bytes =
        static_cast<int64_t>(grid.col_tiles) * p.m * p.k;
    ev.wgt_sram_bytes =
        static_cast<int64_t>(grid.row_tiles) * p.k * p.n;
    ev.act_sram_write_bytes = static_cast<int64_t>(p.m) * p.n;
    ev.actfn_elements = static_cast<int64_t>(p.m) * p.n;

    // ---- Tile timing (sampled queue simulation) -----------------
    // The tile finishes when its slowest PE drains; we simulate the
    // queue automaton for a deterministic sample of PEs in a sample
    // of tiles and use the per-tile maximum. The fast engine reads
    // non-zero tests from the cached masks instead of the dense
    // operands; the booleans (and so the cycle totals) are
    // identical.
    Rng rng(kSampleSeed);
    const int64_t total_tiles = grid.tiles();
    const int sim_tiles = static_cast<int>(
        std::min<int64_t>(total_tiles, kSampleTiles));
    const int64_t fill = cfg.tileRows() + cfg.tileCols();
    std::vector<int> arrivals(static_cast<size_t>(slots_per_thread));
    int64_t sampled_cycles = 0;
    for (int s = 0; s < sim_tiles; ++s) {
        const int tr = static_cast<int>(
            rng.uniformInt(0, grid.row_tiles - 1));
        const int tc = static_cast<int>(
            rng.uniformInt(0, grid.col_tiles - 1));
        const int row0 = tr * grid.eff_rows;
        const int col0 = tc * grid.eff_cols;
        const int rows = std::min(grid.eff_rows, p.m - row0);
        const int cols = std::min(grid.eff_cols, p.n - col0);
        int64_t worst = 0;
        for (int t = 0; t < kSamplePes; ++t) {
            const int i =
                row0 + static_cast<int>(rng.uniformInt(0, rows - 1));
            const int j =
                col0 + static_cast<int>(rng.uniformInt(0, cols - 1));
            // Thread th owns the contiguous K chunk
            // [th*slots_per_thread, ...).
            if (scalar) {
                for (int sl = 0; sl < slots_per_thread; ++sl) {
                    int arr = 0;
                    for (int th = 0; th < tcount; ++th) {
                        const int kk = th * slots_per_thread + sl;
                        if (kk >= p.k)
                            continue;
                        if (p.actAt(i, kk) != 0 &&
                            p.wgtAt(kk, j) != 0)
                            ++arr;
                    }
                    arrivals[static_cast<size_t>(sl)] = arr;
                }
            } else {
                // DBB-native sampling: one mask AND yields all
                // matched positions of a block pair at once, so
                // building the arrival histogram is O(matched)
                // instead of O(k) per sampled PE. Counts are
                // identical to the per-element scan (tail padding
                // positions are never set in any mask).
                std::fill(arrivals.begin(), arrivals.end(), 0);
                const DbbBlock *arow = plan.act().vectorBlocks(i);
                const DbbBlock *wcol = plan.wgt().vectorBlocks(j);
                const int nb = plan.act().blocksPerVector();
                const int bz = plan.bz();
                for (int b = 0; b < nb; ++b) {
                    for (Mask8 m = maskAnd(arow[b].mask,
                                           wcol[b].mask);
                         m; m = maskClearLowest(m)) {
                        const int kk =
                            b * bz + maskLowestSetBit(m);
                        ++arrivals[static_cast<size_t>(
                            kk % slots_per_thread)];
                    }
                }
            }
            worst = std::max(worst, queueCycles(arrivals, qdepth));
        }
        sampled_cycles += worst + fill;
    }
    const double mean_tile =
        static_cast<double>(sampled_cycles) / sim_tiles;
    ev.cycles = static_cast<int64_t>(
        std::llround(mean_tile * static_cast<double>(total_tiles)));

    if (!opt.compute_output)
        return;
    referenceOutput(plan, opt, out);
}

} // namespace s2ta
