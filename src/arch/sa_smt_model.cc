#include <algorithm>
#include <bit>

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

// The bz 8 bitmap is the mask bytes in order, read as words.
static_assert(std::endian::native == std::endian::little,
              "match bitmaps assume little-endian words");

/**
 * One arrival slot of the FIFO automaton in closed form: a slot
 * entered with an empty FIFO idles its first cycle; otherwise every
 * cycle pops, and the slot ends once its @p arr pairs fit.
 */
inline int
slotStep(int queue, int arr, int queue_depth, int64_t &idle)
{
    idle += queue == 0;
    return std::min(queue_depth, std::max(queue - 1, 0) + arr);
}

inline int
bitAt(const uint64_t *bitmap, int bit)
{
    return static_cast<int>((bitmap[bit / 64] >> (bit % 64)) & 1u);
}

} // anonymous namespace

SaSmtModel::SaSmtModel(ArrayConfig cfg_) : ArrayModel(cfg_)
{
    s2ta_assert(cfg.kind == ArchKind::SaSmt, "SaSmtModel kind");
    const int qdepth = cfg.smt.queue_depth;
    table.resize(256 * static_cast<size_t>(qdepth + 1));
    for (int byte = 0; byte < 256; ++byte) {
        for (int q0 = 0; q0 <= qdepth; ++q0) {
            int q = q0;
            int64_t idle = 0;
            for (int s = 0; s < 4; ++s)
                q = slotStep(q, ((byte >> s) & 1) + ((byte >> (4 + s)) & 1),
                             qdepth, idle);
            table[static_cast<size_t>(byte) * (qdepth + 1) + q0] =
                static_cast<uint8_t>(q | idle << 5);
        }
    }
}

int64_t
SaSmtModel::queueCycles(const std::vector<int> &arrivals,
                        int queue_depth)
{
    s2ta_assert(queue_depth >= 1, "queue depth %d", queue_depth);
    int64_t cycles = 0;
    int queue = 0;
    for (int arr : arrivals) {
        // More arrivals than the FIFO holds could never be admitted.
        s2ta_assert(arr >= 0 && arr <= queue_depth,
                    "%d arrivals into a FIFO of depth %d", arr,
                    queue_depth);
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
SaSmtModel::packMatchBitmap(const Mask8 *act, const Mask8 *wgt,
                            int blocks, int bz, uint64_t *bitmap)
{
    if (bz == 8) {
        // The ANDed mask bytes already are the bitmap.
        auto *bytes = reinterpret_cast<unsigned char *>(bitmap);
        for (int b = 0; b < blocks; ++b)
            bytes[b] = maskAnd(act[b], wgt[b]);
        return;
    }
    uint64_t word = 0;
    int used = 0;
    for (int b = 0; b < blocks; ++b) {
        const uint64_t m = maskAnd(act[b], wgt[b]);
        word |= m << used;
        used += bz;
        if (used >= 64) {
            *bitmap++ = word;
            used -= 64;
            word = used ? m >> (bz - used) : 0;
        }
    }
    if (used)
        *bitmap = word;
}

int64_t
SaSmtModel::matchCycles(const uint64_t *bitmap,
                        int slots_per_thread) const
{
    const int spt = slots_per_thread;
    const int qdepth = cfg.smt.queue_depth;
    const size_t stride = static_cast<size_t>(qdepth) + 1;
    const uint8_t *tab = table.data();
    // Thread 1's stream starts at bit spt: each 64-bit word of it is
    // a funnel shift of two adjacent bitmap words.
    const uint64_t *t1 = bitmap + spt / 64;
    const int shift = spt % 64;
    const int lookups = spt / 4;
    int64_t matched = 0;
    int64_t idle = 0;
    int q = 0;
    for (int c = 0; c * 16 < lookups; ++c) {
        uint64_t a = bitmap[c];
        uint64_t b = shift ? (t1[c] >> shift) | (t1[c + 1] << (64 - shift))
                           : t1[c];
        const int n = std::min(16, lookups - c * 16);
        for (int l = 0; l < n; ++l) {
            const unsigned idx =
                static_cast<unsigned>((a & 15) | (b & 15) << 4);
            const unsigned e = tab[idx * stride + q];
            q = static_cast<int>(e & 31);
            idle += e >> 5;
            matched += maskPopcount(static_cast<Mask8>(idx));
            a >>= 4;
            b >>= 4;
        }
    }
    // The last spt % 4 slots take the per-slot step.
    for (int s = lookups * 4; s < spt; ++s) {
        const int arr = bitAt(bitmap, s) + bitAt(bitmap, spt + s);
        matched += arr;
        q = slotStep(q, arr, qdepth, idle);
    }
    // Every cycle pops a matched pair, except a slot's idle first.
    return matched + idle;
}

void
SaSmtModel::simulate(const GemmPlan &plan, const RunOptions &opt,
                     std::span<const OperandProfile> profs,
                     EventCounts &total) const
{
    const GemmProblem &p = plan.problem();
    const int k = p.modeledK();
    const bool scalar = usesScalarEngine(plan, opt);
    const int tcount = cfg.smt.threads;
    const int qdepth = cfg.smt.queue_depth;
    // Arrival slots per thread: K is split across threads.
    const int slots_per_thread = (k + tcount - 1) / tcount;
    const int64_t pe_slots =
        static_cast<int64_t>(p.m) * p.n * slots_per_thread;
    const TileGrid grid = tileGrid(p.m, p.n);

    // ---- Tile timing sample -------------------------------------
    // The tile finishes when its slowest PE drains; we simulate the
    // queue automaton for a deterministic sample of PEs in a sample
    // of tiles and use the per-tile maximum. Every group has the
    // same grid and sampler seed, so the sampled (tile, PE)
    // coordinates are the same for every group: draw them once, in
    // the sampler's order (tile row, tile column, then each PE's row
    // and column). A tile's maximum does not depend on the order of
    // its PEs, nor on a PE drawn twice, so each tile's are sorted by
    // row and column: PEs of one row then follow each other and share
    // one read of the row, and a PE drawn again is skipped.
    struct SamplePe
    {
        int i, j;
    };
    Rng rng(kSampleSeed);
    const int64_t total_tiles = grid.tiles();
    const int sim_tiles = static_cast<int>(
        std::min<int64_t>(total_tiles, kSampleTiles));
    const int64_t fill = cfg.tileRows() + cfg.tileCols();
    std::vector<SamplePe> pes;
    pes.reserve(static_cast<size_t>(sim_tiles) * kSamplePes);
    for (int s = 0; s < sim_tiles; ++s) {
        const int tr = static_cast<int>(
            rng.uniformInt(0, grid.row_tiles - 1));
        const int tc = static_cast<int>(
            rng.uniformInt(0, grid.col_tiles - 1));
        const int row0 = tr * grid.eff_rows;
        const int col0 = tc * grid.eff_cols;
        const int rows = std::min(grid.eff_rows, p.m - row0);
        const int cols = std::min(grid.eff_cols, p.n - col0);
        for (int t = 0; t < kSamplePes; ++t) {
            const int i =
                row0 + static_cast<int>(rng.uniformInt(0, rows - 1));
            const int j =
                col0 + static_cast<int>(rng.uniformInt(0, cols - 1));
            pes.push_back({i, j});
        }
        std::sort(pes.end() - kSamplePes, pes.end(),
                  [](const SamplePe &a, const SamplePe &b) {
                      return a.i != b.i ? a.i < b.i : a.j < b.j;
                  });
    }

    // Thread th owns the contiguous K chunk [th*slots_per_thread,
    // ...). The scalar engine counts each slot's non-zero pairs from
    // the dense operands and steps the automaton; the fast engine
    // reads the same booleans from the masks of the PE's lowered
    // activation row and weight column (tail and segment padding
    // positions are never set in any mask) and walks their match
    // bitmap through the table. A conv plan keeps its input's masks,
    // and gathers a lowered row from the pixels its taps read: those
    // are the same for every group, so each sampled PE's are
    // resolved once here.
    std::vector<int> arrivals;
    std::vector<uint64_t> bitmap;
    std::vector<int32_t> pixels;
    std::vector<Mask8> row;
    const int taps = plan.rowTaps();
    const int row_blocks = scalar ? 0 : plan.rowBlocks();
    if (scalar) {
        arrivals.resize(static_cast<size_t>(slots_per_thread));
    } else {
        const int bits = row_blocks * plan.bz();
        bitmap.assign(matchBitmapWords(
                          std::max(bits, 2 * slots_per_thread)),
                      0);
        pixels.resize(pes.size() * static_cast<size_t>(taps));
        for (size_t e = 0; e < pes.size(); ++e)
            plan.rowPixels(pes[e].i, &pixels[e * taps]);
        row.resize(static_cast<size_t>(row_blocks));
    }
    // PE e of group g; @p act is its activation row's masks.
    const auto pe_cycles = [&](int g, size_t e, const Mask8 *act) {
        const int i = pes[e].i, j = pes[e].j;
        if (!scalar) {
            packMatchBitmap(act, plan.wgt().vectorMasks(g * p.n + j),
                            row_blocks, plan.bz(), bitmap.data());
            return matchCycles(bitmap.data(), slots_per_thread);
        }
        for (int sl = 0; sl < slots_per_thread; ++sl) {
            int arr = 0;
            for (int th = 0; th < tcount; ++th) {
                const int kk = th * slots_per_thread + sl;
                if (kk >= k)
                    continue;
                if (p.actAt(i, kk) != 0 && p.wgtAt(kk, j) != 0)
                    ++arr;
            }
            arrivals[static_cast<size_t>(sl)] = arr;
        }
        return queueCycles(arrivals, qdepth);
    };

    for (int g = 0; g < static_cast<int>(profs.size()); ++g) {
        const OperandProfile &prof = profs[static_cast<size_t>(g)];
        EventCounts ev;

        // ---- Event totals (exact, closed form) ------------------
        // Only position-matched non-zero pairs are enqueued and
        // MACed.
        ev.macs_executed = prof.matched_products;
        // MAC idle cycles burn clock energy only.
        ev.macs_gated =
            std::max<int64_t>(0, pe_slots - ev.macs_executed);

        // Streams shift every cycle; zero bytes are latch-gated like
        // ZVCG (the zero detection already exists for the skip
        // logic).
        const int64_t moves = 2ll * p.m * p.n * k;
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

        ev.act_sram_read_bytes =
            static_cast<int64_t>(grid.col_tiles) * p.m * k;
        ev.wgt_sram_bytes =
            static_cast<int64_t>(grid.row_tiles) * k * p.n;
        ev.act_sram_write_bytes = static_cast<int64_t>(p.m) * p.n;
        ev.actfn_elements = static_cast<int64_t>(p.m) * p.n;

        // ---- Tile timing (sampled queue simulation) -------------
        int64_t sampled_cycles = 0;
        const Mask8 *act = nullptr;
        for (int s = 0; s < sim_tiles; ++s) {
            int64_t worst = 0;
            for (int t = 0; t < kSamplePes; ++t) {
                const size_t e = static_cast<size_t>(s) * kSamplePes + t;
                const bool new_row = t == 0 || pes[e].i != pes[e - 1].i;
                if (!new_row && pes[e].j == pes[e - 1].j)
                    continue;
                if (!scalar && new_row)
                    act = plan.actRow(g, &pixels[e * taps], row.data());
                worst = std::max(worst, pe_cycles(g, e, act));
            }
            sampled_cycles += worst + fill;
        }
        const double mean_tile =
            static_cast<double>(sampled_cycles) / sim_tiles;
        ev.cycles = static_cast<int64_t>(std::llround(
            mean_tile * static_cast<double>(total_tiles)));
        total.add(ev);
    }
}

} // namespace s2ta
