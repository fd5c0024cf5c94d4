/**
 * @file
 * Pre-encoded execution plan for one GEMM.
 *
 * The DBB-native engine exploits the simulator's own sparse format:
 * both operands' block masks (DbbMatrix) are computed exactly once,
 * the OperandProfile is derived from them (O(blocks) mask counts instead
 * of an O(M*K + K*N) dense scan), and density validation is a
 * popcount test per block. A plan that computes outputs also packs
 * the weights once, in the panel layout dbbGemm contracts
 * (gemm_kernels.hh); its activations stay in the problem. Every
 * architecture model consumes the
 * same plan, so nothing is re-encoded inside simulate() and
 * Accelerator::runLayer reuses one plan across the whole tile grid.
 *
 * A grouped problem (a grouped or depthwise conv layer, see
 * GemmProblem) is one plan: its masks hold every group in the
 * modeled K layout, it keeps one profile per group, and dbbGemm
 * contracts every group in one call, writing the layer's output.
 * Segment padding exists only in the masks' layout, the modeled
 * dims and the event arithmetic; the plan stores and contracts real
 * values only.
 *
 * A plan borrows the GemmProblem it was built from; the problem must
 * outlive the plan. A compute plan (one with packed weights) reads
 * the problem's activations in dbbGemm and never its weights, so its
 * problem need hold only the activations. An events-only plan
 * (built without packed weights, or fromMasks) holds the block
 * masks and one profile per group, and
 * reads only its problem's dims: a PlanCache entry keeps those
 * alone (GemmProblem::withoutOperands()), so the lowered operands
 * are freed once masked. Plans are immutable after construction
 * apart from a small validation memo, which is atomic so one plan
 * can be shared across concurrent consumers: sweep lanes (PlanCache hands
 * the same encoding to every design point under comparison) and
 * serving streams (every request re-sending a workload simulates
 * from the same cached encoding). Batched workloads need nothing
 * special here — batch > 1 only grows the problem's M axis.
 */

#ifndef S2TA_ARCH_GEMM_PLAN_HH
#define S2TA_ARCH_GEMM_PLAN_HH

#include <atomic>
#include <memory>
#include <span>

#include "arch/array_model.hh"
#include "core/dbb.hh"

namespace s2ta {

class GemmPlan;
class ThreadPool;

/**
 * SIMD tier of the DBB kernels. The functional GEMM always contracts
 * dense lanes of the packed weights in register tiles (the SSE2
 * pmaddwd tile on every x86-64 CPU, a per-output loop elsewhere);
 * the AVX-512 tier swaps in the VNNI vpdpbusd tile where the CPU has
 * it. Both tiers are bit-identical (INT32 wraparound addition is
 * order-independent). Operand profiles have one portable path on
 * every tier (OperandProfile::fromDbb).
 */
enum class DbbKernelKind
{
    /** SSE2 pmaddwd tile (per-output loop off x86). */
    Scalar,
    /** VNNI vpdpbusd tile. */
    Avx512,
};

/** Canonical lower-case tier name ("scalar", "avx512") — the value
 *  bench JSON records as simd_kernel. */
const char *dbbKernelKindName(DbbKernelKind kind);

/** The tier dispatch will actually use: avx512 when this CPU has
 *  AVX512-VNNI, clamped to the forced cap (dbbForceKernelCap). */
DbbKernelKind dbbActiveKernel();

/**
 * Clamp runtime dispatch to at most @p cap (Avx512, the default,
 * means no clamp). Capping at Scalar disables the VNNI tile, so a
 * forced "scalar" run executes no AVX-512 instruction anywhere.
 * Used by the --simd bench flag and by the tier-equivalence tests;
 * thread-safe.
 */
void dbbForceKernelCap(DbbKernelKind cap);

/** The currently forced cap (Avx512 = unclamped). */
DbbKernelKind dbbKernelCap();

/** True when dbbGemm will use the VNNI vpdpbusd tile (CPU support,
 *  cap not below Avx512). */
bool dbbVnniDenseEnabled();

/** Always false: OperandProfile::fromDbb has one portable path on
 *  every tier. Kept because perfbench reports it as a host fact. */
bool dbbProfileSimdEnabled();

/**
 * DBB functional GEMM: one dense-lane contraction of the activation
 * rows against the plan's packed weights, at every density. Like the
 * paper's DP4M8, the datapath multiplies eight always-on lanes;
 * terms a mask would skip are exact zeros, and INT32 accumulation is
 * order-independent, so the result is bit-identical to
 * gemmReference. Like a tensor PE, each tier computes a small
 * matrix product per register tile (rows x 16-column panels), so
 * every loaded operand feeds several MACs; a group with one output
 * column (depthwise) runs a per-output dot instead, since a tile
 * would be 15/16 padding. Blocks of 64 rows bound the activations a
 * weight panel meets while it stays cached. Writes the row-major
 * m x (groups*n) result, group g in columns [g*n, (g+1)*n): for a
 * lowered conv layer, the output tensor itself. Only stored values
 * are contracted (segment padding contributes exact zeros). The plan
 * must be a compute plan, and its problem must hold the activations.
 *
 * When @p shard_pool is non-null the output rows are split into
 * stripes dispatched across the pool's lanes; stripes write disjoint
 * output rows with unchanged per-element arithmetic, so the result
 * is bitwise identical to the serial run at every thread count
 * (this is how a single big GEMM stays parallel when the
 * layer/group fan-out is 1).
 */
void dbbGemm(const GemmPlan &plan, int32_t *out,
             ThreadPool *shard_pool = nullptr);

class GemmPlan
{
  public:
    /**
     * Compute both operands' block masks (one pass each, all
     * non-zeros kept, in the modeled K layout) and derive each
     * group's mask-based profile. @p bz is the block size; K need
     * not be a multiple (tail blocks are zero-padded), but a padded
     * problem's segments must span whole blocks. @p compute
     * additionally packs p's weights for dbbGemm (the overload
     * below with p.w.data()); skip it for events-only runs that
     * never compute an output, whose plan then reads only p's dims.
     */
    static GemmPlan build(const GemmProblem &p, int bz = 8,
                          bool compute = true);

    /**
     * The compute plan of @p p's activations against the K x
     * groups*N weight matrix at @p w, laid out as p's weights and
     * read in place (p.w is not read, and may be empty): both
     * operands' masks, each group's profile, and one packed copy of
     * the weights with each column's sum. @p w is not read after the
     * build, so p need hold only its activations.
     */
    static GemmPlan build(const GemmProblem &p, const int8_t *w,
                          int bz);

    /**
     * The events-only plan of @p p from both operands' block masks
     * (in p's modeled layout, block size act.spec().bz): derives each
     * group's profile, across @p pool's lanes when given (one group
     * per index, a large group in chunks; see
     * OperandProfile::fromDbb). Reads only p's dims, so p may hold no
     * operands; build(p, bz, false) is fromMasks over the masks of
     * p's operands.
     */
    static GemmPlan fromMasks(const GemmProblem &p, DbbMatrix act,
                              DbbMatrix wgt, ThreadPool *pool = nullptr);

    /**
     * Wrap @p p without encoding anything: the legacy scalar engine
     * runs straight off the dense operands of a plain (one-group,
     * unpadded) GEMM.
     */
    static GemmPlan shallow(const GemmProblem &p);

    const GemmProblem &problem() const { return *prob; }
    int bz() const { return blk_bz; }
    bool encoded() const { return is_encoded; }

    /** Activation block masks (groups*M vectors of
     *  ceil(modeledK/bz) blocks, group-major). */
    const DbbMatrix &
    act() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return act_masks;
    }

    /** Weight block masks (groups*N vectors of ceil(modeledK/bz)
     *  blocks, group-major). */
    const DbbMatrix &
    wgt() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return wgt_masks;
    }

    /** Mask-derived operand profile of group @p g (only on encoded
     *  plans). */
    const OperandProfile &
    profile(int g = 0) const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return profs[static_cast<size_t>(g)];
    }

    /** Every group's profile, in group order. */
    std::span<const OperandProfile>
    profiles() const
    {
        s2ta_assert(is_encoded, "plan is shallow (scalar engine)");
        return profs;
    }

    /**
     * The packed weights (gemm_kernels.hh's layout), 64-byte
     * aligned: group g's panel pn, of ceil(n/16) per group, starts
     * (g * ceil(n/16) + pn) * packedPanelStride(k) bytes in. Null on
     * an events-only plan.
     */
    const int8_t *packedWeights() const { return packed; }

    /** Bytes of the packed weights (0 on an events-only plan). */
    size_t packedBytes() const { return packed_bytes; }

    /** Non-null exactly on compute plans; kept for perfbench. */
    const int8_t *wgtDenseT() const { return packedWeights(); }

    /** Mask test: activation (i, kk) non-zero. */
    bool
    actNonZero(int i, int kk) const
    {
        return act_masks.nonZeroAt(i, kk);
    }

    /** Mask test: weight (kk, j) non-zero. */
    bool
    wgtNonZero(int kk, int j) const
    {
        return wgt_masks.nonZeroAt(j, kk);
    }

    /**
     * Verify every weight block satisfies @p spec via its cached
     * mask popcount; fatal on violation. Repeat calls with the same
     * spec are memoized; the memo is atomic and re-validation by a
     * racing lane is idempotent, so concurrent consumers of a
     * cached plan may all call this.
     */
    void checkWeights(const DbbSpec &spec) const;

    /** Same contract for the activation operand. */
    void checkActivations(const DbbSpec &spec) const;

    // Movable (the memo atomics need explicit transfer); plans are
    // heavyweight, so copies stay disallowed — share via PlanCache.
    GemmPlan(GemmPlan &&o) noexcept
        : prob(o.prob), blk_bz(o.blk_bz), is_encoded(o.is_encoded),
          act_masks(std::move(o.act_masks)),
          wgt_masks(std::move(o.wgt_masks)),
          packed_alloc(std::move(o.packed_alloc)), packed(o.packed),
          packed_bytes(o.packed_bytes),
          profs(std::move(o.profs)),
          wgt_ok_spec(o.wgt_ok_spec.load()),
          act_ok_spec(o.act_ok_spec.load())
    {}

    GemmPlan &
    operator=(GemmPlan &&o) noexcept
    {
        prob = o.prob;
        blk_bz = o.blk_bz;
        is_encoded = o.is_encoded;
        act_masks = std::move(o.act_masks);
        wgt_masks = std::move(o.wgt_masks);
        packed_alloc = std::move(o.packed_alloc);
        packed = o.packed;
        packed_bytes = o.packed_bytes;
        profs = std::move(o.profs);
        wgt_ok_spec.store(o.wgt_ok_spec.load());
        act_ok_spec.store(o.act_ok_spec.load());
        return *this;
    }

    GemmPlan(const GemmPlan &) = delete;
    GemmPlan &operator=(const GemmPlan &) = delete;

  private:
    explicit GemmPlan(const GemmProblem &p) : prob(&p) {}

    /** Pack the weight matrix at @p w (laid out as the problem's
     *  weights) and each column's sum into packed. */
    void packWeights(const int8_t *w);

    /** Pack a spec into a non-zero memo word (nnz >= 1 always). */
    static uint16_t
    encodeSpec(const DbbSpec &spec)
    {
        return static_cast<uint16_t>(spec.nnz |
                                     (spec.bz << 8));
    }

    const GemmProblem *prob;
    int blk_bz = 8;
    bool is_encoded = false;
    DbbMatrix act_masks;
    DbbMatrix wgt_masks;
    /** The packed weights' allocation, 63 bytes over so that packed,
     *  its first 64-byte aligned byte, starts a whole panel. A plain
     *  new[]: glibc's aligned allocation (memalign) keeps the split
     *  fragments of its own over-allocation, and held 5 MB more at
     *  perfbench infer's peak. */
    std::unique_ptr<int8_t[]> packed_alloc;
    int8_t *packed = nullptr;
    size_t packed_bytes = 0;
    std::vector<OperandProfile> profs;

    // Last spec each operand was verified against (0 = none).
    // Atomic so a cached plan shared across sweep lanes can be
    // validated concurrently; re-validation by a racing lane is
    // idempotent.
    mutable std::atomic<uint16_t> wgt_ok_spec{0};
    mutable std::atomic<uint16_t> act_ok_spec{0};
};

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_PLAN_HH
