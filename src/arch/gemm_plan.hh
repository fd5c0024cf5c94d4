/**
 * @file
 * Pre-encoded execution plan for one GEMM.
 *
 * The DBB-native engine exploits the simulator's own sparse format:
 * both operands' block masks (DbbMatrix) are computed exactly once,
 * each group's OperandProfile is derived from them (mask counts
 * instead of an O(M*K + K*N) dense scan), and density validation is
 * a popcount test per block. A plan that computes outputs also packs
 * the weights once, in the panel layout dbbGemm contracts
 * (gemm_kernels.hh); its activations stay in the problem. Every
 * architecture model consumes the same plan, so nothing is
 * re-encoded inside simulate() and Accelerator::runLayer reuses one
 * plan across the whole tile grid.
 *
 * Activation masks live in input space. S2TA has no im2col matrix:
 * DAP compresses activations into DBB blocks per (pixel, channel
 * block) as it writes them to the activation SRAM (paper Sec. 5).
 * A conv plan likewise masks its layer's input tensor where it lies,
 * the input seen as the layer's 1x1 grouped GEMM (one vector per
 * pixel and group, of groupInC channels), and keeps the conv
 * geometry. Its lowered rows are never masked: each group's profile
 * is derived from the input masks exactly (a row's count sums its
 * in-image taps' pixel counts; a (tap, channel) position counts that
 * channel over the input rectangle the tap reads, at the layer's
 * stride), and SA-SMT asks the plan for the lowered masks of the
 * rows it samples (actRow), gathered tap by tap. A plain GEMM is the
 * 1x1 case, as is a 1x1 stride-1 layer: its rows are its input's
 * pixels, so its masks are its rows' own and a row is read in place.
 *
 * A grouped problem (a grouped or depthwise conv layer, see
 * GemmProblem) is one plan: its masks hold every group, group-major,
 * it keeps one profile per group, and dbbGemm contracts every group
 * in one call, writing the layer's output. Segment padding exists
 * only in the masks' layout, the modeled dims and the event
 * arithmetic; the plan stores and contracts real values only.
 *
 * A plan borrows the GemmProblem it was built from, the lowered GEMM
 * a conv plan's rows are; the problem must outlive the plan. A
 * compute plan (one with packed weights) reads the problem's lowered
 * activations in dbbGemm and nothing else of its operands. An
 * events-only plan holds the block masks, the conv geometry and one
 * profile per group, and reads only its problem's dims: a PlanCache
 * entry keeps those alone (GemmProblem::withoutOperands()). Plans
 * are immutable after construction apart from a small validation
 * memo, which is atomic so one plan can be shared across concurrent
 * consumers: sweep lanes (PlanCache hands the same encoding to every
 * design point under comparison) and serving streams (every request
 * re-sending a workload simulates from the same cached encoding).
 * Batched workloads need nothing special here: batch > 1 only grows
 * the problem's M axis and the input's pixel rows.
 */

#ifndef S2TA_ARCH_GEMM_PLAN_HH
#define S2TA_ARCH_GEMM_PLAN_HH

#include <atomic>
#include <memory>
#include <span>

#include "arch/array_model.hh"
#include "core/dbb.hh"
#include "tensor/conv.hh"

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
     * The plan of the plain GEMM @p p (the 1x1 case: its rows are its
     * input's): both operands' block masks (one pass each, all
     * non-zeros kept, in the modeled K layout) and each group's
     * mask-based profile. @p bz is the block size; K need not be a
     * multiple (tail blocks are zero-padded), but a padded problem's
     * segments must span whole blocks. @p compute additionally packs
     * p's weights for dbbGemm; skip it for events-only runs that
     * never compute an output, whose plan then reads only p's dims.
     */
    static GemmPlan build(const GemmProblem &p, int bz = 8,
                          bool compute = true);

    /**
     * The same plan of the GEMM with @p p's dims whose activation
     * matrix is at @p a and whose K x groups*N weight matrix is at
     * @p w, both laid out as p's operands and read in place (p's own
     * operands are not read, and may be empty). A compute plan (one
     * that packs @p w, with each column's sum) needs p to hold the
     * activations, which dbbGemm contracts. Neither pointer is read
     * after the build.
     */
    static GemmPlan build(const GemmProblem &p, const int8_t *a,
                          const int8_t *w, int bz, bool compute);

    /**
     * The plan of conv layer @p shape, @p p being its lowered GEMM
     * (im2colActivationDims(shape, align, batch), with the lowered
     * activations only if @p compute), over the input tensor at
     * @p input (batch samples, NHWC) and the weight tensor at @p w
     * (the K x out_c matrix), both read in place and not after the
     * build. The activation masks are the input's, one vector per
     * (pixel, group) (act()); each group's profile is derived from
     * them and the conv geometry, exactly the lowered-then-masked
     * plan's. A 1x1 stride-1 layer without padding is the plain
     * case: its input is its lowered matrix.
     */
    static GemmPlan build(const GemmProblem &p, const Conv2dShape &shape,
                          const int8_t *input, const int8_t *w, int bz,
                          bool compute, ThreadPool *pool = nullptr);

    /**
     * Wrap @p p without encoding anything: the legacy scalar engine
     * runs straight off the dense operands of a plain (one-group,
     * unpadded) GEMM.
     */
    static GemmPlan shallow(const GemmProblem &p);

    const GemmProblem &problem() const { return *prob; }
    int bz() const { return blk_bz; }
    bool encoded() const { return is_encoded; }

    /**
     * Activation block masks of the plan's input, group-major:
     * vector g * P + q is group g's input pixel q (P pixels per
     * group), in the modeled layout of one of the lowered row's
     * segments (or, on a plain GEMM, of its whole row). A plain
     * GEMM's pixels are its rows (P = M); a conv layer's are its
     * input's batch*H*W pixels of groupInC channels, and its lowered
     * rows are read through actRow.
     */
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

    /** Taps of a lowered activation row: kernel_h * kernel_w on a
     *  conv plan, 1 on a plan whose rows are its input's. */
    int
    rowTaps() const
    {
        return has_taps ? conv.kernel_h * conv.kernel_w : 1;
    }

    /** Masks of a lowered activation row: ceil(modeledK / bz). */
    int rowBlocks() const { return row_blocks; }

    /**
     * The input pixel each tap of lowered row @p i reads, in (ky, kx)
     * order, or -1 for a padding tap, into @p pixels (rowTaps()
     * entries): the same for every group, so a caller reading one
     * row of many groups resolves it once.
     */
    void rowPixels(int i, int32_t *pixels) const;

    /**
     * Group @p g's lowered activation row whose taps read @p pixels
     * (rowPixels): its rowBlocks() masks, exactly the lowered-then-
     * masked row's (a padding tap's positions empty). A plan whose
     * rows are its input's returns the row in place; a conv plan
     * gathers it into @p scratch (rowBlocks() masks) and returns
     * scratch.
     */
    const Mask8 *actRow(int g, const int32_t *pixels,
                        Mask8 *scratch) const;

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

    /**
     * Verify every weight block satisfies @p spec via its cached
     * mask popcount; fatal on violation. Repeat calls with the same
     * spec are memoized; the memo is atomic and re-validation by a
     * racing lane is idempotent, so concurrent consumers of a
     * cached plan may all call this.
     */
    void checkWeights(const DbbSpec &spec) const;

    /**
     * Same contract for the activation operand, over every input
     * block (act()): a conv plan checks its whole input, pixels no
     * tap reads included (a 1x1 stride-2 layer reads one pixel in
     * four), which is no stricter than what any workload already
     * meets: the one design that checks activations, S2TA-AW, also
     * runs DAP over the whole input tensor and asserts that it drops
     * nothing (Accelerator::executePrepared). A lowered block at
     * alignment bz is a copy of an input block or empty.
     */
    void checkActivations(const DbbSpec &spec) const;

    // Movable; plans are heavyweight, so copies stay disallowed —
    // share via PlanCache.
    GemmPlan(GemmPlan &&) noexcept = default;
    GemmPlan(const GemmPlan &) = delete;
    GemmPlan &operator=(const GemmPlan &) = delete;

  private:
    explicit GemmPlan(const GemmProblem &p) : prob(&p) {}

    /** The plan over the activation matrix @p a of @p in (the
     *  input's pixels; p itself on a plain plan) and the weights at
     *  @p w: masks, profiles and, if @p compute, packed weights. */
    static GemmPlan encode(const GemmProblem &p, const GemmProblem &in,
                           const Conv2dShape *shape, const int8_t *a,
                           const int8_t *w, int bz, bool compute,
                           ThreadPool *pool);

    /** Group @p g's profile of a conv plan, from the input masks. */
    OperandProfile convProfile(int g, ThreadPool *pool) const;

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
    /** True on a conv plan, whose lowered rows read conv's taps;
     *  false when the rows are the input's own. */
    bool has_taps = false;
    /** The layer's geometry (a conv plan only). */
    Conv2dShape conv;
    /** rowBlocks(); modeled positions of one tap's segment (the
     *  problem's modeledSeg()); input pixels per group. Kept so that
     *  reading a row divides nothing. */
    int row_blocks = 0;
    int tap_positions = 0;
    int group_pixels = 0;
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

    /** The last spec an operand was verified against (0 = none).
     *  Atomic so a cached plan shared across sweep lanes can be
     *  validated concurrently (re-validation by a racing lane is
     *  idempotent), and moved with its plan. */
    struct SpecMemo
    {
        mutable std::atomic<uint16_t> spec{0};
        SpecMemo() = default;
        SpecMemo(SpecMemo &&o) noexcept : spec(o.spec.load()) {}
    };
    SpecMemo wgt_ok;
    SpecMemo act_ok;
};

} // namespace s2ta

#endif // S2TA_ARCH_GEMM_PLAN_HH
