/**
 * @file
 * Pre-encoded execution plan for one GEMM.
 *
 * The DBB-native engine exploits the simulator's own sparse format:
 * both operands' block masks (DbbMatrix) are computed exactly once,
 * the OperandProfile is derived from them (O(blocks) mask counts instead
 * of an O(M*K + K*N) dense scan), and density validation is a
 * popcount test per block. The values stay in the dense operands;
 * a plan that computes outputs also caches the transposed weights. Every architecture model consumes the
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
 * outlive the plan. Plans are immutable after construction apart
 * from a small validation memo, which is atomic so one plan can be
 * shared across concurrent consumers: sweep lanes (PlanCache hands
 * the same encoding to every design point under comparison) and
 * serving streams (every request re-sending a workload simulates
 * from the same cached encoding). Batched workloads need nothing
 * special here — batch > 1 only grows the problem's M axis.
 */

#ifndef S2TA_ARCH_GEMM_PLAN_HH
#define S2TA_ARCH_GEMM_PLAN_HH

#include <atomic>
#include <span>

#include "arch/array_model.hh"
#include "core/dbb.hh"

namespace s2ta {

class GemmPlan;
class ThreadPool;

/**
 * SIMD tier of the DBB kernels. The functional GEMM always contracts
 * dense lanes (the SSE2 madd dot on every x86-64 CPU, a plain loop
 * elsewhere); the AVX-512 tier swaps in the VNNI vpdpbusd dot where
 * the CPU has it. Both tiers are bit-identical (INT32 wraparound
 * addition is order-independent). Operand profiles have one
 * portable path on every tier (OperandProfile::fromDbb).
 */
enum class DbbKernelKind
{
    /** SSE2 dense dot (plain loop off x86). */
    Scalar,
    /** VNNI dense dot. */
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
 * means no clamp). Capping at Scalar disables the VNNI dense dot, so
 * a forced "scalar" run executes no AVX-512 instruction anywhere.
 * Used by the --simd bench flag and by the tier-equivalence tests;
 * thread-safe.
 */
void dbbForceKernelCap(DbbKernelKind cap);

/** The currently forced cap (Avx512 = unclamped). */
DbbKernelKind dbbKernelCap();

/** True when dbbGemm will use the VNNI vpdpbusd dot (CPU support,
 *  cap not below Avx512). */
bool dbbVnniDenseEnabled();

/** Always false: OperandProfile::fromDbb has one portable path on
 *  every tier. Kept because perfbench reports it as a host fact. */
bool dbbProfileSimdEnabled();

/**
 * DBB functional GEMM: one dense-lane contraction of the activation
 * rows against the plan's transposed weight mirror, at every
 * density. Like the paper's DP4M8, the datapath multiplies eight
 * always-on lanes; terms a mask would skip are exact zeros, and
 * INT32 accumulation is order-independent, so the result is
 * bit-identical to gemmReference. Row-tiled so one weight column is
 * reused across a stripe of activation rows. Writes the row-major
 * m x (groups*n) result, group g in columns [g*n, (g+1)*n): for a
 * lowered conv layer, the output tensor itself. Only stored values
 * are contracted (segment padding contributes exact zeros). The plan
 * must have been built with its dense mirror.
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
     * problem's segments must span whole blocks. @p dense_mirror
     * additionally caches the transposed dense weights dbbGemm
     * contracts against; skip it for events-only runs that never
     * compute an output.
     */
    static GemmPlan build(const GemmProblem &p, int bz = 8,
                          bool dense_mirror = true);

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
     * Dense transposed weight mirror: row j holds the K stored
     * elements of weight column j (of groups*N) contiguously,
     * feeding dbbGemm's contraction. Null when the plan was built
     * without it.
     */
    const int8_t *
    wgtDenseT() const
    {
        return wgt_t.empty() ? nullptr : wgt_t.data();
    }

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
          wgt_t(std::move(o.wgt_t)), profs(std::move(o.profs)),
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
        wgt_t = std::move(o.wgt_t);
        profs = std::move(o.profs);
        wgt_ok_spec.store(o.wgt_ok_spec.load());
        act_ok_spec.store(o.act_ok_spec.load());
        return *this;
    }

    GemmPlan(const GemmPlan &) = delete;
    GemmPlan &operator=(const GemmPlan &) = delete;

  private:
    explicit GemmPlan(const GemmProblem &p) : prob(&p) {}

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
    std::vector<int8_t> wgt_t;
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
