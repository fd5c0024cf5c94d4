/**
 * @file
 * Abstract cycle-level array model and its factory.
 *
 * Contract shared by all architectures (docs/ARCHITECTURE.md, "Life
 * of a GEMM", steps 5 and 7):
 *  - run() returns exact cycle and event counts for the given GEMM
 *    (for a grouped GEMM, the sum over its groups in group order);
 *  - when RunOptions::compute_output is set, the model also computes
 *    the INT32 result: the scalar engine *through the datapath's own
 *    steering logic* (e.g. DBB mask/rank muxing), the fast engine
 *    with the dense-lane dbbGemm; both must match gemmReference()
 *    bit for bit;
 *  - operands must already satisfy the config's density bounds
 *    (prune with core/weight_pruner.hh or core/dap.hh first);
 *    checkOperands() verifies this.
 */

#ifndef S2TA_ARCH_ARRAY_MODEL_HH
#define S2TA_ARCH_ARRAY_MODEL_HH

#include <memory>
#include <span>
#include <vector>

#include "arch/array_config.hh"
#include "arch/event_counts.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "tensor/gemm.hh"

namespace s2ta {

class GemmPlan;
class PlanCache;

/**
 * Which simulation engine executes the run.
 *
 * Both engines produce bitwise-identical events and outputs; DbbFast
 * is the default and exploits the DBB format itself (block masks for
 * profiles and checks, a dense-lane contraction for outputs), while
 * Scalar preserves the original per-element loops as a reference and
 * as the baseline for bench_engine_throughput.
 */
enum class EngineKind
{
    /** Legacy per-element loops over the dense operands. */
    Scalar,
    /** Mask-derived profiles and the dense-lane kernel over a
     *  cached GemmPlan. */
    DbbFast,
};

/** Per-run options. */
struct RunOptions
{
    /** Compute the functional INT32 output (slower; exact). */
    bool compute_output = true;
    /** Verify the operands satisfy the config's density bounds
     *  before simulating (on in tests, off in benches). */
    bool validate_operands = true;
    /** Simulation engine; results are engine-independent. */
    EngineKind engine = EngineKind::DbbFast;
    /**
     * Cross-run plan cache: when set (and the engine is not
     * Scalar), run(GemmProblem) reuses the cached DBB encoding of
     * identical operands instead of re-encoding — one encode per
     * workload across a whole architecture sweep. Results are
     * bitwise identical with or without the cache. Not owned.
     */
    PlanCache *plan_cache = nullptr;
    /**
     * Intra-GEMM row-stripe sharding of the functional kernels:
     * when set, dbbGemm splits the output rows into stripes across
     * this pool's lanes (bitwise identical to serial at any lane
     * count). The event and timing loops always run serially. Not
     * owned; nullptr = serial.
     */
    ThreadPool *shard_pool = nullptr;
};

/** Result of simulating one GEMM on an array. */
struct GemmRun
{
    /** Events of every group, summed in group order. */
    EventCounts events;
    /** Row-major m x (groups*n) INT32 result; empty if not
     *  requested. */
    std::vector<int32_t> output;

    /** Dense-equivalent MACs per cycle, in [0, totalMacs]. */
    double
    effectiveMacsPerCycle() const
    {
        return events.cycles == 0
                   ? 0.0
                   : static_cast<double>(events.logical_macs) /
                         static_cast<double>(events.cycles);
    }
};

/**
 * Pre-computed non-zero structure of a GEMM's operands.
 *
 * All architecture-independent event totals reduce to closed forms
 * over these counts; e.g. the number of position-matched non-zero
 * products is sum_k actNzAtK[k] * wgtNzAtK[k], so no O(m*k*n) sweep
 * is ever needed for event accounting.
 */
struct OperandProfile
{
    int m = 0, k = 0, n = 0;
    /** Non-zero count of each activation row (length m). */
    std::vector<int32_t> row_nz;
    /** Non-zero count of each weight column (length n). */
    std::vector<int32_t> col_nz;
    /** #rows with a non-zero activation at position kk (length k). */
    std::vector<int32_t> act_nz_at_k;
    /** #cols with a non-zero weight at position kk (length k). */
    std::vector<int32_t> wgt_nz_at_k;
    int64_t act_nnz = 0;
    int64_t wgt_nnz = 0;
    /** Total (i,j,kk) triples with both operands non-zero. */
    int64_t matched_products = 0;

    /** Reference construction: dense O(m*k + k*n) scan. */
    static OperandProfile build(const GemmProblem &p);

    /**
     * Fast construction from cached DBB encodings: per-position and
     * per-vector counts come from the block masks (O(blocks)), no
     * dense scan. Bit-identical to build(). For a grouped
     * or padded problem this is group @p group's profile over its
     * masks, in the modeled K layout (k = p.modeledK()). With
     * @p pool, an operand of more than 512 KB of masks is counted
     * in chunks across its lanes and the chunks' position counts
     * are summed in chunk order: the same integers.
     */
    static OperandProfile fromDbb(const GemmProblem &p,
                                  const DbbMatrix &act,
                                  const DbbMatrix &wgt, int group = 0,
                                  ThreadPool *pool = nullptr);
};

/** Base class for all cycle-level array models. */
class ArrayModel
{
  public:
    virtual ~ArrayModel() = default;

    const ArrayConfig &config() const { return cfg; }

    /**
     * Simulate one GEMM.
     * Fatal if the operands violate the config's density bounds.
     */
    GemmRun run(const GemmProblem &p,
                const RunOptions &opt = RunOptions{}) const;

    /**
     * Simulate one GEMM from a pre-built plan. The plan's encodings
     * and profiles are reused as-is, so a caller comparing several
     * architectures on the same operands pays the encoding cost
     * once. The plan must be encoded unless opt.engine is Scalar.
     * A grouped plan runs group by group on the array, its events
     * summed in group order, with its K as modeled
     * (GemmProblem::modeledK()). The scalar engine (opt.engine ==
     * Scalar, or a shallow plan) runs plain GEMMs off their operands
     * only: a grouped or padded plan, or one whose problem holds no
     * operands (an events-only cache entry), is fatal there.
     */
    GemmRun run(const GemmPlan &plan,
                const RunOptions &opt = RunOptions{}) const;

    /**
     * Verify the operands satisfy this architecture's requirements
     * (K multiple of BZ for DBB kinds, density bounds respected).
     * Validates in place over operand rows; no block copies.
     */
    void checkOperands(const GemmProblem &p) const;

    /** Same contract, from a plan's cached masks (popcount test). */
    void checkPlan(const GemmPlan &plan) const;

  protected:
    explicit ArrayModel(ArrayConfig cfg_);

    /**
     * Architecture-specific event accounting: add the events of each
     * group of @p plan into @p ev, in group order. @p profs holds
     * one operand profile per group: the plan's on the fast engine,
     * the reference dense scan on the scalar engine (which runs only
     * one-group, unpadded plans).
     */
    virtual void simulate(const GemmPlan &plan, const RunOptions &opt,
                          std::span<const OperandProfile> profs,
                          EventCounts &ev) const = 0;

    /**
     * Scalar-engine functional output of the plain GEMM @p p through
     * this datapath's own steering logic; the default is
     * gemmReference (datapaths that sum in reference order). The
     * fast engine always runs dbbGemm: every datapath computes the
     * exact INT32 products of the non-zero pairs.
     */
    virtual std::vector<int32_t> scalarOutput(const GemmProblem &p) const;

    /** True when this run executes the legacy scalar engine (by
     *  request, or because the plan carries no encodings). */
    static bool usesScalarEngine(const GemmPlan &plan,
                                 const RunOptions &opt);

    /** Tiles needed along the output-row dimension. */
    int rowTiles(int m) const;
    /** Tiles needed along the output-column dimension. */
    int colTiles(int n) const;

    /**
     * Output tiling with folding for skinny GEMMs.
     *
     * A batch-1 FC layer has a single output row and a depthwise
     * group a single output column; a plain output-stationary
     * mapping would idle almost the whole array on either. The
     * mapper folds the idle dimension: with m at most half the tile
     * height, activation rows are broadcast to tileRows/m row
     * groups, each accumulating a different column stripe (one pass
     * covers eff_cols columns; this is why FC ends up memory- not
     * compute-bound, Sec. 8.3). Symmetrically, with n at most half
     * the tile width, weight columns are broadcast to tileCols/n
     * column groups, each processing a different row stripe (the
     * depthwise mapping).
     */
    struct TileGrid
    {
        int row_tiles = 1;
        int col_tiles = 1;
        /** Output rows covered per pass (>= tileRows if folded). */
        int eff_rows = 1;
        /** Output columns covered per pass. */
        int eff_cols = 1;

        int64_t
        tiles() const
        {
            return static_cast<int64_t>(row_tiles) * col_tiles;
        }
    };

    TileGrid tileGrid(int m, int n) const;

    ArrayConfig cfg;
};

/** Instantiate the model matching @p cfg. */
std::unique_ptr<ArrayModel> makeArrayModel(const ArrayConfig &cfg);

} // namespace s2ta

#endif // S2TA_ARCH_ARRAY_MODEL_HH
