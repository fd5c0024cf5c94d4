/**
 * @file
 * Concrete array models: the dense / ZVCG systolic array, the SMT-SA
 * re-implementation, and the two S2TA variants.
 *
 * See DESIGN.md Sec. 3 for the cycle and event accounting of each.
 */

#ifndef S2TA_ARCH_MODELS_HH
#define S2TA_ARCH_MODELS_HH

#include "arch/array_model.hh"
#include "core/dbb.hh"

namespace s2ta {

/**
 * Classic output-stationary systolic array of scalar PEs.
 *
 * Covers both the plain dense SA and SA-ZVCG: with ZVCG, zero
 * operands gate the MAC, the operand registers, and the accumulator
 * update (paper Sec. 2.1); without it zero products still flow
 * through the datapath at reduced switching.
 */
class SaModel : public ArrayModel
{
  public:
    explicit SaModel(ArrayConfig cfg);

  protected:
    void simulate(const GemmPlan &plan, const RunOptions &opt,
                  std::span<const OperandProfile> profs,
                  EventCounts &ev) const override;
};

/**
 * SMT-SA (Shomron et al.) INT8 re-implementation: T operand streams
 * per PE, non-zero products enqueue into a depth-Q staging FIFO,
 * one MAC pop per cycle, back-pressure stalls the streams when a
 * FIFO fills (paper Sec. 2.2).
 *
 * Event totals are exact; tile timing is obtained by simulating the
 * per-PE queue automaton on a deterministic sample of PEs/tiles and
 * taking the per-tile maximum (DESIGN.md Sec. 3).
 */
class SaSmtModel : public ArrayModel
{
  public:
    explicit SaSmtModel(ArrayConfig cfg);

  protected:
    void simulate(const GemmPlan &plan, const RunOptions &opt,
                  std::span<const OperandProfile> profs,
                  EventCounts &ev) const override;

  public:
    /**
     * Queue automaton for one PE: given the per-arrival-slot count
     * of non-zero pairs (0..T), return the cycles needed to consume
     * the stream and drain, honouring a depth-Q FIFO with one pop
     * per cycle and stall-on-full semantics. Exposed for unit tests.
     */
    static int64_t queueCycles(const std::vector<int> &arrivals,
                               int queue_depth);
};

/**
 * S2TA-W: TPE array of DP4M8 dot-product datapaths exploiting weight
 * DBB only (paper Sec. 4, Fig. 6c). Activations are dense; their
 * zeros are weakly exploited via ZVCG. One weight DBB block (and one
 * full dense activation block) is consumed per DP4M8 per cycle.
 */
class S2taWModel : public ArrayModel
{
  public:
    explicit S2taWModel(ArrayConfig cfg);

  protected:
    void simulate(const GemmPlan &plan, const RunOptions &opt,
                  std::span<const OperandProfile> profs,
                  EventCounts &ev) const override;
    std::vector<int32_t>
    scalarOutput(const GemmProblem &p) const override;
};

/**
 * S2TA-AW: time-unrolled TPE array of DP1M4 datapaths exploiting
 * joint A/W DBB (paper Sec. 5.2, Fig. 6e, Fig. 7c). Activation block
 * elements are serialized one per cycle (act_nnz cycles per block),
 * so per-layer variable A-DBB density maps directly to speedup
 * BZ / NNZ_a. Weight blocks are spatially unrolled across the 4:1
 * mux inputs; weight zeros gate the MAC.
 */
class S2taAwModel : public ArrayModel
{
  public:
    explicit S2taAwModel(ArrayConfig cfg);

  protected:
    void simulate(const GemmPlan &plan, const RunOptions &opt,
                  std::span<const OperandProfile> profs,
                  EventCounts &ev) const override;
    std::vector<int32_t>
    scalarOutput(const GemmProblem &p) const override;
};

/**
 * The scalar reference models' operand encoding: dbbEncode of every
 * block of @p p's weight columns (@p weights) or activation rows at
 * the permissive bz/bz bound, vector-major, elements gathered one by
 * one — independent of DbbMatrix's tiled mask encoder.
 */
std::vector<DbbBlock> referenceBlocks(const GemmProblem &p, int bz,
                                      bool weights);

} // namespace s2ta

#endif // S2TA_ARCH_MODELS_HH
