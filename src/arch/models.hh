/**
 * @file
 * Concrete array models: the dense / ZVCG systolic array, the SMT-SA
 * re-implementation, and the two S2TA variants.
 *
 * Each class comment states its cycle and event accounting.
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
 * taking the per-tile maximum.
 *
 * Every cycle pops one queued pair except the first cycle of a slot
 * entered with an empty FIFO, so a PE takes its matched pairs plus
 * its idle slots. The scalar engine steps queueCycles() slot by
 * slot; the fast engine ANDs the PE's mask bytes (its activation
 * row's as the plan gathers them, GemmPlan::actRow) into a match
 * bitmap (thread 0 owns bits [0, spt), thread 1 bits [spt, 2*spt),
 * spt = ceil(K / 2)) and matchCycles() walks it four slots per
 * lookup of a (Q+1) x 256 table built here: thread 0's nibble |
 * thread 1's nibble << 4 indexes the FIFO level and idle slots
 * after those four slots. ArrayConfig::check keeps T = 2 and
 * Q <= 31, so an entry is one byte.
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
     * per cycle and stall-on-full semantics. A slot delivers at most
     * queue_depth pairs (ArrayConfig::check keeps T = 2 <= Q); more
     * is fatal. The scalar engine's path and the oracle of
     * matchCycles(); exposed for unit tests.
     */
    static int64_t queueCycles(const std::vector<int> &arrivals,
                               int queue_depth);

    /** Words of a match bitmap of @p bits bits: one 64-bit word per
     *  64 bits plus one zero word that matchCycles() may read. */
    static size_t
    matchBitmapWords(int bits)
    {
        return static_cast<size_t>(bits + 63) / 64 + 1;
    }

    /**
     * Pack one PE's match bitmap: bit b*bz + e is set when position
     * e of block b is non-zero in both @p act and @p wgt (@p blocks
     * masks each, @p bz in 1..8). Writes the first blocks*bz bits of
     * @p bitmap; the bits past them must already be zero, as they
     * stay in a bitmap reused for masks of one length.
     */
    static void packMatchBitmap(const Mask8 *act, const Mask8 *wgt,
                                int blocks, int bz, uint64_t *bitmap);

    /**
     * Table path: the cycles of one PE whose match bitmap is
     * @p bitmap, slot s of @p slots_per_thread delivering bit s
     * (thread 0) plus bit slots_per_thread + s (thread 1). Equals
     * queueCycles() on those arrivals. @p bitmap holds
     * matchBitmapWords(2 * slots_per_thread) words, zero from bit
     * 2 * slots_per_thread on. Exposed for unit tests.
     */
    int64_t matchCycles(const uint64_t *bitmap,
                        int slots_per_thread) const;

  private:
    /** (Q+1) x 256 bytes indexed [match byte][FIFO level entering
     *  its four slots]: the level after them | their idle slots << 5. */
    std::vector<uint8_t> table;
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
