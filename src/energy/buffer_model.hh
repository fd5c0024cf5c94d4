/**
 * @file
 * Structural per-PE buffer-size model (paper Table 1).
 *
 * Computes the flip-flop storage each architecture needs per INT8
 * MAC, split into operand staging and accumulators. These byte
 * counts also feed the area model (flop area) and document the core
 * claim of the paper: DBB needs orders of magnitude less buffering
 * per MAC than unstructured-sparsity architectures.
 */

#ifndef S2TA_ENERGY_BUFFER_MODEL_HH
#define S2TA_ENERGY_BUFFER_MODEL_HH

#include "arch/array_config.hh"

namespace s2ta {

/** Per-PE buffer requirements, in bytes. */
struct BufferBreakdown
{
    /** Operand staging (stream registers, DBB block latches). */
    double operand_bytes_per_mac = 0.0;
    /** SMT staging FIFOs (entries are value pair + position meta). */
    double fifo_bytes_per_mac = 0.0;
    /** Output-stationary accumulators. */
    double accum_bytes_per_mac = 0.0;

    double
    totalPerMac() const
    {
        return operand_bytes_per_mac + fifo_bytes_per_mac +
               accum_bytes_per_mac;
    }

    /** Whole-array flop bytes for @p macs physical MACs. */
    double
    totalBytes(int64_t macs) const
    {
        return totalPerMac() * static_cast<double>(macs);
    }
};

/**
 * Compute the buffer breakdown for an array configuration.
 *
 * Accounting:
 *  - SA / SA-ZVCG: 2 operand bytes + one 4-byte accumulator per PE;
 *  - SA-SMT: adds T x Q FIFO entries of 4 bytes (INT8 pair + two
 *    position-meta bytes) per PE;
 *  - S2TA-W: per TPE, A dense activation blocks (BZ bytes each) and
 *    C compressed weight blocks (nnz+1 bytes), with one 4-byte
 *    accumulator per DP4M8 (shared by its 4 MACs);
 *  - S2TA-AW: per TPE, A serialized activation lanes (element +
 *    position byte) and C compressed weight blocks, one 4-byte
 *    accumulator per DP1M4 MAC.
 */
BufferBreakdown bufferModel(const ArrayConfig &cfg);

} // namespace s2ta

#endif // S2TA_ENERGY_BUFFER_MODEL_HH
