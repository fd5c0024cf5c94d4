/**
 * @file
 * Accelerator array configurations (paper Sec. 6.1 and 7).
 *
 * A design point is denoted AxBxC_MxN: an M x N grid of tensor PEs,
 * each consuming A activation blocks and C weight blocks, with B the
 * per-block operand arity (BZ for dot-product TPEs, weight NNZ for
 * time-unrolled TPEs). The scalar PE of a classic systolic array is
 * the degenerate 1x1x1 TPE.
 *
 * Evaluated design points (Sec. 7, all 2048 INT8 MACs):
 *  - SA / SA-ZVCG / SA-SMT : 1x1x1_32x64
 *  - S2TA-W  : 4x8x4_4x8 (DP4M8 dot-product datapath)
 *  - S2TA-AW : 8x4x4_8x8 (DP1M4 time-unrolled datapath)
 */

#ifndef S2TA_ARCH_ARRAY_CONFIG_HH
#define S2TA_ARCH_ARRAY_CONFIG_HH

#include <string>

#include "core/dbb.hh"

namespace s2ta {

/** Which microarchitecture family a configuration instantiates. */
enum class ArchKind
{
    /** Dense systolic array, no sparsity support. */
    Sa,
    /** Systolic array with zero-value clock gating. */
    SaZvcg,
    /** SMT-SA: unstructured sparsity via operand staging FIFOs. */
    SaSmt,
    /** S2TA with weight DBB only (DP4M8 dot-product TPEs). */
    S2taW,
    /** S2TA with joint A/W DBB, time-unrolled (DP1M4 TPEs). */
    S2taAw,
};

/** Human-readable architecture name as used in the paper. */
const char *archKindName(ArchKind kind);

/** Hardware MAC lanes of the DP4M8 dot-product datapath. */
inline constexpr int kDp4Lanes = 4;

/** Tensor-PE geometry AxBxC within an MxN array. */
struct TpeGeometry
{
    int a = 1; ///< activation blocks per TPE
    int b = 1; ///< per-block operand arity
    int c = 1; ///< weight blocks per TPE
    int m = 32; ///< TPE array rows
    int n = 64; ///< TPE array columns

    /** Render as "AxBxC_MxN". */
    std::string toString() const;

    bool operator==(const TpeGeometry &) const = default;
};

/** SMT-SA specific parameters: threads and FIFO depth.
 *  ArrayConfig::check keeps T = 2 and 2 <= Q <= 31 (the FIFO holds
 *  one arrival per thread; the timing table's entries are bytes). */
struct SmtConfig
{
    int threads = 2;
    int queue_depth = 2;

    bool operator==(const SmtConfig &) const = default;
};

/** A complete array design point. */
struct ArrayConfig
{
    ArchKind kind = ArchKind::Sa;
    TpeGeometry tpe;

    /** Weight DBB bound (S2TA kinds). nnz==bz disables W-DBB. */
    DbbSpec weight_dbb{4, 8};
    /** A-DBB serialization depth for S2taAw; bz means dense. */
    int act_nnz = 8;
    /** DBB block size shared by both operands. */
    int bz = 8;

    SmtConfig smt;

    /** Clock frequency in GHz (1.0 in 16nm, 0.5 in 65nm). */
    double freq_ghz = 1.0;

    // --- Derived geometry -------------------------------------

    /** Physical INT8 multipliers in the array. */
    int64_t totalMacs() const;

    /** Output rows covered by one tile (M*A). */
    int tileRows() const { return tpe.m * tpe.a; }

    /** Output columns covered by one tile (N*C). */
    int tileCols() const { return tpe.n * tpe.c; }

    /** Dense peak throughput in TOPS (2 ops per MAC per cycle). */
    double
    densePeakTops() const
    {
        return 2.0 * static_cast<double>(totalMacs()) * freq_ghz
               * 1e-3;
    }

    /** Name like "S2TA-AW(8x4x4_8x8)". */
    std::string name() const;

    /** Validate internal consistency; fatal on error. */
    void check() const;

    /** Structural identity (used by sweep-level model caches). */
    bool operator==(const ArrayConfig &) const = default;

    // --- Canonical paper design points -------------------------

    static ArrayConfig sa();
    static ArrayConfig saZvcg();
    static ArrayConfig saSmt(int queue_depth = 2);
    static ArrayConfig s2taW();
    /** @param act_nnz per-layer A-DBB density (1..5, or 8=dense). */
    static ArrayConfig s2taAw(int act_nnz = 8);
};

} // namespace s2ta

#endif // S2TA_ARCH_ARRAY_CONFIG_HH
