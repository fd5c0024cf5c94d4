/**
 * @file
 * Technology parameters: per-event energies and per-structure areas
 * for the TSMC 16nm FinFET and 65nm nodes the paper evaluates
 * (Sec. 7).
 *
 * The paper extracts power from post-layout netlists with annotated
 * switching activity; this repo has no PDK, so the coefficients
 * below are *calibrated to the paper's published anchors* and
 * verified by tests/energy/test_energy_model.cc:
 *   - Fig. 1 dense-SA energy shares (21/49/20/10 +-3pp);
 *   - Table 2 S2TA-AW area split (the SRAM/MCU areas match the
 *     paper's mm^2 almost exactly);
 *   - Table 4 peak-efficiency ballpark (SA-ZVCG ~10.5 TOPS/W in
 *     16nm, ~0.78 TOPS/W in 65nm).
 */

#ifndef S2TA_ENERGY_TECH_HH
#define S2TA_ENERGY_TECH_HH

#include <cmath>
#include <string>

namespace s2ta {

/** Per-event energies (pJ) and per-structure areas (mm^2). */
struct TechParams
{
    std::string name;
    /** Array clock at the slow corner (Sec. 7). */
    double freq_ghz = 1.0;

    // --- Dynamic energy per event (pJ) ---------------------------
    /** INT8 MAC, both operands non-zero (full switching). */
    double e_mac = 0.098;
    /** Fraction of e_mac burned when an operand is zero but the
     *  datapath is not gated (plain dense SA). */
    double mac_zero_factor = 0.45;
    /** Fraction of e_mac burned by a clock-gated MAC slot (the
     *  clock tree segment and gating logic still toggle). */
    double mac_gate_factor = 0.20;

    /** 8-bit operand pipeline-register write, per byte. */
    double e_reg_byte = 0.030;
    /** Gated register-latch cost fraction: flip-flop clock-pin
     *  power dominates FF energy, so gating leaves ~1/3 behind. */
    double reg_gate_factor = 0.35;

    /** 32-bit output-stationary accumulator update. */
    double e_accum = 0.081;
    double accum_gate_factor = 0.35;

    /** SMT staging-FIFO entry push or pop (4-byte entry + ctrl). */
    double e_fifo_op = 0.40;

    /** DBB steering mux select. */
    double e_mux4 = 0.002;
    double e_mux8 = 0.004;

    /** SRAM read/write energy per byte = coeff * sqrt(size_KB). */
    double sram_pj_per_byte_coeff = 0.040;
    /** SRAM standby (leakage + clock) pJ per cycle per KB. */
    double sram_leak_pj_per_cycle_kb = 0.006;

    /** MCU cluster power, pJ per array cycle (4x Cortex-M33 plus
     *  64 KB control stores each, Sec. 6.3). */
    double p_mcu_pj_per_cycle = 52.0;
    /** Marginal MCU energy per processed element (SIMD op). */
    double e_mcu_elem = 1.0;

    /** One 8-bit magnitude comparison in the DAP cascade. */
    double e_dap_cmp = 0.08;

    /** DMA engine + interface energy per byte (DRAM core energy is
     *  out of scope, as in the paper's accelerator-power metric). */
    double e_dma_byte = 2.0;

    // --- Area per structure (mm^2) -------------------------------
    double a_mac = 0.00028;
    /** Per byte of flip-flop storage (regs, accums, FIFOs). */
    double a_flop_byte = 1.2e-5;
    double a_mux4 = 8.0e-6;
    double a_mux8 = 1.6e-5;
    /** SRAM macro area per KB (fits both paper SRAMs exactly). */
    double a_sram_per_kb = 1.055e-3;
    /** One Cortex-M33 with its 64 KB control store. */
    double a_mcu = 0.0755;
    /** One DAP unit (5 maxpool stages x 7 comparators). */
    double a_dap_unit = 0.0031;
    /** DAP units at the activation SRAM write port. */
    int dap_units = 16;

    /** SRAM access energy for a macro of @p kb KB, pJ/byte. */
    double
    sramPjPerByte(double kb) const
    {
        return sram_pj_per_byte_coeff * std::sqrt(kb);
    }

    /** TSMC 16nm FinFET, 1 GHz (paper Sec. 7). */
    static TechParams tsmc16();

    /**
     * TSMC 65nm, 500 MHz. Energy scales by ~13x relative to 16nm
     * (node + voltage), matching the paper's published 16nm-vs-65nm
     * efficiency ratio (Table 4); area scales by ~5.8x, matching
     * the published 65nm design areas.
     */
    static TechParams tsmc65();
};

} // namespace s2ta

#endif // S2TA_ENERGY_TECH_HH
