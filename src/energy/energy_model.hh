/**
 * @file
 * Event-count to energy/area roll-up.
 *
 * EnergyModel maps an EventCounts record (from src/arch) to
 * per-component energy using TechParams, and computes the static
 * area of the configured accelerator. Components follow the paper's
 * breakdowns (Fig. 1, Fig. 10, Table 2).
 */

#ifndef S2TA_ENERGY_ENERGY_MODEL_HH
#define S2TA_ENERGY_ENERGY_MODEL_HH

#include <array>

#include "arch/accelerator.hh"
#include "energy/buffer_model.hh"
#include "energy/tech.hh"

namespace s2ta {

/** Energy/area component, matching the paper's breakdown bars. */
enum class Component
{
    MacDatapath = 0, ///< multipliers, adder trees, steering muxes
    PeBuffers,       ///< operand regs, accumulators, SMT FIFOs
    WeightSram,      ///< WB macro
    ActSram,         ///< AB macro
    Dap,             ///< dynamic activation pruning array
    Mcu,             ///< Cortex-M33 cluster (activation fn etc.)
    Dma,             ///< DMA engine / interface
    NumComponents,
};

/** Printable component name. */
const char *componentName(Component c);

constexpr int kNumComponents =
    static_cast<int>(Component::NumComponents);

/** Per-component energy in pJ. */
struct EnergyBreakdown
{
    std::array<double, kNumComponents> pj{};

    double &at(Component c) { return pj[static_cast<size_t>(c)]; }
    double
    at(Component c) const
    {
        return pj[static_cast<size_t>(c)];
    }

    double totalPj() const;
    /** Component share of the total, in [0, 1]. */
    double share(Component c) const;
    /** WeightSram + ActSram (the paper's single "SRAM" bar). */
    double sramPj() const;
    /** Total in micro-joules. */
    double totalUj() const { return totalPj() * 1e-6; }

    void add(const EnergyBreakdown &o);
};

/** Per-component area in mm^2. */
struct AreaBreakdown
{
    std::array<double, kNumComponents> mm2{};

    double &at(Component c) { return mm2[static_cast<size_t>(c)]; }
    double
    at(Component c) const
    {
        return mm2[static_cast<size_t>(c)];
    }

    double totalMm2() const;
    double share(Component c) const;
};

/**
 * Maps event counts to energy and configurations to area for one
 * accelerator instance in one technology.
 */
class EnergyModel
{
  public:
    EnergyModel(TechParams tech, AcceleratorConfig acfg);

    const TechParams &tech() const { return tech_params; }
    const AcceleratorConfig &acceleratorConfig() const { return acfg; }

    /** Per-component energy of a simulated run. */
    EnergyBreakdown energy(const EventCounts &ev) const;

    /** Static area of the configured accelerator. */
    AreaBreakdown area() const;

    /** Mean power in mW over the run (pJ/cycle x GHz). */
    double powerMw(const EventCounts &ev) const;

    /** Wall-clock time of the run in milliseconds. */
    double runtimeMs(const EventCounts &ev) const;

    /** Effective throughput: 2 * logical MACs / runtime, in TOPS. */
    double effectiveTops(const EventCounts &ev) const;

    /** Effective efficiency: 2 * logical MACs / energy, TOPS/W. */
    double effectiveTopsPerWatt(const EventCounts &ev) const;

  private:
    TechParams tech_params;
    AcceleratorConfig acfg;
};

} // namespace s2ta

#endif // S2TA_ENERGY_ENERGY_MODEL_HH
