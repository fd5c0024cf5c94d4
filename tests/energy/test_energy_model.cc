/** @file Calibration tests for the energy/area model against the
 *  paper's published anchors (listed in src/energy/tech.hh). */

#include <gtest/gtest.h>

#include "arch/models.hh"
#include "energy/energy_model.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

AcceleratorConfig
configFor(ArrayConfig array)
{
    AcceleratorConfig cfg;
    cfg.array = array;
    return cfg;
}

/** Dense-SA events for a typical conv at ~50% sparsity. */
EventCounts
denseSaEvents(ArchKind kind)
{
    Rng rng(1);
    const GemmProblem p =
        makeUnstructuredGemm(512, 1152, 256, 0.5, 0.5, rng);
    ArrayConfig cfg =
        kind == ArchKind::Sa ? ArrayConfig::sa()
                             : ArrayConfig::saZvcg();
    RunOptions opt;
    opt.compute_output = false;
    return makeArrayModel(cfg)->run(p, opt).events;
}

TEST(EnergyModel, Fig1DenseSaShares)
{
    // Fig. 1 anchor: SRAM 21%, PE buffers 49%, MAC datapath 20%,
    // activation function 10% (+-3 pp tolerance, per tech.hh).
    const EnergyModel em(TechParams::tsmc16(),
                         configFor(ArrayConfig::sa()));
    const EnergyBreakdown e = em.energy(denseSaEvents(ArchKind::Sa));

    const double total = e.totalPj();
    ASSERT_GT(total, 0.0);
    const double sram = e.sramPj() / total;
    const double buffers = e.share(Component::PeBuffers);
    const double mac = e.share(Component::MacDatapath);
    const double actfn = e.share(Component::Mcu);
    EXPECT_NEAR(sram, 0.21, 0.03);
    EXPECT_NEAR(buffers, 0.49, 0.03);
    EXPECT_NEAR(mac, 0.20, 0.03);
    EXPECT_NEAR(actfn, 0.10, 0.03);
}

TEST(EnergyModel, ZvcgSaves20To35PercentOverDenseSa)
{
    // Sec. 8.4 item 2: "SA-ZVCG consumes 25% less energy than a
    // dense SA by exploiting random sparsity."
    const EnergyModel em(TechParams::tsmc16(),
                         configFor(ArrayConfig::sa()));
    const double dense =
        em.energy(denseSaEvents(ArchKind::Sa)).totalPj();
    const double zvcg =
        em.energy(denseSaEvents(ArchKind::SaZvcg)).totalPj();
    const double saving = 1.0 - zvcg / dense;
    EXPECT_GT(saving, 0.18);
    EXPECT_LT(saving, 0.38);
}

TEST(AreaModel, SramAndMcuAreasMatchTable2)
{
    // Table 2 reports 0.54 mm^2 for 512 KB WB, 2.16 mm^2 for 2 MB
    // AB, and 0.30 mm^2 for the 4-MCU cluster in 16nm.
    const EnergyModel em(TechParams::tsmc16(),
                         configFor(ArrayConfig::s2taAw(4)));
    const AreaBreakdown a = em.area();
    EXPECT_NEAR(a.at(Component::WeightSram), 0.54, 0.02);
    EXPECT_NEAR(a.at(Component::ActSram), 2.16, 0.05);
    EXPECT_NEAR(a.at(Component::Mcu), 0.30, 0.02);
    EXPECT_NEAR(a.at(Component::Dap), 0.05, 0.01);
}

TEST(AreaModel, TotalsMatchPaper16nm)
{
    // Sec. 7 / Table 4: SA 3.7 mm^2, SA-SMT 4.2 mm^2,
    // S2TA-AW 3.8 mm^2 (within ~8%).
    const TechParams t16 = TechParams::tsmc16();
    const double sa =
        EnergyModel(t16, configFor(ArrayConfig::sa())).area()
            .totalMm2();
    const double smt =
        EnergyModel(t16, configFor(ArrayConfig::saSmt(2))).area()
            .totalMm2();
    const double aw =
        EnergyModel(t16, configFor(ArrayConfig::s2taAw(4))).area()
            .totalMm2();
    EXPECT_NEAR(sa, 3.7, 0.3);
    EXPECT_NEAR(smt, 4.2, 0.35);
    EXPECT_NEAR(aw, 3.8, 0.35);
    // Relative ordering: SMT pays for its FIFOs.
    EXPECT_GT(smt, sa);
}

TEST(EnergyModel, PeakEfficiencyNearPaper16nm)
{
    // Table 4: SA-ZVCG 10.5 TOPS/W at 50% sparse weights and
    // activations in 16nm.
    const EnergyModel em(TechParams::tsmc16(),
                         configFor(ArrayConfig::saZvcg()));
    const EventCounts ev = denseSaEvents(ArchKind::SaZvcg);
    const double tops_w = em.effectiveTopsPerWatt(ev);
    EXPECT_GT(tops_w, 8.0);
    EXPECT_LT(tops_w, 13.5);
}

TEST(EnergyModel, Node65nmScalesEnergyAndArea)
{
    const TechParams t16 = TechParams::tsmc16();
    const TechParams t65 = TechParams::tsmc65();
    EXPECT_DOUBLE_EQ(t65.freq_ghz, 0.5);
    EXPECT_NEAR(t65.e_mac / t16.e_mac, 13.0, 1e-9);
    EXPECT_NEAR(t65.a_mac / t16.a_mac, 5.8, 1e-9);

    // Table 4: 65nm SA-ZVCG lands near 0.78 TOPS/W.
    const EnergyModel em(t65, configFor(ArrayConfig::saZvcg()));
    const double tops_w =
        em.effectiveTopsPerWatt(denseSaEvents(ArchKind::SaZvcg));
    EXPECT_GT(tops_w, 0.6);
    EXPECT_LT(tops_w, 1.05);
}

TEST(EnergyModel, PowerAndRuntimeHelpers)
{
    const EnergyModel em(TechParams::tsmc16(),
                         configFor(ArrayConfig::sa()));
    const EventCounts ev = denseSaEvents(ArchKind::Sa);
    EXPECT_GT(em.powerMw(ev), 0.0);
    EXPECT_GT(em.runtimeMs(ev), 0.0);
    // 2048 MACs at 1 GHz bounds effective throughput at 4.1 TOPS.
    EXPECT_LE(em.effectiveTops(ev), 4.2);
    EXPECT_GT(em.effectiveTops(ev), 3.0);
}

TEST(EnergyBreakdown, ShareAndAddArithmetic)
{
    EnergyBreakdown a;
    a.at(Component::MacDatapath) = 30.0;
    a.at(Component::PeBuffers) = 70.0;
    EXPECT_DOUBLE_EQ(a.totalPj(), 100.0);
    EXPECT_DOUBLE_EQ(a.share(Component::PeBuffers), 0.7);
    EnergyBreakdown b;
    b.at(Component::MacDatapath) = 10.0;
    a.add(b);
    EXPECT_DOUBLE_EQ(a.at(Component::MacDatapath), 40.0);
}

} // anonymous namespace
} // namespace s2ta
