/** @file Unit tests for array configurations (paper Sec. 7). */

#include <gtest/gtest.h>

#include "arch/array_config.hh"

namespace s2ta {
namespace {

TEST(ArrayConfig, AllPaperDesignsHave2048Macs)
{
    // Sec. 7: "All systolic array designs have 4 TOPS peak (dense)
    // throughput and otherwise identical configurations."
    EXPECT_EQ(ArrayConfig::sa().totalMacs(), 2048);
    EXPECT_EQ(ArrayConfig::saZvcg().totalMacs(), 2048);
    EXPECT_EQ(ArrayConfig::saSmt(2).totalMacs(), 2048);
    EXPECT_EQ(ArrayConfig::s2taW().totalMacs(), 2048);
    EXPECT_EQ(ArrayConfig::s2taAw(4).totalMacs(), 2048);
}

TEST(ArrayConfig, DensePeakIs4Tops)
{
    for (const ArrayConfig &cfg :
         {ArrayConfig::sa(), ArrayConfig::s2taW(),
          ArrayConfig::s2taAw(4)}) {
        EXPECT_NEAR(cfg.densePeakTops(), 4.096, 1e-9)
            << cfg.name();
    }
}

TEST(ArrayConfig, TileGeometry)
{
    const ArrayConfig sa = ArrayConfig::sa();
    EXPECT_EQ(sa.tileRows(), 32);
    EXPECT_EQ(sa.tileCols(), 64);

    // S2TA-W 4x8x4_4x8: 16 x 32 output tile.
    const ArrayConfig w = ArrayConfig::s2taW();
    EXPECT_EQ(w.tileRows(), 16);
    EXPECT_EQ(w.tileCols(), 32);

    // S2TA-AW 8x4x4_8x8: 64 x 32 output tile.
    const ArrayConfig aw = ArrayConfig::s2taAw(4);
    EXPECT_EQ(aw.tileRows(), 64);
    EXPECT_EQ(aw.tileCols(), 32);
}

TEST(ArrayConfig, NamesMentionKeyParameters)
{
    EXPECT_EQ(std::string(archKindName(ArchKind::SaZvcg)),
              "SA-ZVCG");
    const std::string smt = ArrayConfig::saSmt(4).name();
    EXPECT_NE(smt.find("T2Q4"), std::string::npos);
    const std::string aw = ArrayConfig::s2taAw(3).name();
    EXPECT_NE(aw.find("8x4x4_8x8"), std::string::npos);
    EXPECT_NE(aw.find("A3/8"), std::string::npos);
    EXPECT_NE(aw.find("W4/8"), std::string::npos);
}

TEST(ArrayConfig, CheckAcceptsDenseWeightFallback)
{
    ArrayConfig aw = ArrayConfig::s2taAw(8);
    aw.weight_dbb = DbbSpec{8, 8};
    aw.check(); // must not die: dense fallback is supported
    SUCCEED();
}

TEST(ArrayConfigDeath, InvalidConfigsFatal)
{
    ArrayConfig bad = ArrayConfig::s2taAw(4);
    bad.act_nnz = 9;
    EXPECT_DEATH(bad.check(), "invalid A-DBB");

    ArrayConfig bad2 = ArrayConfig::s2taW();
    bad2.tpe.b = 4; // S2TA-W wants B == BZ
    EXPECT_DEATH(bad2.check(), "expects B == BZ");

    ArrayConfig bad3 = ArrayConfig::sa();
    bad3.tpe.m = 0;
    EXPECT_DEATH(bad3.check(), "invalid TPE geometry");

    // T2Q1: a slot where both threads deliver never fits the FIFO.
    EXPECT_DEATH(ArrayConfig::saSmt(1).check(), "invalid SMT config T2Q1");
    // The timing table reads two threads' match nibbles, and its
    // one-byte entries hold FIFO levels up to 31.
    ArrayConfig t1 = ArrayConfig::saSmt(2);
    t1.smt.threads = 1;
    EXPECT_DEATH(t1.check(), "invalid SMT config T1Q2");
    ArrayConfig t3 = ArrayConfig::saSmt(4);
    t3.smt.threads = 3;
    EXPECT_DEATH(t3.check(), "invalid SMT config T3Q4");
    EXPECT_DEATH(ArrayConfig::saSmt(32).check(),
                 "invalid SMT config T2Q32");
}

} // anonymous namespace
} // namespace s2ta
