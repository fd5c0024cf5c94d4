/** @file Unit tests for the SMT-SA re-implementation. */

#include <gtest/gtest.h>

#include <cmath>

#include "arch/models.hh"
#include "workload/sparse_gen.hh"

namespace s2ta {
namespace {

TEST(SmtQueue, AllZeroStreamTakesOneCyclePerSlot)
{
    const std::vector<int> arrivals(100, 0);
    EXPECT_EQ(SaSmtModel::queueCycles(arrivals, 2), 100);
}

TEST(SmtQueue, SingleArrivalsPipelinePerfectly)
{
    // One non-zero pair per slot: push and pop overlap, so the
    // stream is consumed at one slot per cycle plus the final drain.
    const std::vector<int> arrivals(50, 1);
    EXPECT_EQ(SaSmtModel::queueCycles(arrivals, 2), 51);
}

TEST(SmtQueue, SaturatedStreamServiceLimited)
{
    // Two arrivals per slot against one pop per cycle: asymptotic
    // rate is one slot per two cycles.
    const std::vector<int> arrivals(100, 2);
    const int64_t cycles = SaSmtModel::queueCycles(arrivals, 2);
    EXPECT_GE(cycles, 195);
    EXPECT_LE(cycles, 205);
}

TEST(SmtQueue, DeeperQueueNeverSlower)
{
    Rng rng(1);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<int> arrivals(200);
        for (auto &a : arrivals)
            a = static_cast<int>(rng.uniformInt(0, 2));
        const int64_t q2 = SaSmtModel::queueCycles(arrivals, 2);
        const int64_t q4 = SaSmtModel::queueCycles(arrivals, 4);
        const int64_t q16 = SaSmtModel::queueCycles(arrivals, 16);
        EXPECT_LE(q4, q2);
        EXPECT_LE(q16, q4);
        // Lower bound: total work and stream length.
        int64_t work = 0;
        for (int a : arrivals)
            work += a;
        EXPECT_GE(q16, std::max<int64_t>(work,
                      static_cast<int64_t>(arrivals.size())));
    }
}

/** Arrivals of the stream a match bitmap describes: slot s gets bit
 *  s (thread 0) plus bit spt + s (thread 1), bits below @p k. */
std::vector<int>
arrivalsOf(const std::vector<uint64_t> &bitmap, int spt, int k)
{
    const auto bit = [&](int kk) {
        return kk < k ? static_cast<int>(
                            (bitmap[static_cast<size_t>(kk / 64)] >>
                             (kk % 64)) & 1u)
                      : 0;
    };
    std::vector<int> arrivals(static_cast<size_t>(spt));
    for (int s = 0; s < spt; ++s)
        arrivals[static_cast<size_t>(s)] = bit(s) + bit(spt + s);
    return arrivals;
}

TEST(SmtQueue, MatchTableEqualsReferenceAutomaton)
{
    // The fast engine's table path against the slot-by-slot
    // automaton: direct random bitmaps, and bitmaps packed from
    // random bz 4 and bz 8 masks. Odd K leaves thread 1 one slot
    // short; most split points are not multiples of 8 (or of 4, so
    // the per-slot tail runs).
    Rng rng(7);
    for (int q : {2, 4, 16}) {
        const SaSmtModel model(ArrayConfig::saSmt(q));
        for (int spt : {1, 3, 4, 5, 63, 64, 65, 2304}) {
            for (int k : {2 * spt, 2 * spt - 1}) {
                for (double density : {0.0, 0.25, 0.5, 1.0}) {
                    SCOPED_TRACE(testing::Message()
                                 << "Q" << q << " spt " << spt << " K "
                                 << k << " density " << density);
                    std::vector<uint64_t> direct(
                        SaSmtModel::matchBitmapWords(2 * spt), 0);
                    for (int kk = 0; kk < k; ++kk)
                        if (rng.bernoulli(density))
                            direct[static_cast<size_t>(kk / 64)] |=
                                uint64_t{1} << (kk % 64);
                    EXPECT_EQ(model.matchCycles(direct.data(), spt),
                              SaSmtModel::queueCycles(
                                  arrivalsOf(direct, spt, k), q));

                    // Each operand non-zero with probability
                    // sqrt(density): their AND matches at density.
                    const double side = std::sqrt(density);
                    for (int bz : {4, 8}) {
                        const int blocks = (k + bz - 1) / bz;
                        std::vector<Mask8> act(
                            static_cast<size_t>(blocks), 0);
                        std::vector<Mask8> wgt = act;
                        std::vector<uint64_t> expect(
                            SaSmtModel::matchBitmapWords(
                                std::max(blocks * bz, 2 * spt)),
                            0);
                        for (int kk = 0; kk < k; ++kk) {
                            const auto b = static_cast<size_t>(kk / bz);
                            const int e = kk % bz;
                            const bool a = rng.bernoulli(side);
                            const bool w = rng.bernoulli(side);
                            if (a)
                                act[b] = maskSet(act[b], e);
                            if (w)
                                wgt[b] = maskSet(wgt[b], e);
                            if (a && w)
                                expect[static_cast<size_t>(kk / 64)] |=
                                    uint64_t{1} << (kk % 64);
                        }
                        std::vector<uint64_t> packed(expect.size(), 0);
                        SaSmtModel::packMatchBitmap(act.data(),
                                                    wgt.data(), blocks,
                                                    bz, packed.data());
                        EXPECT_EQ(packed, expect) << "bz " << bz;
                        EXPECT_EQ(model.matchCycles(packed.data(), spt),
                                  SaSmtModel::queueCycles(
                                      arrivalsOf(expect, spt, k), q))
                            << "bz " << bz;
                    }
                }
            }
        }
    }
}

TEST(SmtQueueDeath, MoreArrivalsThanTheFifoHoldsAreFatal)
{
    // Two threads delivering into a one-entry FIFO could never be
    // admitted: the automaton refuses instead of looping forever.
    EXPECT_DEATH(SaSmtModel::queueCycles({2}, 1), "FIFO of depth 1");
}

TEST(SmtModel, OutputMatchesReference)
{
    Rng rng(2);
    const GemmProblem p =
        makeUnstructuredGemm(40, 64, 70, 0.5, 0.5, rng);
    const auto model = makeArrayModel(ArrayConfig::saSmt(2));
    EXPECT_EQ(model->run(p).output, gemmReference(p));
}

TEST(SmtModel, SpeedupInPaperRangeAtHalfSparsity)
{
    Rng rng(3);
    // A typical convolution-sized GEMM at 50/50 sparsity.
    const GemmProblem p =
        makeUnstructuredGemm(128, 512, 128, 0.5, 0.5, rng);
    RunOptions opt;
    opt.compute_output = false;

    const auto zvcg = makeArrayModel(ArrayConfig::saZvcg());
    const int64_t base = zvcg->run(p, opt).events.cycles;

    // Fig. 3: SMT-T2Q2 ~1.6x, SMT-T2Q4 ~1.8x.
    const auto q2 = makeArrayModel(ArrayConfig::saSmt(2));
    const auto q4 = makeArrayModel(ArrayConfig::saSmt(4));
    const double s2 = static_cast<double>(base) /
                      q2->run(p, opt).events.cycles;
    const double s4 = static_cast<double>(base) /
                      q4->run(p, opt).events.cycles;
    EXPECT_GT(s2, 1.3);
    EXPECT_LT(s2, 2.0);
    EXPECT_GT(s4, s2);
    EXPECT_LE(s4, 2.0);
}

TEST(SmtModel, SpeedupCappedByThreadCount)
{
    Rng rng(4);
    // Extremely sparse: the cap is the T=2 stream rate.
    const GemmProblem p =
        makeUnstructuredGemm(64, 2048, 64, 0.95, 0.95, rng);
    RunOptions opt;
    opt.compute_output = false;
    const int64_t base = makeArrayModel(ArrayConfig::saZvcg())
                             ->run(p, opt).events.cycles;
    const int64_t smt = makeArrayModel(ArrayConfig::saSmt(4))
                            ->run(p, opt).events.cycles;
    const double speedup = static_cast<double>(base) / smt;
    EXPECT_LE(speedup, 2.05);
    EXPECT_GT(speedup, 1.8);
}

TEST(SmtModel, FifoActivityMatchesMatchedPairs)
{
    Rng rng(5);
    const GemmProblem p =
        makeUnstructuredGemm(32, 128, 64, 0.5, 0.5, rng);
    RunOptions opt;
    opt.compute_output = false;
    const auto r = makeArrayModel(ArrayConfig::saSmt(2))->run(p, opt);
    EXPECT_EQ(r.events.fifo_pushes, r.events.macs_executed);
    EXPECT_EQ(r.events.fifo_pops, r.events.fifo_pushes);
    const OperandProfile prof = OperandProfile::build(p);
    EXPECT_EQ(r.events.macs_executed, prof.matched_products);
}

TEST(SmtModel, TimingIsDeterministicForFixedSeed)
{
    Rng rng(6);
    const GemmProblem p =
        makeUnstructuredGemm(64, 256, 128, 0.5, 0.5, rng);
    RunOptions opt;
    opt.compute_output = false;
    const auto model = makeArrayModel(ArrayConfig::saSmt(2));
    EXPECT_EQ(model->run(p, opt).events.cycles,
              model->run(p, opt).events.cycles);
}

} // anonymous namespace
} // namespace s2ta
