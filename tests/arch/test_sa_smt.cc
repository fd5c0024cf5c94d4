/** @file Unit tests for the SMT-SA re-implementation. */

#include <gtest/gtest.h>

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
