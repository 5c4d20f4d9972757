#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/hypothesis/mean_tests.h"
#include "src/hypothesis/power.h"
#include "src/stats/descriptive.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace hypothesis {
namespace {

TEST(AnalyticalPowerTest, AtNullEqualsAlpha) {
  auto p = AnalyticalMeanTestPower(5.0, 2.0, 25, 5.0, 0.05,
                                   TestOp::kGreater);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.05, 1e-10);
  auto p2 = AnalyticalMeanTestPower(5.0, 2.0, 25, 5.0, 0.05,
                                    TestOp::kNotEqual);
  ASSERT_TRUE(p2.ok());
  EXPECT_NEAR(*p2, 0.05, 1e-10);
}

TEST(AnalyticalPowerTest, MonotoneInEffectAndN) {
  auto weak = AnalyticalMeanTestPower(5.5, 2.0, 25, 5.0, 0.05,
                                      TestOp::kGreater);
  auto strong = AnalyticalMeanTestPower(6.5, 2.0, 25, 5.0, 0.05,
                                        TestOp::kGreater);
  auto more_n = AnalyticalMeanTestPower(5.5, 2.0, 100, 5.0, 0.05,
                                        TestOp::kGreater);
  ASSERT_TRUE(weak.ok() && strong.ok() && more_n.ok());
  EXPECT_GT(*strong, *weak);
  EXPECT_GT(*more_n, *weak);
}

TEST(AnalyticalPowerTest, LessOpMirrors) {
  auto above = AnalyticalMeanTestPower(6.0, 2.0, 25, 5.0, 0.05,
                                       TestOp::kGreater);
  auto below = AnalyticalMeanTestPower(4.0, 2.0, 25, 5.0, 0.05,
                                       TestOp::kLess);
  ASSERT_TRUE(above.ok() && below.ok());
  EXPECT_NEAR(*above, *below, 1e-12);
}

TEST(AnalyticalPowerTest, MatchesEmpiricalSingleTest) {
  // Empirical power of the single mTest vs the closed form (sigma
  // treated as known in the formula; n = 40 keeps the t/z gap small).
  Rng rng(3);
  constexpr double kMu = 5.6, kSigma = 2.0, kC = 5.0;
  constexpr size_t kN = 40;
  int accepts = 0;
  constexpr int kTrials = 4000;
  for (int t = 0; t < kTrials; ++t) {
    const auto obs = stats::SampleMany(
        kN, [&] { return stats::SampleNormal(rng, kMu, kSigma); });
    const auto s = stats::Summarize(obs);
    auto r = MeanTest({s.mean, s.SampleStdDev(), kN}, TestOp::kGreater,
                      kC, 0.05);
    ASSERT_TRUE(r.ok());
    if (*r) ++accepts;
  }
  const double empirical = static_cast<double>(accepts) / kTrials;
  auto analytical = AnalyticalMeanTestPower(kMu, kSigma, kN, kC, 0.05,
                                            TestOp::kGreater);
  ASSERT_TRUE(analytical.ok());
  EXPECT_NEAR(empirical, *analytical, 0.04);
}

TEST(RequiredSampleSizeTest, FindsThreshold) {
  auto n = RequiredSampleSize(5.5, 2.0, 5.0, 0.05, TestOp::kGreater,
                              0.9);
  ASSERT_TRUE(n.ok());
  // Standard formula: n = ((z_a + z_b) * sigma / delta)^2
  //                     = ((1.645+1.282)*2/0.5)^2 = 137.1 -> 138.
  EXPECT_NEAR(static_cast<double>(*n), 138.0, 2.0);
  // Power just below n is insufficient; at n it suffices.
  auto at = AnalyticalMeanTestPower(5.5, 2.0, *n, 5.0, 0.05,
                                    TestOp::kGreater);
  auto below = AnalyticalMeanTestPower(5.5, 2.0, *n - 1, 5.0, 0.05,
                                       TestOp::kGreater);
  EXPECT_GE(*at, 0.9);
  EXPECT_LT(*below, 0.9);
}

TEST(RequiredSampleSizeTest, UnreachableTargetFails) {
  // Zero effect: power never exceeds alpha.
  EXPECT_TRUE(RequiredSampleSize(5.0, 2.0, 5.0, 0.05, TestOp::kGreater,
                                 0.9, 1u << 12)
                  .status()
                  .IsOutOfRange());
}

TEST(AnalyticalPowerTest, InvalidInputs) {
  EXPECT_TRUE(AnalyticalMeanTestPower(5, 0.0, 10, 4, 0.05,
                                      TestOp::kGreater)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AnalyticalMeanTestPower(5, 1.0, 0, 4, 0.05,
                                      TestOp::kGreater)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AnalyticalMeanTestPower(5, 1.0, 10, 4, 1.0,
                                      TestOp::kGreater)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace hypothesis
}  // namespace ausdb
