#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dist/gaussian.h"
#include "src/dist/learner.h"
#include "src/hypothesis/coupled_tests.h"
#include "src/hypothesis/mean_tests.h"
#include "src/hypothesis/power.h"
#include "src/hypothesis/proportion_test.h"
#include "src/hypothesis/significance_predicates.h"
#include "src/stats/descriptive.h"
#include "src/stats/quantiles.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace hypothesis {
namespace {

dist::RandomVar LearnedVar(const std::vector<double>& obs) {
  auto learned = dist::LearnGaussian(obs);
  EXPECT_TRUE(learned.ok());
  return dist::RandomVar(*learned);
}

TEST(TestTypesTest, InverseOps) {
  EXPECT_EQ(InverseOp(TestOp::kLess), TestOp::kGreater);
  EXPECT_EQ(InverseOp(TestOp::kGreater), TestOp::kLess);
  EXPECT_EQ(InverseOp(TestOp::kNotEqual), TestOp::kNotEqual);
  EXPECT_EQ(TestOpToString(TestOp::kNotEqual), "<>");
  EXPECT_EQ(TestOutcomeToString(TestOutcome::kUnsure), "UNSURE");
}

TEST(MeanTestTest, ClearlyGreaterIsAccepted) {
  // Mean 10, sd 1, n 25: testing E > 5 is overwhelming evidence.
  SampleStatistics s{10.0, 1.0, 25};
  auto r = MeanTest(s, TestOp::kGreater, 5.0, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  // And E < 5 must not be accepted.
  auto r2 = MeanTest(s, TestOp::kLess, 5.0, 0.05);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(*r2);
}

TEST(MeanTestTest, BorderlineNotSignificantWithSmallSample) {
  // Paper Example 8/9 flavor: X learned from 5 observations with mean
  // slightly above the constant should NOT be significant.
  const std::vector<double> x_obs = {82, 86, 105, 110, 119};
  const auto stats_x = stats::Summarize(x_obs);
  SampleStatistics s{stats_x.mean, stats_x.SampleStdDev(), 5};
  auto r = MeanTest(s, TestOp::kGreater, 97.0, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);  // mean 100.4 but only n=5, huge spread
}

TEST(MeanTestTest, LargeSampleSameMeanIsSignificant) {
  // Y with the same mean but n=100 and modest spread is significant.
  SampleStatistics s{100.4, 14.7, 100};
  auto r = MeanTest(s, TestOp::kGreater, 97.0, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
}

TEST(MeanTestTest, TwoSidedDetectsEitherDirection) {
  SampleStatistics low{-5.0, 1.0, 50};
  SampleStatistics high{5.0, 1.0, 50};
  EXPECT_TRUE(*MeanTest(low, TestOp::kNotEqual, 0.0, 0.05));
  EXPECT_TRUE(*MeanTest(high, TestOp::kNotEqual, 0.0, 0.05));
  SampleStatistics at{0.01, 1.0, 50};
  EXPECT_FALSE(*MeanTest(at, TestOp::kNotEqual, 0.0, 0.05));
}

TEST(MeanTestTest, PValueMonotoneInEvidence) {
  SampleStatistics weak{5.5, 3.0, 10};
  SampleStatistics strong{8.0, 3.0, 10};
  auto p_weak = MeanTestPValue(weak, TestOp::kGreater, 5.0);
  auto p_strong = MeanTestPValue(strong, TestOp::kGreater, 5.0);
  ASSERT_TRUE(p_weak.ok() && p_strong.ok());
  EXPECT_GT(*p_weak, *p_strong);
}

TEST(MeanTestTest, DegenerateZeroSpread) {
  SampleStatistics s{5.0, 0.0, 10};
  EXPECT_TRUE(*MeanTest(s, TestOp::kGreater, 4.0, 0.05));
  EXPECT_FALSE(*MeanTest(s, TestOp::kGreater, 6.0, 0.05));
}

TEST(MeanTestTest, InvalidInputs) {
  SampleStatistics s{0.0, 1.0, 1};
  EXPECT_TRUE(MeanTest(s, TestOp::kGreater, 0.0, 0.05)
                  .status()
                  .IsInsufficientData());
  SampleStatistics ok_stats{0.0, 1.0, 10};
  EXPECT_TRUE(MeanTest(ok_stats, TestOp::kGreater, 0.0, 0.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(MeanDifferenceTestTest, DetectsSeparatedMeans) {
  SampleStatistics x{10.0, 2.0, 40};
  SampleStatistics y{7.0, 2.0, 40};
  EXPECT_TRUE(*MeanDifferenceTest(x, y, TestOp::kGreater, 0.0, 0.05));
  EXPECT_FALSE(*MeanDifferenceTest(y, x, TestOp::kGreater, 0.0, 0.05));
}

TEST(MeanDifferenceTestTest, RespectsOffsetC) {
  SampleStatistics x{10.0, 1.0, 50};
  SampleStatistics y{7.0, 1.0, 50};
  // X - Y ~ 3; test difference > 5 should fail, > 1 should pass.
  EXPECT_FALSE(*MeanDifferenceTest(x, y, TestOp::kGreater, 5.0, 0.05));
  EXPECT_TRUE(*MeanDifferenceTest(x, y, TestOp::kGreater, 1.0, 0.05));
}

TEST(MeanDifferenceTestTest, WelchHandlesUnequalVariances) {
  SampleStatistics x{1.0, 10.0, 8};
  SampleStatistics y{0.0, 0.5, 200};
  // Huge variance on x with tiny n: should not be significant.
  EXPECT_FALSE(*MeanDifferenceTest(x, y, TestOp::kGreater, 0.0, 0.05));
}

TEST(MeanTestTest, NanStatisticIsInvalidArgument) {
  const double inf = std::numeric_limits<double>::infinity();
  const SampleStatistics nan_mean{NAN, 1.0, 20};
  const SampleStatistics inf_mean{inf, 1.0, 20};
  const SampleStatistics nan_degenerate{NAN, 0.0, 20};
  const SampleStatistics ok{10.0, 1.0, 20};
  for (TestOp op : {TestOp::kGreater, TestOp::kLess, TestOp::kNotEqual}) {
    EXPECT_TRUE(
        MeanTest(nan_mean, op, 10.0, 0.05).status().IsInvalidArgument());
    EXPECT_TRUE(
        MeanTestPValue(nan_mean, op, 10.0).status().IsInvalidArgument());
    EXPECT_TRUE(MeanTest(ok, op, NAN, 0.05).status().IsInvalidArgument());
    EXPECT_TRUE(MeanTestPValue(ok, op, NAN).status().IsInvalidArgument());
    EXPECT_TRUE(MeanTest(inf_mean, op, inf, 0.05).status().IsInvalidArgument());
    EXPECT_TRUE(MeanTestPValue(inf_mean, op, inf).status().IsInvalidArgument());
    EXPECT_TRUE(
        MeanTest(nan_degenerate, op, 10.0, 0.05).status().IsInvalidArgument());
  }
  // An infinite but well-defined statistic still decides.
  EXPECT_TRUE(*MeanTest(inf_mean, TestOp::kGreater, 10.0, 0.05));
  EXPECT_FALSE(*MeanTest(inf_mean, TestOp::kLess, 10.0, 0.05));
}

TEST(MeanDifferenceTestTest, NanStatisticIsInvalidArgument) {
  const double inf = std::numeric_limits<double>::infinity();
  const SampleStatistics x{10.0, 1.0, 20};
  const SampleStatistics nan_mean{NAN, 1.0, 20};
  const SampleStatistics inf_mean{inf, 1.0, 20};
  for (TestOp op : {TestOp::kGreater, TestOp::kLess, TestOp::kNotEqual}) {
    EXPECT_TRUE(MeanDifferenceTest(nan_mean, x, op, 0.0, 0.05)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(MeanDifferenceTestPValue(x, nan_mean, op, 0.0)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(
        MeanDifferenceTest(x, x, op, NAN, 0.05).status().IsInvalidArgument());
    EXPECT_TRUE(
        MeanDifferenceTestPValue(x, x, op, NAN).status().IsInvalidArgument());
    EXPECT_TRUE(MeanDifferenceTest(inf_mean, inf_mean, op, 0.0, 0.05)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(MeanDifferenceTestPValue(inf_mean, inf_mean, op, 0.0)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(MeanDifferenceTestTest, UnrepresentableWelchDofIsInvalidArgument) {
  // Sq(1e200) overflows, so the Welch d.f. is inf/inf.
  const SampleStatistics huge{0.0, 1e200, 5};
  const SampleStatistics y{0.0, 1.0, 5};
  EXPECT_TRUE(MeanDifferenceTestPValue(huge, y, TestOp::kGreater, 0.0)
                  .status()
                  .IsInvalidArgument());
  // Sq of a subnormal variance underflows to 0, so the d.f. is 0/0.
  const SampleStatistics tiny{0.0, 1e-160, 5};
  EXPECT_TRUE(MeanDifferenceTest(tiny, tiny, TestOp::kGreater, 0.0, 0.05)
                  .status()
                  .IsInvalidArgument());
}

// Statistics with stddev = sqrt(n) and c = 0 make the test statistic
// exactly the mean: x.stddev / sqrt(n) is exactly 1.
SampleStatistics WithStatistic(double statistic, size_t n) {
  return SampleStatistics{statistic, std::sqrt(static_cast<double>(n)), n};
}

// Raw statistic whose oriented value (as MeanTest orients it) is `s`.
double RawStatistic(TestOp op, double s, bool flip_two_sided) {
  if (op == TestOp::kLess) return -s;
  if (op == TestOp::kNotEqual && flip_two_sided) return -s;
  return s;
}

::testing::AssertionResult DecisionMatchesPValue(double raw, size_t n,
                                                 TestOp op, double alpha) {
  const SampleStatistics x = WithStatistic(raw, n);
  const auto decision = MeanTest(x, op, 0.0, alpha);
  const auto p = MeanTestPValue(x, op, 0.0);
  if (!decision.ok() || !p.ok()) {
    return ::testing::AssertionFailure() << "error at statistic " << raw;
  }
  if (*decision != (*p <= alpha)) {
    return ::testing::AssertionFailure()
           << "n=" << n << " op=" << TestOpToString(op) << " alpha=" << alpha
           << " statistic=" << raw << " decision=" << *decision
           << " p=" << *p;
  }
  return ::testing::AssertionSuccess();
}

double StepUlps(double x, int ulps) {
  const double toward = ulps < 0 ? -INFINITY : INFINITY;
  for (int i = 0; i < std::abs(ulps); ++i) x = std::nextafter(x, toward);
  return x;
}

TEST(MeanTestBoundaryTest, DecisionEqualsPValueAtAndAroundCriticalValue) {
  // dof 1..28 use Student t (n = dof + 1); n >= 30 uses the normal.
  const std::vector<size_t> sizes = {2, 3, 4, 10, 20, 29, 30, 200};
  const std::vector<double> alphas = {1e-4, 0.01, 0.05, 0.1, 0.5, 0.9};
  const std::vector<int> ulps = {0, 1, -1, 4, -4, 64, -64};
  for (size_t n : sizes) {
    for (double alpha : alphas) {
      for (TestOp op : {TestOp::kGreater, TestOp::kLess, TestOp::kNotEqual}) {
        const bool two_sided = op == TestOp::kNotEqual;
        const double tail = two_sided ? alpha / 2.0 : alpha;
        const double crit =
            n < 30 ? stats::StudentTUpperPercentile(
                         tail, static_cast<double>(n) - 1.0)
                   : stats::NormalUpperPercentile(tail);
        auto band = MeanTestDecisionBand(n, op, alpha);
        ASSERT_TRUE(band.ok());
        // Every swept alpha gets a finite band, so the sweep exercises
        // both the memoized comparison and the exact fallback.
        ASSERT_TRUE(std::isfinite(band->keep_at));
        ASSERT_TRUE(std::isfinite(band->reject_at));
        EXPECT_LT(band->keep_at, crit);
        EXPECT_GT(band->reject_at, crit);
        for (double anchor : {crit, band->keep_at, band->reject_at}) {
          for (int u : ulps) {
            const double s = StepUlps(anchor, u);
            EXPECT_TRUE(DecisionMatchesPValue(RawStatistic(op, s, false), n,
                                              op, alpha));
            if (two_sided) {
              EXPECT_TRUE(DecisionMatchesPValue(RawStatistic(op, s, true), n,
                                                op, alpha));
            }
          }
        }
      }
    }
  }
}

TEST(MeanTestBoundaryTest, DecisionEqualsPValueOverRandomSweep) {
  const std::vector<size_t> sizes = {2, 3, 4, 10, 20, 29, 30, 75};
  const std::vector<double> alphas = {1e-4, 0.01, 0.05, 0.1, 0.5, 0.9};
  const TestOp ops[] = {TestOp::kGreater, TestOp::kLess, TestOp::kNotEqual};
  const double scales[] = {1e-12, 1e-9, 1e-6, 1e-3, 1.0};
  Rng rng(0x5EED5);
  for (int i = 0; i < 100000; ++i) {
    const size_t n = sizes[rng.NextBelow(sizes.size())];
    const double alpha = alphas[rng.NextBelow(alphas.size())];
    const TestOp op = ops[rng.NextBelow(3)];
    const double tail = op == TestOp::kNotEqual ? alpha / 2.0 : alpha;
    const double crit =
        n < 30 ? stats::StudentTUpperPercentile(tail,
                                                static_cast<double>(n) - 1.0)
               : stats::NormalUpperPercentile(tail);
    // Mostly near the critical value, at every scale of the band and
    // beyond it; one draw in six anywhere in [-10, 10].
    const size_t pick = rng.NextBelow(6);
    const double s =
        pick == 5 ? rng.NextDouble(-10.0, 10.0)
                  : crit + scales[pick] * (1.0 + std::abs(crit)) *
                               rng.NextGaussian();
    ASSERT_TRUE(DecisionMatchesPValue(RawStatistic(op, s, rng.NextBelow(2)),
                                      n, op, alpha));
  }
}

TEST(MeanTestBoundaryTest, UnverifiableAlphaFallsBackToPValue) {
  // Tails this small get no band; every decision takes the p-value.
  auto band = MeanTestDecisionBand(20, TestOp::kGreater, 1e-13);
  ASSERT_TRUE(band.ok());
  EXPECT_TRUE(std::isinf(band->keep_at) && std::isinf(band->reject_at));
  for (double s : {0.0, 5.0, 20.0, 1e3, 1e6, 1e9}) {
    EXPECT_TRUE(DecisionMatchesPValue(s, 20, TestOp::kGreater, 1e-13));
    EXPECT_TRUE(DecisionMatchesPValue(s, 40, TestOp::kNotEqual, 1e-17));
  }
}

TEST(MeanTestBoundaryTest, ThreadsWithDifferentAlphasKeepTheirOwnBands) {
  // Between the two critical values the decisions differ, so a thread
  // reading the other's memoized band would fail its check.
  const double alphas[2] = {0.05, 0.01};
  bool ok[2] = {false, false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([t, &alphas, &ok] {
      bool all = true;
      size_t rejected = 0;
      for (int rep = 0; rep < 200; ++rep) {
        for (double s = 1.5; s <= 3.0; s += 0.01) {
          all = all && DecisionMatchesPValue(s, 20, TestOp::kGreater,
                                             alphas[t]);
          rejected += *MeanTest(WithStatistic(s, 20), TestOp::kGreater, 0.0,
                                alphas[t]);
        }
      }
      // t(19) critical values: 1.729 at 0.05, 2.539 at 0.01.
      const size_t per_rep = rejected / 200;
      ok[t] = all && (t == 0 ? per_rep > 120 && per_rep < 130
                             : per_rep > 40 && per_rep < 50);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
}

TEST(ProportionTestTest, DetectsHighProportion) {
  // Observed 0.6 from n=100 against tau=0.5: z = 2.0, one-sided p ~0.023.
  EXPECT_TRUE(*ProportionTest(0.6, 100, TestOp::kGreater, 0.5, 0.05));
  EXPECT_FALSE(*ProportionTest(0.6, 100, TestOp::kGreater, 0.5, 0.01));
}

TEST(ProportionTestTest, SmallSampleNotSignificant) {
  // Same observed 0.6 but from n=5: nowhere near significant (Example 9).
  EXPECT_FALSE(*ProportionTest(0.6, 5, TestOp::kGreater, 0.5, 0.05));
}

TEST(ProportionTestTest, DegenerateTau) {
  EXPECT_TRUE(*ProportionTest(0.5, 10, TestOp::kGreater, 0.0, 0.05));
  EXPECT_FALSE(*ProportionTest(0.5, 10, TestOp::kGreater, 1.0, 0.05));
  EXPECT_TRUE(*ProportionTest(0.5, 10, TestOp::kLess, 1.0, 0.05));
}

TEST(ProportionTestTest, InvalidInputs) {
  EXPECT_TRUE(ProportionTest(1.2, 10, TestOp::kGreater, 0.5, 0.05)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ProportionTest(0.5, 0, TestOp::kGreater, 0.5, 0.05)
                  .status()
                  .IsInsufficientData());
}

TEST(SignificancePredicateTest, PredicateProbability) {
  dist::GaussianDist g(0.0, 1.0);
  EXPECT_NEAR(PredicateProbability(g, {CompareOp::kGt, 0.0}), 0.5, 1e-12);
  EXPECT_NEAR(PredicateProbability(g, {CompareOp::kLt, 0.0}), 0.5, 1e-12);
  EXPECT_NEAR(PredicateProbability(g, {CompareOp::kGe, 1.0}),
              1.0 - 0.8413447460685429, 1e-10);
  EXPECT_NEAR(PredicateProbability(g, {CompareOp::kLe, 1.0}),
              0.8413447460685429, 1e-10);
}

TEST(SignificancePredicateTest, PaperExample9MTest) {
  // X from 5 observations (mean 100.4); Y same mean from n=100 with 40%
  // of mass below 100. mTest(temp, '>', 97, 0.05): only Y satisfies.
  const std::vector<double> x_obs = {82, 86, 105, 110, 119};
  const auto x = LearnedVar(x_obs);
  auto rx = MTest(x, TestOp::kGreater, 97.0, 0.05);
  ASSERT_TRUE(rx.ok());
  EXPECT_FALSE(*rx);

  // Y: simulate 100 observations with mean ~100.4 and sd ~14.7.
  Rng rng(44);
  std::vector<double> y_obs = stats::SampleMany(
      100, [&] { return stats::SampleNormal(rng, 100.4, 10.0); });
  const auto y = LearnedVar(y_obs);
  auto ry = MTest(y, TestOp::kGreater, 97.0, 0.05);
  ASSERT_TRUE(ry.ok());
  EXPECT_TRUE(*ry);
}

TEST(SignificancePredicateTest, PaperExample9PTest) {
  // pTest("temperature > 100", 0.5, 0.05): X (n=5, ~0.6 above 100)
  // fails; Y (n=100, 0.6 above) passes.
  const std::vector<double> x_obs = {82, 86, 105, 110, 119};
  auto x_learned = dist::LearnEmpirical(x_obs);
  ASSERT_TRUE(x_learned.ok());
  dist::RandomVar x(*x_learned);
  auto rx = PTest(x, {CompareOp::kGt, 100.0}, 0.5, 0.05);
  ASSERT_TRUE(rx.ok());
  EXPECT_FALSE(*rx);

  // Y: 40 observations below 100, 60 above.
  std::vector<double> y_obs;
  for (int i = 0; i < 40; ++i) y_obs.push_back(90.0 + 0.1 * i);
  for (int i = 0; i < 60; ++i) y_obs.push_back(101.0 + 0.1 * i);
  auto y_learned = dist::LearnEmpirical(y_obs);
  ASSERT_TRUE(y_learned.ok());
  dist::RandomVar y(*y_learned);
  auto ry = PTest(y, {CompareOp::kGt, 100.0}, 0.5, 0.05);
  ASSERT_TRUE(ry.ok());
  EXPECT_TRUE(*ry);
}

TEST(SignificancePredicateTest, CertainVariableRejected) {
  const auto v = dist::RandomVar::Certain(5.0);
  EXPECT_TRUE(MTest(v, TestOp::kGreater, 0.0, 0.05)
                  .status()
                  .IsInsufficientData());
  EXPECT_TRUE(PTest(v, {CompareOp::kGt, 0.0}, 0.5, 0.05)
                  .status()
                  .IsInsufficientData());
}

TEST(CoupledTestsTest, StrongEvidenceYieldsTrue) {
  SampleStatistics s{10.0, 1.0, 30};
  auto runner = [&s](TestOp op, double alpha) {
    return MeanTest(s, op, 5.0, alpha);
  };
  auto r = CoupledTests(runner, TestOp::kGreater, 0.05, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestOutcome::kTrue);
}

TEST(CoupledTestsTest, StrongCounterEvidenceYieldsFalse) {
  SampleStatistics s{1.0, 1.0, 30};
  auto runner = [&s](TestOp op, double alpha) {
    return MeanTest(s, op, 5.0, alpha);
  };
  auto r = CoupledTests(runner, TestOp::kGreater, 0.05, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestOutcome::kFalse);
}

TEST(CoupledTestsTest, AmbiguousEvidenceYieldsUnsure) {
  SampleStatistics s{5.1, 3.0, 10};
  auto runner = [&s](TestOp op, double alpha) {
    return MeanTest(s, op, 5.0, alpha);
  };
  auto r = CoupledTests(runner, TestOp::kGreater, 0.05, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestOutcome::kUnsure);
}

TEST(CoupledTestsTest, TwoSidedNeverReturnsFalse) {
  for (double mean : {-10.0, -0.01, 0.0, 0.01, 10.0}) {
    SampleStatistics s{mean, 2.0, 15};
    auto runner = [&s](TestOp op, double alpha) {
      return MeanTest(s, op, 0.0, alpha);
    };
    auto r = CoupledTests(runner, TestOp::kNotEqual, 0.05, 0.05);
    ASSERT_TRUE(r.ok());
    EXPECT_NE(*r, TestOutcome::kFalse) << "mean=" << mean;
  }
}

TEST(CoupledTestsTest, InvalidAlphaRejected) {
  auto runner = [](TestOp, double) -> Result<bool> { return true; };
  EXPECT_TRUE(CoupledTests(runner, TestOp::kGreater, 0.0, 0.05)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(CoupledTests(runner, TestOp::kGreater, 0.05, 1.0)
                  .status()
                  .IsInvalidArgument());
}

TEST(CoupledMTestTest, EndToEnd) {
  Rng rng(77);
  std::vector<double> obs = stats::SampleMany(
      25, [&] { return stats::SampleNormal(rng, 10.0, 1.0); });
  const auto x = LearnedVar(obs);
  auto hi = CoupledMTest(x, TestOp::kGreater, 5.0, 0.05, 0.05);
  ASSERT_TRUE(hi.ok());
  EXPECT_EQ(*hi, TestOutcome::kTrue);
  auto lo = CoupledMTest(x, TestOp::kGreater, 15.0, 0.05, 0.05);
  ASSERT_TRUE(lo.ok());
  EXPECT_EQ(*lo, TestOutcome::kFalse);
}

TEST(CoupledMdTestTest, EndToEnd) {
  Rng rng(78);
  std::vector<double> a_obs = stats::SampleMany(
      40, [&] { return stats::SampleNormal(rng, 10.0, 1.0); });
  std::vector<double> b_obs = stats::SampleMany(
      40, [&] { return stats::SampleNormal(rng, 5.0, 1.0); });
  const auto a = LearnedVar(a_obs);
  const auto b = LearnedVar(b_obs);
  auto r = CoupledMdTest(a, b, TestOp::kGreater, 0.0, 0.05, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestOutcome::kTrue);
  auto r2 = CoupledMdTest(b, a, TestOp::kGreater, 0.0, 0.05, 0.05);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, TestOutcome::kFalse);
}

TEST(CoupledPTestTest, EndToEnd) {
  std::vector<double> obs;
  for (int i = 0; i < 90; ++i) obs.push_back(10.0 + i);  // 90 above 5
  for (int i = 0; i < 10; ++i) obs.push_back(-10.0 - i);
  auto learned = dist::LearnEmpirical(obs);
  ASSERT_TRUE(learned.ok());
  dist::RandomVar x(*learned);
  auto r = CoupledPTest(x, {CompareOp::kGt, 5.0}, 0.5, 0.05, 0.05);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TestOutcome::kTrue);
  auto r2 = CoupledPTest(x, {CompareOp::kGt, 5.0}, 0.99, 0.05, 0.05);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, TestOutcome::kFalse);
}

// Theorem 3 property, empirically: with H0 true (E(X) <= c), the rate of
// TRUE returns stays below alpha1; with H1 true, FALSE returns stay
// below alpha2.
TEST(Theorem3Property, FalsePositiveRateBounded) {
  Rng rng(99);
  constexpr int kTrials = 2000;
  int false_positives = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> obs = stats::SampleMany(
        20, [&] { return stats::SampleNormal(rng, 5.0, 2.0); });
    const auto x = LearnedVar(obs);
    auto r = CoupledMTest(x, TestOp::kGreater, 5.0, 0.05, 0.05);
    ASSERT_TRUE(r.ok());
    if (*r == TestOutcome::kTrue) ++false_positives;
  }
  EXPECT_LT(static_cast<double>(false_positives) / kTrials, 0.07);
}

TEST(Theorem3Property, FalseNegativeRateBounded) {
  Rng rng(100);
  constexpr int kTrials = 2000;
  int false_negatives = 0;
  for (int t = 0; t < kTrials; ++t) {
    // H1 clearly true: E(X) = 6 > c = 5.
    std::vector<double> obs = stats::SampleMany(
        20, [&] { return stats::SampleNormal(rng, 6.0, 2.0); });
    const auto x = LearnedVar(obs);
    auto r = CoupledMTest(x, TestOp::kGreater, 5.0, 0.05, 0.05);
    ASSERT_TRUE(r.ok());
    if (*r == TestOutcome::kFalse) ++false_negatives;
  }
  EXPECT_LT(static_cast<double>(false_negatives) / kTrials, 0.07);
}

TEST(PowerEstimateTest, TalliesOutcomes) {
  int i = 0;
  auto runner = [&i]() {
    const TestOutcome outcomes[] = {TestOutcome::kTrue, TestOutcome::kTrue,
                                    TestOutcome::kFalse,
                                    TestOutcome::kUnsure};
    return outcomes[i++ % 4];
  };
  const auto est = EstimatePower(400, runner);
  EXPECT_EQ(est.trials, 400u);
  EXPECT_DOUBLE_EQ(est.Power(), 0.5);
  EXPECT_DOUBLE_EQ(est.FalseRate(), 0.25);
  EXPECT_DOUBLE_EQ(est.UnsureRate(), 0.25);
}

TEST(PowerProperty, PowerIncreasesWithEffectSize) {
  // The Figure 5(g) shape: power of coupled mTest grows with delta.
  Rng rng(101);
  auto power_at = [&rng](double delta) {
    const double mu = 1.0;
    auto run_once = [&]() {
      std::vector<double> obs = stats::SampleMany(
          20, [&] { return stats::SampleNormal(rng, mu, 1.0); });
      auto learned = dist::LearnGaussian(obs);
      dist::RandomVar x(*learned);
      // H1 true direction: E(X) = mu > c = (1 - delta) * mu.
      auto r =
          CoupledMTest(x, TestOp::kGreater, (1.0 - delta) * mu, 0.05, 0.05);
      return r.ok() ? *r : TestOutcome::kUnsure;
    };
    return EstimatePower(600, run_once).Power();
  };
  const double p_small = power_at(0.2);
  const double p_big = power_at(1.0);
  EXPECT_GT(p_big, p_small);
  EXPECT_GT(p_big, 0.9);
}

}  // namespace
}  // namespace hypothesis
}  // namespace ausdb
