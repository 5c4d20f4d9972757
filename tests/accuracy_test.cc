#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/accuracy/accuracy_info.h"
#include "src/accuracy/confidence_interval.h"
#include "src/accuracy/defacto.h"
#include "src/accuracy/mean_variance_ci.h"
#include "src/accuracy/proportion_ci.h"
#include "src/common/rng.h"
#include "src/dist/gaussian.h"
#include "src/dist/learner.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace accuracy {
namespace {

TEST(ConfidenceIntervalTest, Basics) {
  ConfidenceInterval ci{1.0, 3.0, 0.9};
  EXPECT_DOUBLE_EQ(ci.Length(), 2.0);
  EXPECT_DOUBLE_EQ(ci.Midpoint(), 2.0);
  EXPECT_TRUE(ci.Contains(1.0));
  EXPECT_TRUE(ci.Contains(2.5));
  EXPECT_FALSE(ci.Contains(3.0001));
}

TEST(ConfidenceIntervalTest, Intersect) {
  ConfidenceInterval a{0.0, 2.0, 0.95};
  ConfidenceInterval b{1.0, 3.0, 0.90};
  const auto both = Intersect(a, b);
  EXPECT_DOUBLE_EQ(both.lo, 1.0);
  EXPECT_DOUBLE_EQ(both.hi, 2.0);
  EXPECT_DOUBLE_EQ(both.confidence, 0.90);
  // Disjoint intervals collapse to zero length.
  ConfidenceInterval c{5.0, 6.0, 0.9};
  const auto none = Intersect(a, c);
  EXPECT_DOUBLE_EQ(none.Length(), 0.0);
}

TEST(ProportionCiTest, WaldConditionDispatch) {
  EXPECT_TRUE(WaldConditionHolds(0.2, 20));    // np = 4
  EXPECT_FALSE(WaldConditionHolds(0.15, 20));  // np = 3
  EXPECT_FALSE(WaldConditionHolds(0.9, 20));   // n(1-p) = 2
}

TEST(ProportionCiTest, PaperExample2Bucket2Wald) {
  // Example 2: n=20, p2=0.2, c=0.9 -> 0.2 +/- 0.147 ~ (0.05, 0.35).
  auto ci = ProportionInterval(0.2, 20, 0.9);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->lo, 0.053, 1e-3);
  EXPECT_NEAR(ci->hi, 0.347, 1e-3);
}

TEST(ProportionCiTest, PaperExample2Bucket1Wilson) {
  // Example 2: n=20, p1=0.15 (np=3 < 4) -> Wilson -> (0.062, 0.322).
  auto ci = ProportionInterval(0.15, 20, 0.9);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->lo, 0.062, 1e-3);
  EXPECT_NEAR(ci->hi, 0.322, 1e-3);
}

TEST(ProportionCiTest, PaperExample2Buckets3And4) {
  auto ci3 = ProportionInterval(0.4, 20, 0.9);
  ASSERT_TRUE(ci3.ok());
  EXPECT_NEAR(ci3->lo, 0.22, 5e-3);
  EXPECT_NEAR(ci3->hi, 0.58, 5e-3);
  auto ci4 = ProportionInterval(0.25, 20, 0.9);
  ASSERT_TRUE(ci4.ok());
  EXPECT_NEAR(ci4->lo, 0.09, 5e-3);
  EXPECT_NEAR(ci4->hi, 0.41, 5e-3);
}

TEST(ProportionCiTest, ClampedToUnitInterval) {
  auto ci = WaldProportionInterval(0.99, 10, 0.99);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->hi, 1.0);
  auto ci2 = WaldProportionInterval(0.01, 10, 0.99);
  ASSERT_TRUE(ci2.ok());
  EXPECT_GE(ci2->lo, 0.0);
}

TEST(ProportionCiTest, WilsonNeverDegenerateAtExtremes) {
  // At p=0 the Wald interval collapses to a point; Wilson does not.
  auto wald = WaldProportionInterval(0.0, 10, 0.9);
  auto wilson = WilsonProportionInterval(0.0, 10, 0.9);
  ASSERT_TRUE(wald.ok());
  ASSERT_TRUE(wilson.ok());
  EXPECT_DOUBLE_EQ(wald->Length(), 0.0);
  EXPECT_GT(wilson->Length(), 0.0);
}

TEST(ProportionCiTest, InvalidInputs) {
  EXPECT_TRUE(ProportionInterval(1.5, 10, 0.9).status().IsInvalidArgument());
  EXPECT_TRUE(ProportionInterval(0.5, 0, 0.9).status().IsInsufficientData());
  EXPECT_TRUE(ProportionInterval(0.5, 10, 1.0).status().IsInvalidArgument());
}

TEST(ProportionCiTest, LengthShrinksAsSqrtN) {
  auto small = ProportionInterval(0.5, 25, 0.9);
  auto large = ProportionInterval(0.5, 100, 0.9);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_NEAR(small->Length() / large->Length(), 2.0, 0.01);
}

TEST(MeanCiTest, PaperExample3Mean) {
  // Example 3: ybar=71.1, s=8.85, n=10, c=0.9 -> [65.97, 76.23].
  const std::vector<double> delays = {71, 56, 82, 74, 69, 77, 65, 78, 59,
                                      80};
  auto ci = MeanIntervalFromSample(delays, 0.9);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->lo, 65.97, 0.02);
  EXPECT_NEAR(ci->hi, 76.23, 0.02);
}

TEST(MeanCiTest, PaperExample3Variance) {
  // Example 3: sigma1^2 = 41.66, sigma2^2 = 211.99.
  const std::vector<double> delays = {71, 56, 82, 74, 69, 77, 65, 78, 59,
                                      80};
  auto ci = VarianceIntervalFromSample(delays, 0.9);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->lo, 41.66, 0.1);
  EXPECT_NEAR(ci->hi, 211.99, 0.5);
}

TEST(MeanCiTest, LargeSampleUsesZ) {
  // For n >= 30 the multiplier is z, not t: the interval is slightly
  // narrower than the t-based small-sample rule would give.
  auto z_ci = MeanInterval(0.0, 1.0, 30, 0.9);
  ASSERT_TRUE(z_ci.ok());
  const double z_mult = z_ci->Length() / 2.0 * std::sqrt(30.0);
  EXPECT_NEAR(z_mult, 1.6449, 1e-3);
}

TEST(MeanCiTest, SmallSampleUsesT) {
  auto t_ci = MeanInterval(0.0, 1.0, 10, 0.9);
  ASSERT_TRUE(t_ci.ok());
  const double t_mult = t_ci->Length() / 2.0 * std::sqrt(10.0);
  EXPECT_NEAR(t_mult, 1.833, 1e-3);  // t_{0.05, 9}
}

TEST(MeanCiTest, InvalidInputs) {
  EXPECT_TRUE(MeanInterval(0, 1, 1, 0.9).status().IsInsufficientData());
  EXPECT_TRUE(MeanInterval(0, -1, 10, 0.9).status().IsInvalidArgument());
  EXPECT_TRUE(MeanInterval(0, 1, 10, 0.0).status().IsInvalidArgument());
}

TEST(DeFactoTest, Lemma4SampleCount) {
  // Two inputs with n1 = 2, n2 = 3: c = 3!/(3-2)! = 6.
  const std::vector<size_t> sizes = {2, 3};
  auto log_c = LogDeFactoSampleCount(sizes);
  ASSERT_TRUE(log_c.ok());
  EXPECT_NEAR(*log_c, std::log(6.0), 1e-10);
  // Single input: product over i >= 2 is empty -> c = 1.
  const std::vector<size_t> single = {7};
  EXPECT_NEAR(*LogDeFactoSampleCount(single), 0.0, 1e-12);
}

TEST(AccuracyInfoTest, PaperExample5TupleProbability) {
  // Example 5: Pr[C > 80] = 0.6 learned from n=20 -> 90% CI [0.42, 0.78].
  auto ci = TupleProbabilityInterval(0.6, 20, 0.9);
  ASSERT_TRUE(ci.ok());
  EXPECT_NEAR(ci->lo, 0.42, 5e-3);
  EXPECT_NEAR(ci->hi, 0.78, 5e-3);
}

TEST(AccuracyInfoTest, HistogramGetsPerBinIntervals) {
  Rng rng(6);
  std::vector<double> obs = stats::SampleMany(
      50, [&] { return stats::SampleNormal(rng, 0, 1); });
  auto learned = dist::LearnHistogram(obs, {});
  ASSERT_TRUE(learned.ok());
  auto info = AnalyticalAccuracy(*learned->distribution,
                                 learned->sample_size, 0.9);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->sample_size, 50u);
  EXPECT_EQ(info->method, AccuracyMethod::kAnalytical);
  EXPECT_EQ(info->bin_cis.size(), 10u);
  ASSERT_TRUE(info->mean_ci.has_value());
  ASSERT_TRUE(info->variance_ci.has_value());
  for (const auto& ci : info->bin_cis) {
    EXPECT_GE(ci.lo, 0.0);
    EXPECT_LE(ci.hi, 1.0);
    EXPECT_LE(ci.lo, ci.hi);
  }
}

TEST(AccuracyInfoTest, GaussianGetsMeanVarianceOnly) {
  dist::GaussianDist g(5.0, 4.0);
  auto info = AnalyticalAccuracy(g, 25, 0.95);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->bin_cis.empty());
  ASSERT_TRUE(info->mean_ci.has_value());
  EXPECT_TRUE(info->mean_ci->Contains(5.0));
  ASSERT_TRUE(info->variance_ci.has_value());
  EXPECT_TRUE(info->variance_ci->Contains(4.0));
}

TEST(AccuracyInfoTest, CertainVariableGetsDegenerateIntervals) {
  const auto rv = dist::RandomVar::Certain(3.0);
  auto info = AnalyticalAccuracy(rv, 0.9);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->mean_ci.has_value());
  EXPECT_DOUBLE_EQ(info->mean_ci->lo, 3.0);
  EXPECT_DOUBLE_EQ(info->mean_ci->hi, 3.0);
  EXPECT_DOUBLE_EQ(info->variance_ci->Length(), 0.0);
}

TEST(AccuracyInfoTest, TooSmallSampleFails) {
  dist::GaussianDist g(0.0, 1.0);
  EXPECT_TRUE(AnalyticalAccuracy(g, 1, 0.9).status().IsInsufficientData());
}

TEST(AccuracyInfoTest, ToStringMentionsMethod) {
  dist::GaussianDist g(0.0, 1.0);
  auto info = AnalyticalAccuracy(g, 10, 0.9);
  ASSERT_TRUE(info.ok());
  EXPECT_NE(info->ToString().find("analytical"), std::string::npos);
}

// Coverage property: across many repetitions, the 90% mean interval from
// a small sample should contain the true mean roughly 90% of the time.
TEST(CoverageProperty, MeanIntervalCoversTrueMean) {
  Rng rng(123);
  constexpr int kTrials = 2000;
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> obs = stats::SampleMany(
        20, [&] { return stats::SampleNormal(rng, 5.0, 2.0); });
    auto ci = MeanIntervalFromSample(obs, 0.9);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(5.0)) ++hits;
  }
  const double coverage = static_cast<double>(hits) / kTrials;
  EXPECT_GT(coverage, 0.87);
  EXPECT_LT(coverage, 0.93);
}

TEST(CoverageProperty, VarianceIntervalCoversTrueVariance) {
  Rng rng(321);
  constexpr int kTrials = 2000;
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> obs = stats::SampleMany(
        20, [&] { return stats::SampleNormal(rng, 0.0, 3.0); });
    auto ci = VarianceIntervalFromSample(obs, 0.9);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(9.0)) ++hits;
  }
  const double coverage = static_cast<double>(hits) / kTrials;
  EXPECT_GT(coverage, 0.86);
  EXPECT_LT(coverage, 0.94);
}

TEST(CoverageProperty, ProportionIntervalCoversTrueProportion) {
  Rng rng(555);
  constexpr int kTrials = 3000;
  constexpr double kTrueP = 0.3;
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    const size_t successes = stats::SampleBinomial(rng, 40, kTrueP);
    const double p_hat = static_cast<double>(successes) / 40.0;
    auto ci = ProportionInterval(p_hat, 40, 0.9);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(kTrueP)) ++hits;
  }
  const double coverage = static_cast<double>(hits) / kTrials;
  EXPECT_GT(coverage, 0.85);
  EXPECT_LT(coverage, 0.96);
}

}  // namespace
}  // namespace accuracy
}  // namespace ausdb

// Appended: RandomVar sample-size combination helper (Lemma 3 rule).
namespace ausdb {
namespace dist {
namespace {

TEST(RandomVarTest, CombineSampleSizesIsMin) {
  EXPECT_EQ(RandomVar::CombineSampleSizes(10, 20), 10u);
  EXPECT_EQ(RandomVar::CombineSampleSizes(
                RandomVar::kCertainSampleSize, 7),
            7u);
  EXPECT_EQ(RandomVar::CombineSampleSizes(RandomVar::kCertainSampleSize,
                                          RandomVar::kCertainSampleSize),
            RandomVar::kCertainSampleSize);
}

TEST(RandomVarTest, CertainValueAccessors) {
  const auto v = RandomVar::Certain(4.5);
  EXPECT_TRUE(v.is_certain());
  EXPECT_DOUBLE_EQ(*v.certain_value(), 4.5);
  EXPECT_EQ(v.sample_size(), RandomVar::kCertainSampleSize);
  RandomVar g(std::make_shared<GaussianDist>(0.0, 1.0), 5);
  EXPECT_FALSE(g.is_certain());
  EXPECT_TRUE(g.certain_value().status().IsTypeError());
  EXPECT_NE(g.ToString().find("n=5"), std::string::npos);
}

}  // namespace
}  // namespace dist
}  // namespace ausdb
