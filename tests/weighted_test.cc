#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/accuracy/mean_variance_ci.h"
#include "src/accuracy/proportion_ci.h"
#include "src/accuracy/weighted_accuracy.h"
#include "src/common/rng.h"
#include "src/stats/random_variates.h"
#include "src/stats/weighted.h"

namespace ausdb {
namespace stats {
namespace {

TEST(EffectiveSampleSizeTest, EqualWeightsGiveN) {
  const std::vector<double> w(10, 0.7);
  auto n_eff = EffectiveSampleSize(w);
  ASSERT_TRUE(n_eff.ok());
  EXPECT_NEAR(*n_eff, 10.0, 1e-12);
}

TEST(EffectiveSampleSizeTest, OneDominantWeightGivesNearOne) {
  std::vector<double> w(10, 1e-9);
  w[0] = 1.0;
  auto n_eff = EffectiveSampleSize(w);
  ASSERT_TRUE(n_eff.ok());
  EXPECT_NEAR(*n_eff, 1.0, 1e-6);
}

TEST(EffectiveSampleSizeTest, InvalidWeights) {
  EXPECT_TRUE(EffectiveSampleSize({}).status().IsInvalidArgument());
  const std::vector<double> neg = {1.0, -0.5};
  EXPECT_TRUE(EffectiveSampleSize(neg).status().IsInvalidArgument());
  const std::vector<double> zero = {0.0, 0.0};
  EXPECT_TRUE(EffectiveSampleSize(zero).status().IsInvalidArgument());
}

TEST(SummarizeWeightedTest, EqualWeightsMatchUnweighted) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> w(5, 2.0);
  auto s = SummarizeWeighted(x, w);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->mean, 3.0);
  EXPECT_NEAR(s->sample_variance, 2.5, 1e-12);  // matches n-1 variance
  EXPECT_NEAR(s->effective_sample_size, 5.0, 1e-12);
}

TEST(SummarizeWeightedTest, WeightsShiftTheMean) {
  const std::vector<double> x = {0.0, 10.0};
  const std::vector<double> w = {1.0, 3.0};
  auto s = SummarizeWeighted(x, w);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->mean, 7.5);
  // n_eff = (4)^2 / (1+9) = 1.6.
  EXPECT_NEAR(s->effective_sample_size, 1.6, 1e-12);
}

TEST(SummarizeWeightedTest, SizeMismatchFails) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> w = {1.0};
  EXPECT_TRUE(SummarizeWeighted(x, w).status().IsInvalidArgument());
}

TEST(ExponentialDecayWeightsTest, ShapeAndEdgeCases) {
  auto w = ExponentialDecayWeights(4, 0.5);
  ASSERT_TRUE(w.ok());
  const std::vector<double> expected = {1.0, 0.5, 0.25, 0.125};
  EXPECT_EQ(*w, expected);
  auto flat = ExponentialDecayWeights(3, 1.0);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(*flat, (std::vector<double>{1.0, 1.0, 1.0}));
  EXPECT_TRUE(ExponentialDecayWeights(0, 0.5).status().IsInvalidArgument());
  EXPECT_TRUE(
      ExponentialDecayWeights(3, 1.5).status().IsInvalidArgument());
}

}  // namespace
}  // namespace stats

namespace accuracy {
namespace {

TEST(WeightedIntervalTest, EqualWeightsReduceToLemma2) {
  const std::vector<double> delays = {71, 56, 82, 74, 69, 77, 65, 78, 59,
                                      80};
  const std::vector<double> w(10, 1.0);
  auto weighted = WeightedMeanInterval(delays, w, 0.9);
  auto unweighted = MeanIntervalFromSample(delays, 0.9);
  ASSERT_TRUE(weighted.ok() && unweighted.ok());
  EXPECT_NEAR(weighted->lo, unweighted->lo, 1e-9);
  EXPECT_NEAR(weighted->hi, unweighted->hi, 1e-9);

  auto wvar = WeightedVarianceInterval(delays, w, 0.9);
  auto uvar = VarianceIntervalFromSample(delays, 0.9);
  ASSERT_TRUE(wvar.ok() && uvar.ok());
  EXPECT_NEAR(wvar->lo, uvar->lo, 1e-9);
  EXPECT_NEAR(wvar->hi, uvar->hi, 1e-9);
}

TEST(WeightedIntervalTest, SkewedWeightsWidenTheInterval) {
  Rng rng(9);
  std::vector<double> x =
      stats::SampleMany(40, [&] { return stats::SampleNormal(rng, 5, 2); });
  const std::vector<double> flat(40, 1.0);
  auto decayed = stats::ExponentialDecayWeights(40, 0.85);
  ASSERT_TRUE(decayed.ok());
  auto flat_ci = WeightedMeanInterval(x, flat, 0.9);
  auto decay_ci = WeightedMeanInterval(x, *decayed, 0.9);
  ASSERT_TRUE(flat_ci.ok() && decay_ci.ok());
  // Decay reduces n_eff, so the interval must be wider.
  EXPECT_GT(decay_ci->Length(), flat_ci->Length());
}

TEST(WeightedIntervalTest, WeightedProportionReducesToLemma1) {
  auto weighted = WeightedProportionInterval(0.2, 20.0, 0.9);
  auto unweighted = ProportionInterval(0.2, 20, 0.9);
  ASSERT_TRUE(weighted.ok() && unweighted.ok());
  EXPECT_NEAR(weighted->lo, unweighted->lo, 1e-12);
  EXPECT_NEAR(weighted->hi, unweighted->hi, 1e-12);
  // Wilson branch too (n_eff * p < 4).
  auto ww = WeightedProportionInterval(0.15, 20.0, 0.9);
  auto uw = ProportionInterval(0.15, 20, 0.9);
  ASSERT_TRUE(ww.ok() && uw.ok());
  EXPECT_NEAR(ww->lo, uw->lo, 1e-12);
  EXPECT_NEAR(ww->hi, uw->hi, 1e-12);
}

TEST(WeightedIntervalTest, InvalidInputs) {
  const std::vector<double> x = {1.0};
  const std::vector<double> w = {1.0};
  EXPECT_TRUE(WeightedMeanInterval(x, w, 0.9)
                  .status()
                  .IsInsufficientData());
  EXPECT_TRUE(WeightedProportionInterval(0.5, -1.0, 0.9)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(WeightedProportionInterval(1.5, 10.0, 0.9)
                  .status()
                  .IsInvalidArgument());
}

// Property: under a drifting mean, recency weighting keeps the mean
// interval centered on the *current* value far better than flat weights.
TEST(WeightedDriftProperty, DecayTracksDrift) {
  Rng rng(10);
  constexpr int kTrials = 400;
  constexpr size_t kWindow = 60;
  int flat_hits = 0, decay_hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    // Mean drifts linearly from 0 to 6 across the window; the current
    // (most recent) true mean is 6.
    std::vector<double> x(kWindow);
    for (size_t i = 0; i < kWindow; ++i) {
      const double age = static_cast<double>(kWindow - 1 - i);
      const double mean = 6.0 - 6.0 * age / (kWindow - 1);
      x[i] = stats::SampleNormal(rng, mean, 1.0);
    }
    // Most recent observation last: reverse into recency order (index 0
    // = newest) for the decay weights.
    std::vector<double> newest_first(x.rbegin(), x.rend());
    const std::vector<double> flat(kWindow, 1.0);
    auto decayed = stats::ExponentialDecayWeights(kWindow, 0.8);
    auto flat_ci = WeightedMeanInterval(newest_first, flat, 0.9);
    auto decay_ci = WeightedMeanInterval(newest_first, *decayed, 0.9);
    ASSERT_TRUE(flat_ci.ok() && decay_ci.ok());
    if (flat_ci->Contains(6.0)) ++flat_hits;
    if (decay_ci->Contains(6.0)) ++decay_hits;
  }
  EXPECT_GT(decay_hits, flat_hits * 2);
  EXPECT_GT(static_cast<double>(decay_hits) / kTrials, 0.5);
  // Flat weights essentially never cover the current mean under drift.
  EXPECT_LT(static_cast<double>(flat_hits) / kTrials, 0.2);
}

}  // namespace
}  // namespace accuracy

}  // namespace ausdb
