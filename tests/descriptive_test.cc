#include "src/stats/descriptive.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dist/learner.h"
#include "src/stats/percentile.h"

namespace ausdb {
namespace stats {
namespace {

TEST(DescriptiveTest, MeanAndVarianceSimple) {
  const std::vector<double> data = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(data), 5.0);
  EXPECT_DOUBLE_EQ(PopulationVariance(data), 4.0);
  EXPECT_NEAR(SampleVariance(data), 32.0 / 7.0, 1e-12);
}

TEST(DescriptiveTest, PaperExample3Statistics) {
  // Example 3 of the paper: ybar = 71.1, s = 8.85.
  const std::vector<double> delays = {71, 56, 82, 74, 69, 77, 65, 78, 59,
                                      80};
  const auto s = Summarize(delays);
  EXPECT_EQ(s.count, 10u);
  EXPECT_NEAR(s.mean, 71.1, 1e-12);
  EXPECT_NEAR(s.SampleStdDev(), 8.85, 5e-3);
}

TEST(DescriptiveTest, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleVariance({}), 0.0);
  const std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(Mean(one), 3.0);
  EXPECT_DOUBLE_EQ(SampleVariance(one), 0.0);
  EXPECT_DOUBLE_EQ(PopulationVariance(one), 0.0);
}

TEST(MomentAccumulatorTest, MatchesBatchOnRandomData) {
  Rng rng(77);
  std::vector<double> data;
  MomentAccumulator acc;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.NextGaussian() * 3.0 + 10.0;
    data.push_back(x);
    acc.Add(x);
  }
  const auto s = Summarize(data);
  EXPECT_NEAR(acc.mean(), s.mean, 1e-9);
  EXPECT_NEAR(acc.SampleVariance(), s.sample_variance, 1e-9);
  EXPECT_NEAR(acc.min(), s.min, 0.0);
  EXPECT_NEAR(acc.max(), s.max, 0.0);
}

TEST(MomentAccumulatorTest, MergeEqualsSequential) {
  Rng rng(9);
  MomentAccumulator all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble() * 100.0;
    all.Add(x);
    (i < 500 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.SampleVariance(), all.SampleVariance(), 1e-9);
  EXPECT_NEAR(left.Skewness(), all.Skewness(), 1e-9);
  EXPECT_NEAR(left.ExcessKurtosis(), all.ExcessKurtosis(), 1e-9);
}

TEST(MomentAccumulatorTest, MergeWithEmptySides) {
  MomentAccumulator a, b;
  a.Add(1.0);
  a.Add(2.0);
  a.Merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  b.Merge(a);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(MomentAccumulatorTest, GaussianHigherMomentsNearZero) {
  Rng rng(21);
  MomentAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.Add(rng.NextGaussian());
  EXPECT_NEAR(acc.Skewness(), 0.0, 0.05);
  EXPECT_NEAR(acc.ExcessKurtosis(), 0.0, 0.1);
}

TEST(MomentAccumulatorTest, ExponentialSkewness) {
  // Exponential(1) has skewness 2 and excess kurtosis 6.
  Rng rng(33);
  MomentAccumulator acc;
  for (int i = 0; i < 300000; ++i) {
    acc.Add(-std::log(1.0 - rng.NextDouble()));
  }
  EXPECT_NEAR(acc.Skewness(), 2.0, 0.1);
  EXPECT_NEAR(acc.ExcessKurtosis(), 6.0, 0.5);
}

TEST(QuantileTest, LinearInterpolationMatchesR7) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(data, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(data, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(data, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(data, 0.25), 1.75);
}

TEST(QuantileTest, NearestRank) {
  const std::vector<double> data = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(Quantile(data, 0.2, QuantileMethod::kNearestRank), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(data, 0.21, QuantileMethod::kNearestRank),
                   20.0);
  EXPECT_DOUBLE_EQ(Quantile(data, 1.0, QuantileMethod::kNearestRank), 50.0);
}

TEST(QuantileTest, UnsortedInputIsHandled) {
  const std::vector<double> data = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(Quantile(data, 0.5), 5.0);
}

TEST(QuantileTest, BatchQuantilesMatchSingles) {
  const std::vector<double> data = {4.0, 8.0, 15.0, 16.0, 23.0, 42.0};
  const std::vector<double> ps = {0.1, 0.5, 0.9};
  const auto qs = Quantiles(data, ps);
  ASSERT_EQ(qs.size(), 3u);
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_DOUBLE_EQ(qs[i], Quantile(data, ps[i]));
  }
}

TEST(EmpiricalCdfTest, StepsCorrectly) {
  const std::vector<double> data = {1.0, 2.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(EmpiricalCdf(data, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(EmpiricalCdf(data, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(EmpiricalCdf(data, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(EmpiricalCdf(data, 10.0), 1.0);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// NaN payloads are not part of the contract; every other bit is.
::testing::AssertionResult SameDouble(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits differ)";
}

std::vector<std::vector<double>> MomentCases() {
  std::vector<std::vector<double>> cases;
  Rng rng(0x40E);
  for (size_t n : {2, 3, 20, 1000}) {
    std::vector<double> gaussian(n), offset(n), mixed(n);
    for (size_t i = 0; i < n; ++i) {
      gaussian[i] = 10.0 + 2.0 * rng.NextGaussian();
      offset[i] = 1e9 + 1e-3 * rng.NextGaussian();
      mixed[i] = rng.NextDouble(-1e3, 1e3);
    }
    cases.push_back(gaussian);
    cases.push_back(offset);
    cases.push_back(mixed);
    cases.push_back(std::vector<double>(n, -3.25));  // constant
  }
  const double inf = std::numeric_limits<double>::infinity();
  cases.push_back({1.0, inf});
  cases.push_back({1.0, -inf, 2.0});
  cases.push_back({inf, 1.0});
  cases.push_back({inf, inf});
  cases.push_back({-inf, inf, 0.0});
  cases.push_back({1.0, NAN, 2.0});
  cases.push_back({NAN, NAN});
  return cases;
}

TEST(MeanVarianceTest, BitIdenticalToSummarize) {
  for (const auto& data : MomentCases()) {
    const SummaryStats full = Summarize(data);
    const MeanVariance two = SummarizeMeanVariance(data);
    EXPECT_TRUE(SameDouble(two.mean, full.mean)) << data.size();
    EXPECT_TRUE(SameDouble(two.sample_variance, full.sample_variance))
        << data.size();
  }
  EXPECT_EQ(Bits(SummarizeMeanVariance({}).mean), Bits(0.0));
  EXPECT_EQ(Bits(SummarizeMeanVariance(std::vector<double>{4.0})
                     .sample_variance),
            Bits(0.0));
}

TEST(MeanVarianceTest, LearnGaussianMomentsBitIdenticalToSummarize) {
  for (const auto& data : MomentCases()) {
    const SummaryStats full = Summarize(data);
    auto learned = dist::LearnGaussian(data);
    if (std::isnan(full.sample_variance)) {
      // A NaN variance is no Gaussian; refused instead of aborting.
      EXPECT_TRUE(learned.status().IsInvalidArgument());
      continue;
    }
    ASSERT_TRUE(learned.ok()) << learned.status().ToString();
    EXPECT_TRUE(SameDouble(learned->distribution->Mean(), full.mean));
    EXPECT_TRUE(
        SameDouble(learned->distribution->Variance(), full.sample_variance));
    EXPECT_EQ(learned->sample_size, data.size());
    ASSERT_NE(learned->raw_sample, nullptr);
    ASSERT_EQ(learned->raw_sample->size(), data.size());
    EXPECT_EQ(std::memcmp(learned->raw_sample->data(), data.data(),
                          data.size() * sizeof(double)),
              0);
  }
}

}  // namespace
}  // namespace stats
}  // namespace ausdb
