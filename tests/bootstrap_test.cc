#include "src/bootstrap/bootstrap_accuracy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/bootstrap/resampler.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/stats/descriptive.h"
#include "src/stats/ks_test.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace bootstrap {
namespace {

TEST(ResamplerTest, SizeAndMembership) {
  const std::vector<double> sample = {1.0, 2.0, 3.0};
  Rng rng(1);
  const auto re = Resample(sample, rng);
  EXPECT_EQ(re.size(), 3u);
  for (double v : re) {
    EXPECT_TRUE(std::find(sample.begin(), sample.end(), v) != sample.end());
  }
  const auto big = Resample(sample, 100, rng);
  EXPECT_EQ(big.size(), 100u);
}

TEST(ResamplerTest, WithReplacementProducesDuplicates) {
  std::vector<double> sample(50);
  std::iota(sample.begin(), sample.end(), 0.0);
  Rng rng(2);
  const auto re = Resample(sample, rng);
  std::vector<double> sorted = re;
  std::sort(sorted.begin(), sorted.end());
  const auto uniq = std::unique(sorted.begin(), sorted.end());
  // With replacement, ~63% unique in expectation; all-unique is
  // astronomically unlikely.
  EXPECT_LT(static_cast<size_t>(uniq - sorted.begin()), sample.size());
}

TEST(BootstrapAccuracyTest, PaperExample7Grouping) {
  // Example 7: n = 15, m = 300 -> r = 20 resamples. We verify the
  // algorithm accepts this shape and produces intervals.
  Rng rng(3);
  std::vector<double> values = stats::SampleMany(
      300, [&] { return stats::SampleNormal(rng, 10.0, 2.0); });
  auto info = BootstrapAccuracyInfo(values, 15, 0.9);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->sample_size, 15u);
  EXPECT_EQ(info->method, accuracy::AccuracyMethod::kBootstrap);
  ASSERT_TRUE(info->mean_ci.has_value());
  ASSERT_TRUE(info->variance_ci.has_value());
  EXPECT_TRUE(info->mean_ci->Contains(10.0));
  // Variance of the population is 4; the bootstrap interval should be in
  // a plausible neighborhood.
  EXPECT_GT(info->variance_ci->hi, 1.0);
  EXPECT_LT(info->variance_ci->lo, 10.0);
}

TEST(BootstrapAccuracyTest, BinHeightIntervalsWhenEdgesGiven) {
  Rng rng(4);
  std::vector<double> values = stats::SampleMany(
      400, [&] { return stats::SampleUniform(rng, 0.0, 1.0); });
  const std::vector<double> edges = {0.0, 0.25, 0.5, 0.75, 1.0};
  auto info = BootstrapAccuracyInfo(values, 20, 0.9, edges);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->bin_cis.size(), 4u);
  for (const auto& ci : info->bin_cis) {
    // True bin height is 0.25 for uniform(0,1).
    EXPECT_LT(ci.lo, 0.25 + 0.35);
    EXPECT_GT(ci.hi, 0.25 - 0.35);
    EXPECT_LE(ci.lo, ci.hi);
  }
}

TEST(BootstrapAccuracyTest, RequiresTwoCompleteResamples) {
  std::vector<double> values(25, 1.0);
  EXPECT_TRUE(BootstrapAccuracyInfo(values, 20, 0.9)
                  .status()
                  .IsInsufficientData());
  EXPECT_TRUE(BootstrapAccuracyInfo(values, 0, 0.9)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(BootstrapAccuracyInfo(values, 5, 1.5)
                  .status()
                  .IsInvalidArgument());
}

TEST(BootstrapAccuracyTest, LeftoverValuesIgnored) {
  // m = 47, n = 10 -> r = 4 complete resamples; the last 7 values are
  // never touched. Poison them to prove it.
  Rng rng(5);
  std::vector<double> values = stats::SampleMany(
      40, [&] { return stats::SampleNormal(rng, 0.0, 1.0); });
  std::vector<double> poisoned = values;
  for (int i = 0; i < 7; ++i) poisoned.push_back(1e18);
  auto a = BootstrapAccuracyInfo(values, 10, 0.9);
  auto b = BootstrapAccuracyInfo(poisoned, 10, 0.9);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->mean_ci->lo, b->mean_ci->lo);
  EXPECT_DOUBLE_EQ(a->mean_ci->hi, b->mean_ci->hi);
}

TEST(BootstrapAccuracyTest, FromDistributionMatchesDirectSampling) {
  dist::GaussianDist g(3.0, 1.0);
  Rng rng(6);
  auto info = BootstrapAccuracyFromDistribution(g, 20, 50, 0.9, rng);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->mean_ci->Contains(3.0));
}

TEST(BootstrapAccuracyTest, IntervalNarrowsWithLargerN) {
  Rng rng(7);
  std::vector<double> values = stats::SampleMany(
      8000, [&] { return stats::SampleNormal(rng, 0.0, 1.0); });
  auto narrow = BootstrapAccuracyInfo(values, 100, 0.9);
  auto wide = BootstrapAccuracyInfo(
      std::span<const double>(values.data(), 800), 10, 0.9);
  ASSERT_TRUE(narrow.ok() && wide.ok());
  EXPECT_LT(narrow->mean_ci->Length(), wide->mean_ci->Length());
}

TEST(ClassicBootstrapTest, MeanIntervalCoversTruth) {
  Rng rng(8);
  constexpr int kTrials = 300;
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> sample = stats::SampleMany(
        30, [&] { return stats::SampleExponential(rng, 1.0); });
    auto ci = ClassicPercentileBootstrap(
        sample, 400, 0.9,
        [](std::span<const double> s) { return stats::Mean(s); }, rng);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(1.0)) ++hits;
  }
  const double coverage = static_cast<double>(hits) / kTrials;
  // Percentile bootstrap is approximate; accept a generous band.
  EXPECT_GT(coverage, 0.80);
  EXPECT_LT(coverage, 0.97);
}

TEST(ClassicBootstrapTest, InvalidInputs) {
  Rng rng(9);
  auto stat = [](std::span<const double> s) { return stats::Mean(s); };
  EXPECT_TRUE(ClassicPercentileBootstrap({}, 10, 0.9, stat, rng)
                  .status()
                  .IsInsufficientData());
  const std::vector<double> s = {1.0, 2.0};
  EXPECT_TRUE(ClassicPercentileBootstrap(s, 1, 0.9, stat, rng)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ClassicPercentileBootstrap(s, 10, 0.0, stat, rng)
                  .status()
                  .IsInvalidArgument());
}

// Pins the exact IEEE-754 bits of a percentile interval at a fixed seed,
// and how far the call advances the caller's stream (one resample seed
// per resample).
TEST(ClassicBootstrapTest, IntervalBitsArePinned) {
  std::vector<double> sample(50);
  for (size_t i = 0; i < sample.size(); ++i) {
    const double scale = i % 3 == 0 ? 1e9 : 1.0;
    sample[i] = scale * (1.0 + 0.5 * static_cast<double>(i));
  }
  const auto mean = [](std::span<const double> s) {
    double m = 0.0;
    for (double v : s) m += v;
    return m / static_cast<double>(s.size());
  };
  Rng rng(2024);
  auto ci = ClassicPercentileBootstrap(sample, 200, 0.9, mean, rng);
  ASSERT_TRUE(ci.ok()) << ci.status().ToString();
  EXPECT_EQ(std::bit_cast<uint64_t>(ci->lo), 0x41e2c0cbe9240c4aULL);
  EXPECT_EQ(std::bit_cast<uint64_t>(ci->hi), 0x41f7a9bd40816e97ULL);
  EXPECT_EQ(ci->confidence, 0.9);
  EXPECT_EQ(rng.NextUint64(), 0x3a42e0b381d060acULL);
}

// Property: bootstrap mean intervals achieve near-nominal coverage even
// for a skewed population, the regime where Lemma 2's normality
// assumption degrades (paper Section III's motivation).
TEST(BootstrapCoverageProperty, SkewedPopulationCoverage) {
  Rng rng(10);
  constexpr int kTrials = 400;
  int hits = 0;
  constexpr double kTrueMean = 4.0;  // Gamma(2, 2)
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> values = stats::SampleMany(
        600, [&] { return stats::SampleGamma(rng, 2.0, 2.0); });
    auto info = BootstrapAccuracyInfo(values, 20, 0.9);
    ASSERT_TRUE(info.ok());
    if (info->mean_ci->Contains(kTrueMean)) ++hits;
  }
  const double coverage = static_cast<double>(hits) / kTrials;
  EXPECT_GT(coverage, 0.80);
}

// ---------------------------------------------------------------------
// The sufficient-statistic draw for Gaussian distributions
//
// Pre-registered design, fixed before any result was read:
//   * grid n in {2, 5, 20, 80} x r in {20, 200}, N(3, 4), confidence 0.9;
//   * kLawTrials = 2000 intervals per path per cell, each path on its own
//     Rng seeded kFastSeed + cell / kPrintedSeed + cell;
//   * the printed algorithm is r * n draws from GaussianDist::Sample, then
//     BootstrapAccuracyInfo;
//   * a two-sample KS test per cell on each of mean_ci.lo, mean_ci.hi,
//     variance_ci.lo and variance_ci.hi (32 tests); every p-value must be
//     at least kLawAlpha = 0.01 / 32 (Bonferroni, family-wise 0.01).

constexpr size_t kLawTrials = 2000;
constexpr uint64_t kFastSeed = 0xFA57;
constexpr uint64_t kPrintedSeed = 0x9217;
constexpr double kLawAlpha = 0.01 / 32.0;

// The four interval ends of kLawTrials intervals.
struct IntervalEnds {
  std::vector<double> ends[4];

  void Add(const accuracy::AccuracyInfo& info) {
    ends[0].push_back(info.mean_ci->lo);
    ends[1].push_back(info.mean_ci->hi);
    ends[2].push_back(info.variance_ci->lo);
    ends[3].push_back(info.variance_ci->hi);
  }
};

TEST(BootstrapLawTest, SufficientStatisticDrawMatchesPrintedAlgorithm) {
  const dist::GaussianDist g(3.0, 4.0);
  const char* const kEnds[4] = {"mean_ci.lo", "mean_ci.hi", "variance_ci.lo",
                                "variance_ci.hi"};
  uint64_t cell = 0;
  for (size_t n : {size_t{2}, size_t{5}, size_t{20}, size_t{80}}) {
    for (size_t r : {size_t{20}, size_t{200}}) {
      Rng fast_rng(kFastSeed + cell);
      Rng printed_rng(kPrintedSeed + cell);
      ++cell;
      IntervalEnds fast, printed;
      std::vector<double> values(n * r);
      for (size_t t = 0; t < kLawTrials; ++t) {
        auto f = BootstrapAccuracyFromDistribution(g, n, r, 0.9, fast_rng);
        ASSERT_TRUE(f.ok()) << f.status().ToString();
        fast.Add(*f);
        for (double& v : values) v = g.Sample(printed_rng);
        auto p = BootstrapAccuracyInfo(values, n, 0.9);
        ASSERT_TRUE(p.ok()) << p.status().ToString();
        printed.Add(*p);
      }
      for (int k = 0; k < 4; ++k) {
        auto ks = stats::KsTestTwoSample(fast.ends[k], printed.ends[k]);
        ASSERT_TRUE(ks.ok());
        EXPECT_GE(ks->p_value, kLawAlpha)
            << kEnds[k] << " at n=" << n << " r=" << r
            << ": KS D=" << ks->statistic;
      }
    }
  }
}

TEST(BootstrapLawTest, SingleObservationHasZeroVarianceInterval) {
  const dist::GaussianDist g(3.0, 4.0);
  Rng rng(11);
  auto info = BootstrapAccuracyFromDistribution(g, 1, 20, 0.9, rng);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->variance_ci->lo, 0.0);
  EXPECT_EQ(info->variance_ci->hi, 0.0);
  EXPECT_LT(info->mean_ci->lo, info->mean_ci->hi);
}

TEST(BootstrapLawTest, ZeroVarianceGivesDegenerateIntervals) {
  const dist::GaussianDist g(0.1, 0.0);
  Rng rng(12);
  auto info = BootstrapAccuracyFromDistribution(g, 20, 20, 0.9, rng);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->mean_ci->lo, 0.1);
  EXPECT_EQ(info->mean_ci->hi, 0.1);
  EXPECT_EQ(info->variance_ci->lo, 0.0);
  EXPECT_EQ(info->variance_ci->hi, 0.0);
}

// Bad arguments fail with the same codes on both paths, and before any
// value is drawn: the generator is left where it was.
TEST(BootstrapLawTest, BadArgumentsFailBeforeDrawing) {
  const dist::GaussianDist gaussian(3.0, 4.0);
  auto histogram = dist::HistogramDist::Make({0.0, 1.0, 2.0}, {0.5, 0.5});
  ASSERT_TRUE(histogram.ok());
  const std::vector<double> edges = {0.0, 1.0, 2.0};
  struct Case {
    const dist::Distribution* d;
    std::span<const double> edges;
  };
  for (const Case& c : {Case{&gaussian, {}}, Case{&gaussian, edges},
                        Case{&*histogram, {}}}) {
    Rng rng(13);
    EXPECT_TRUE(BootstrapAccuracyFromDistribution(*c.d, 0, 20, 0.9, rng,
                                                  c.edges)
                    .status()
                    .IsInvalidArgument());
    EXPECT_TRUE(BootstrapAccuracyFromDistribution(*c.d, 20, 1, 0.9, rng,
                                                  c.edges)
                    .status()
                    .IsInvalidArgument());
    for (double confidence : {0.0, 1.0, 1.5, -0.5, std::nan("")}) {
      EXPECT_TRUE(BootstrapAccuracyFromDistribution(*c.d, 20, 20,
                                                    confidence, rng, c.edges)
                      .status()
                      .IsInvalidArgument())
          << confidence;
    }
    Rng untouched(13);
    EXPECT_EQ(rng.NextUint64(), untouched.NextUint64());
  }
}

}  // namespace
}  // namespace bootstrap
}  // namespace ausdb
