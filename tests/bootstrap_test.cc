#include "src/bootstrap/bootstrap_accuracy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/bootstrap/resampler.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/stats/descriptive.h"
#include "src/stats/ks_test.h"
#include "src/stats/percentile.h"
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

// ---------------------------------------------------------------------
// Interval bits
//
// Every interval is read from the order statistics that a full sort would
// put at the ranks QuantileOfSorted reads. These pins fold the exact
// IEEE-754 bits of every interval end over a grid of d.f. sample sizes,
// resample counts and confidences, so any change in which order
// statistics are read, in how they are combined or in how the draws are
// made shows as a different digest. Each cell draws from its own keyed
// stream, and the first word the stream yields after the call is folded
// too: that pins how many draws the call takes.

void FoldInterval(SeedKey& digest,
                  const std::optional<accuracy::ConfidenceInterval>& ci) {
  ASSERT_TRUE(ci.has_value());
  digest.AddBits(ci->lo).AddBits(ci->hi);
}

TEST(BootstrapLawTest, GaussianIntervalBitsArePinned) {
  const dist::GaussianDist g(3.0, 4.0);
  SeedKey digest(0);
  for (size_t n : {size_t{1}, size_t{2}, size_t{20}}) {
    for (size_t r : {size_t{2}, size_t{3}, size_t{20}, size_t{200},
                     size_t{400}}) {
      for (double confidence : {0.5, 0.9, 0.99}) {
        Rng rng(SeedKey(0xB175).Add(n).Add(r).AddBits(confidence).value());
        auto info = BootstrapAccuracyFromDistribution(g, n, r, confidence,
                                                      rng);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        FoldInterval(digest, info->mean_ci);
        FoldInterval(digest, info->variance_ci);
        digest.Add(rng.NextUint64());
      }
    }
  }
  EXPECT_EQ(digest.value(), 0x6cc788e45bed3124ULL);
}

// The printed algorithm with bin edges: bin heights are multiples of 1/n,
// so their percentile intervals are read among heavy ties. Covers both
// BootstrapAccuracyInfo on a value sequence and the histogram draw of
// BootstrapAccuracyFromDistribution.
TEST(BootstrapAccuracyTest, HistogramBinIntervalBitsArePinned) {
  auto histogram = dist::HistogramDist::Make({0.0, 1.0, 2.0, 4.0, 8.0},
                                             {0.1, 0.4, 0.3, 0.2});
  ASSERT_TRUE(histogram.ok());
  const std::vector<double> edges = {0.0, 1.0, 2.0, 4.0, 8.0};
  const std::vector<double> inner_edges = {0.5, 1.5, 3.0};
  SeedKey digest(0);
  for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{20}}) {
    for (size_t r : {size_t{2}, size_t{20}, size_t{200}}) {
      for (double confidence : {0.5, 0.9, 0.99}) {
        Rng rng(SeedKey(0xB1A5).Add(n).Add(r).AddBits(confidence).value());
        std::vector<double> values(n * r);
        for (double& v : values) v = stats::SampleGamma(rng, 2.0, 1.0);
        auto info = BootstrapAccuracyInfo(values, n, confidence, inner_edges);
        ASSERT_TRUE(info.ok()) << info.status().ToString();
        ASSERT_EQ(info->bin_cis.size(), 2u);
        for (const auto& ci : info->bin_cis) FoldInterval(digest, ci);
        FoldInterval(digest, info->mean_ci);
        FoldInterval(digest, info->variance_ci);

        auto drawn = BootstrapAccuracyFromDistribution(*histogram, n, r,
                                                       confidence, rng, edges);
        ASSERT_TRUE(drawn.ok()) << drawn.status().ToString();
        ASSERT_EQ(drawn->bin_cis.size(), 4u);
        for (const auto& ci : drawn->bin_cis) FoldInterval(digest, ci);
        FoldInterval(digest, drawn->mean_ci);
        FoldInterval(digest, drawn->variance_ci);
        digest.Add(rng.NextUint64());
      }
    }
  }
  EXPECT_EQ(digest.value(), 0xef1ecb055623de28ULL);
}

// Property: a percentile interval equals the sorted oracle's bit for bit —
// QuantileOfSorted at (1 -/+ confidence)/2 over a sorted copy — for every
// r from 2 to 500, on distinct values, on heavy ties (bin-height-like
// multiples of 1/5), on values mixed with +-inf, and on ascending (tied)
// and descending input.
// ClassicPercentileBootstrap is driven with a statistic that ignores its
// resample and returns the i-th prepared value; BootstrapAccuracyInfo with
// n = 1 turns each value into one resample mean. (NaN has no place in a
// sorted order, and the two zeros compare equal, so neither is drawn.)
TEST(BootstrapPercentileProperty, MatchesSortedOracle) {
  Rng rng(0x0DE5);
  const double kConfidences[] = {0.5, 0.9, 0.95, 0.99};
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> one_value = {1.0};
  size_t checked = 0;
  for (size_t r = 2; r <= 500; ++r) {
    for (int kind = 0; kind < 5; ++kind) {
      std::vector<double> values(r);
      for (size_t i = 0; i < r; ++i) {
        switch (kind) {
          case 0:
            values[i] = rng.NextDouble(-1e3, 1e3);
            break;
          case 1:
            values[i] = static_cast<double>(1 + rng.NextBelow(5)) / 5.0;
            break;
          case 2: {
            const uint64_t pick = rng.NextBelow(8);
            values[i] = pick == 0   ? kInf
                        : pick == 1 ? -kInf
                                    : rng.NextDouble(1.0, 2.0);
            break;
          }
          case 3:
            values[i] = static_cast<double>(i / 3);
            break;
          default:
            values[i] = -static_cast<double>(i);
            break;
        }
      }
      const double confidence =
          rng.NextBelow(5) == 0 ? rng.NextDouble(0.01, 0.99)
                                : kConfidences[rng.NextBelow(4)];
      std::vector<double> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const double lo =
          stats::QuantileOfSorted(sorted, (1.0 - confidence) / 2.0);
      const double hi =
          stats::QuantileOfSorted(sorted, (1.0 + confidence) / 2.0);

      size_t next = 0;
      const auto prepared = [&](std::span<const double>) {
        return values[next++];
      };
      Rng unused(1);
      auto classic =
          ClassicPercentileBootstrap(one_value, r, confidence, prepared,
                                     unused);
      ASSERT_TRUE(classic.ok()) << classic.status().ToString();
      auto grouped = BootstrapAccuracyInfo(values, 1, confidence);
      ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
      for (const accuracy::ConfidenceInterval& ci :
           {*classic, *grouped->mean_ci}) {
        EXPECT_EQ(std::bit_cast<uint64_t>(ci.lo), std::bit_cast<uint64_t>(lo))
            << "r=" << r << " kind=" << kind << " confidence=" << confidence;
        EXPECT_EQ(std::bit_cast<uint64_t>(ci.hi), std::bit_cast<uint64_t>(hi))
            << "r=" << r << " kind=" << kind << " confidence=" << confidence;
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 499u * 5u);
}

}  // namespace
}  // namespace bootstrap
}  // namespace ausdb
