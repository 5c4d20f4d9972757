#include "src/dist/convolution.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dist/learner.h"
#include "src/stats/descriptive.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace dist {
namespace {

TEST(ConvolutionTest, UniformPlusUniformIsTriangular) {
  auto u = HistogramDist::Make({0.0, 1.0}, {1.0});
  ASSERT_TRUE(u.ok());
  ConvolveOptions opts;
  opts.output_bins = 40;
  opts.subdivisions = 32;
  auto sum = ConvolveHistograms(*u, *u, opts);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  // Triangular on [0, 2]: mean 1, variance 1/6, Cdf(1) = 0.5,
  // Cdf(0.5) = 0.125.
  EXPECT_NEAR(sum->Mean(), 1.0, 1e-9);
  EXPECT_NEAR(sum->Variance(), 1.0 / 6.0, 2e-3);
  EXPECT_NEAR(sum->Cdf(1.0), 0.5, 5e-3);
  EXPECT_NEAR(sum->Cdf(0.5), 0.125, 5e-3);
  EXPECT_NEAR(sum->Cdf(1.5), 0.875, 5e-3);
}

TEST(ConvolutionTest, MeanIsExactVarianceNearExact) {
  // Learned histograms of two different shapes.
  Rng rng(1);
  auto a_sample = stats::SampleMany(
      5000, [&] { return stats::SampleGamma(rng, 2.0, 2.0); });
  auto b_sample = stats::SampleMany(
      5000, [&] { return stats::SampleNormal(rng, 10.0, 2.0); });
  dist::HistogramLearnOptions hopts;
  hopts.bin_count = 24;
  auto a = LearnHistogram(a_sample, hopts);
  auto b = LearnHistogram(b_sample, hopts);
  ASSERT_TRUE(a.ok() && b.ok());
  const auto& ha = static_cast<const HistogramDist&>(*a->distribution);
  const auto& hb = static_cast<const HistogramDist&>(*b->distribution);

  auto sum = ConvolveHistograms(ha, hb);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(sum->Mean(), ha.Mean() + hb.Mean(), 1e-6);
  EXPECT_NEAR(sum->Variance(), ha.Variance() + hb.Variance(),
              0.05 * (ha.Variance() + hb.Variance()));
}

TEST(ConvolutionTest, MatchesMonteCarloCdf) {
  Rng rng(2);
  auto a = HistogramDist::Make({0.0, 1.0, 3.0}, {0.7, 0.3});
  auto b = HistogramDist::Make({-1.0, 0.0, 2.0}, {0.5, 0.5});
  ASSERT_TRUE(a.ok() && b.ok());
  ConvolveOptions opts;
  opts.output_bins = 60;
  opts.subdivisions = 16;
  auto sum = ConvolveHistograms(*a, *b, opts);
  ASSERT_TRUE(sum.ok());

  constexpr int kDraws = 200000;
  std::vector<double> mc;
  mc.reserve(kDraws);
  for (int i = 0; i < kDraws; ++i) {
    mc.push_back(a->Sample(rng) + b->Sample(rng));
  }
  std::sort(mc.begin(), mc.end());
  for (double q : {-0.5, 0.5, 1.5, 2.5, 3.5, 4.5}) {
    const double mc_cdf =
        static_cast<double>(std::upper_bound(mc.begin(), mc.end(), q) -
                            mc.begin()) /
        kDraws;
    EXPECT_NEAR(sum->Cdf(q), mc_cdf, 0.02) << "q=" << q;
  }
}

TEST(ConvolutionTest, Options) {
  auto u = HistogramDist::Make({0.0, 1.0}, {1.0});
  ASSERT_TRUE(u.ok());
  ConvolveOptions bad;
  bad.subdivisions = 0;
  EXPECT_TRUE(
      ConvolveHistograms(*u, *u, bad).status().IsInvalidArgument());
  ConvolveOptions fixed;
  fixed.output_bins = 7;
  auto sum = ConvolveHistograms(*u, *u, fixed);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->bin_count(), 7u);
}

TEST(ConvolutionTest, MeanExactEvenWithMassAtSupportEdges) {
  // Regression for the boundary clamp: out-of-hull deposits used to be
  // dumped whole into the edge bins, shifting the mean inward. Mass
  // concentrated in narrow edge bins maximizes the old error; on the
  // midpoint-spanning grid the mean stays exact to rounding.
  auto a = HistogramDist::Make({0.0, 0.01, 9.99, 10.0}, {0.5, 0.0, 0.5});
  auto b = HistogramDist::Make({-5.0, -4.99, 4.99, 5.0}, {0.4, 0.2, 0.4});
  ASSERT_TRUE(a.ok() && b.ok());
  ConvolveOptions opts;
  opts.output_bins = 32;
  opts.subdivisions = 8;
  auto sum = ConvolveHistograms(*a, *b, opts);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_NEAR(sum->Mean(), a->Mean() + b->Mean(), 1e-9);
  // All mass accounted for (nothing clamped away).
  double total = 0.0;
  for (double p : sum->probs()) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ConvolutionTest, RejectsNonFiniteSupportEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  auto finite = HistogramDist::Make({0.0, 1.0}, {1.0});
  auto open = HistogramDist::Make({0.0, 1.0, inf}, {0.5, 0.5});
  ASSERT_TRUE(finite.ok() && open.ok());
  EXPECT_TRUE(ConvolveHistograms(*open, *finite)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ConvolveHistograms(*finite, *open)
                  .status()
                  .IsInvalidArgument());
}


// Pins the exact IEEE-754 bits of a convolution whose 64 point masses
// (16 bins x 4 subdivisions) split into several deposit chunks, so any
// change to the chunked deposit or to the chunk-order merge shows here.
TEST(ConvolutionTest, MultiChunkDepositBitsArePinned) {
  std::vector<double> x_edges, x_probs, y_edges, y_probs;
  for (int i = 0; i <= 16; ++i) {
    x_edges.push_back(0.37 * i + (i % 3) * 0.011);
  }
  for (int i = 0; i < 16; ++i) x_probs.push_back(1.0 + (i * 7) % 5);
  for (int i = 0; i <= 12; ++i) {
    y_edges.push_back(-2.0 + 0.91 * i + (i % 4) * 0.003);
  }
  for (int i = 0; i < 12; ++i) y_probs.push_back(1.0 / (1.0 + i));
  double x_total = 0.0, y_total = 0.0;
  for (double p : x_probs) x_total += p;
  for (double p : y_probs) y_total += p;
  for (double& p : x_probs) p /= x_total;
  for (double& p : y_probs) p /= y_total;
  auto x = HistogramDist::Make(x_edges, x_probs);
  auto y = HistogramDist::Make(y_edges, y_probs);
  ASSERT_TRUE(x.ok() && y.ok());
  ConvolveOptions opts;
  opts.output_bins = 8;
  opts.subdivisions = 4;
  auto sum = ConvolveHistograms(*x, *y, opts);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();

  const std::vector<uint64_t> edge_bits = {
      0xc009a10f819bf0c9ULL, 0xbfe97bc1f9903cdcULL, 0x3ff9c65d09a7a4b6ULL,
      0x401012a6c405d9f6ULL, 0x4019b3b645a1cac0ULL, 0x4021aa62e39eddc4ULL,
      0x40267aeaa46cd629ULL, 0x402b4b72653ace8dULL, 0x40300dfd13046379ULL};
  const std::vector<uint64_t> prob_bits = {
      0x3fa68d608cafb2cbULL, 0x3fcbc25000b89f65ULL, 0x3fd35d8cdea62330ULL,
      0x3fcab9aaff044c4cULL, 0x3fbe573fe5063626ULL, 0x3fb2cb351a72c30cULL,
      0x3fa02405abf5bf17ULL, 0x3f716ae6a21e9bb9ULL};
  ASSERT_EQ(sum->edges().size(), edge_bits.size());
  ASSERT_EQ(sum->probs().size(), prob_bits.size());
  for (size_t i = 0; i < edge_bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(sum->edges()[i]), edge_bits[i])
        << "edge " << i;
  }
  for (size_t i = 0; i < prob_bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(sum->probs()[i]), prob_bits[i])
        << "prob " << i;
  }
}

}  // namespace
}  // namespace dist
}  // namespace ausdb
