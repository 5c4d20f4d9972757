#include "src/dist/distribution.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/dist/discrete.h"
#include "src/dist/empirical.h"
#include "src/dist/gaussian.h"
#include "src/stats/descriptive.h"

namespace ausdb {
namespace dist {
namespace {

TEST(PointDistTest, Basics) {
  PointDist d(5.0);
  EXPECT_EQ(d.kind(), DistributionKind::kPoint);
  EXPECT_DOUBLE_EQ(d.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(4.9), 0.0);
  EXPECT_DOUBLE_EQ(d.Cdf(5.0), 1.0);
  EXPECT_DOUBLE_EQ(d.ProbLess(5.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ProbGreater(5.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ProbGreater(4.0), 1.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(d.Sample(rng), 5.0);
  EXPECT_EQ(d.ToString(), "Point(5)");
}

TEST(GaussianDistTest, MomentsAndCdf) {
  GaussianDist g(10.0, 4.0);
  EXPECT_DOUBLE_EQ(g.Mean(), 10.0);
  EXPECT_DOUBLE_EQ(g.Variance(), 4.0);
  EXPECT_DOUBLE_EQ(g.StdDev(), 2.0);
  EXPECT_NEAR(g.Cdf(10.0), 0.5, 1e-12);
  EXPECT_NEAR(g.Cdf(12.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(g.ProbGreater(10.0), 0.5, 1e-12);
}

TEST(GaussianDistTest, QuantileInvertsCdf) {
  GaussianDist g(-3.0, 2.5);
  for (double p : {0.01, 0.2, 0.5, 0.8, 0.99}) {
    EXPECT_NEAR(g.Cdf(g.Quantile(p)), p, 1e-10);
  }
}

TEST(GaussianDistTest, PdfIntegratesToCdfDerivative) {
  GaussianDist g(0.0, 1.0);
  const double h = 1e-5;
  for (double x : {-2.0, -0.5, 0.0, 1.0, 2.5}) {
    const double numeric = (g.Cdf(x + h) - g.Cdf(x - h)) / (2.0 * h);
    EXPECT_NEAR(g.Pdf(x), numeric, 1e-6);
  }
}

TEST(GaussianDistTest, ZeroVarianceBehavesAsPoint) {
  GaussianDist g(3.0, 0.0);
  EXPECT_DOUBLE_EQ(g.Cdf(2.9), 0.0);
  EXPECT_DOUBLE_EQ(g.Cdf(3.0), 1.0);
}

TEST(GaussianDistTest, SampleMomentsMatch) {
  GaussianDist g(7.0, 9.0);
  Rng rng(99);
  stats::MomentAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.Add(g.Sample(rng));
  EXPECT_NEAR(acc.mean(), 7.0, 0.05);
  EXPECT_NEAR(acc.SampleVariance(), 9.0, 0.2);
}

TEST(DiscreteDistTest, BasicsAndMergedDuplicates) {
  auto r = DiscreteDist::Make({2.0, 1.0, 2.0}, {0.25, 0.5, 0.25});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const DiscreteDist& d = *r;
  ASSERT_EQ(d.values().size(), 2u);  // duplicates merged
  EXPECT_DOUBLE_EQ(d.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(d.ProbEquals(2.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Mean(), 1.5);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.25);
  EXPECT_DOUBLE_EQ(d.Cdf(1.0), 0.5);
  EXPECT_DOUBLE_EQ(d.Cdf(1.5), 0.5);
  EXPECT_DOUBLE_EQ(d.ProbLess(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ProbLess(2.0), 0.5);
}

TEST(DiscreteDistTest, RejectsBadInput) {
  EXPECT_FALSE(DiscreteDist::Make({}, {}).ok());
  EXPECT_FALSE(DiscreteDist::Make({1.0}, {0.5, 0.5}).ok());
  EXPECT_FALSE(DiscreteDist::Make({1.0, 2.0}, {0.6, 0.6}).ok());
  EXPECT_FALSE(DiscreteDist::Make({1.0, 2.0}, {-0.1, 1.1}).ok());
}

TEST(DiscreteDistTest, BernoulliFactory) {
  auto r = MakeBernoulli(0.3);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->Mean(), 0.3);
  EXPECT_NEAR(r->Variance(), 0.21, 1e-12);
  EXPECT_FALSE(MakeBernoulli(1.5).ok());
}

TEST(DiscreteDistTest, SampleFrequenciesMatch) {
  auto d = DiscreteDist::Make({1.0, 2.0, 3.0}, {0.2, 0.3, 0.5});
  ASSERT_TRUE(d.ok());
  Rng rng(12);
  int counts[3] = {0, 0, 0};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<int>(d->Sample(rng)) - 1];
  }
  EXPECT_NEAR(counts[0] / double{kDraws}, 0.2, 0.01);
  EXPECT_NEAR(counts[1] / double{kDraws}, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / double{kDraws}, 0.5, 0.01);
}

TEST(EmpiricalDistTest, MomentsAreSampleMoments) {
  auto e = EmpiricalDist::Make({3.0, 1.0, 2.0, 2.0});
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->Mean(), 2.0);
  EXPECT_DOUBLE_EQ(e->Variance(), 0.5);  // population variance
  EXPECT_EQ(e->size(), 4u);
  EXPECT_DOUBLE_EQ(e->Cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(e->ProbLess(2.0), 0.25);
  EXPECT_DOUBLE_EQ(e->Quantile(0.5), 2.0);
}

TEST(EmpiricalDistTest, SamplesComeFromSupport) {
  auto e = EmpiricalDist::Make({1.0, 5.0, 9.0});
  ASSERT_TRUE(e.ok());
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double x = e->Sample(rng);
    EXPECT_TRUE(x == 1.0 || x == 5.0 || x == 9.0);
  }
}

TEST(EmpiricalDistTest, RejectsEmpty) {
  EXPECT_TRUE(EmpiricalDist::Make({}).status().IsInvalidArgument());
}

TEST(DistributionTest, KindNames) {
  EXPECT_EQ(DistributionKindToString(DistributionKind::kGaussian),
            "gaussian");
  EXPECT_EQ(DistributionKindToString(DistributionKind::kEmpirical),
            "empirical");
}

}  // namespace
}  // namespace dist
}  // namespace ausdb
