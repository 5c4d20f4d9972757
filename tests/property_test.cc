// Property-style parameterized suites: invariants that must hold across
// sweeps of confidence levels, random expressions and random seeds.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/accuracy/mean_variance_ci.h"
#include "src/accuracy/proportion_ci.h"
#include "src/dist/learner.h"
#include "src/expr/analyzer.h"
#include "src/expr/evaluator.h"
#include "src/hypothesis/coupled_tests.h"
#include "src/query/parser.h"
#include "src/stats/random_variates.h"
#include "src/workload/random_query.h"

namespace ausdb {
namespace {

// ---------------------------------------------------------------------
// Coverage properties across confidence levels.

class ConfidenceSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ConfidenceSweepTest, MeanIntervalCoverageTracksConfidence) {
  const double confidence = GetParam();
  Rng rng(1000 + static_cast<int>(confidence * 100));
  constexpr int kTrials = 3000;
  int hits = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto obs = stats::SampleMany(
        25, [&] { return stats::SampleNormal(rng, 3.0, 2.0); });
    auto ci = accuracy::MeanIntervalFromSample(obs, confidence);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(3.0)) ++hits;
  }
  const double coverage = static_cast<double>(hits) / kTrials;
  // Nominal within 3 standard errors of the binomial.
  const double se =
      std::sqrt(confidence * (1.0 - confidence) / kTrials);
  EXPECT_NEAR(coverage, confidence, 3.5 * se + 0.005);
}

TEST_P(ConfidenceSweepTest, IntervalsNestByConfidence) {
  const double confidence = GetParam();
  // A higher-confidence interval must contain a lower-confidence one for
  // the same sample.
  const std::vector<double> obs = {4.2, 5.1, 3.8, 6.0, 4.9,
                                   5.5, 4.4, 5.8, 4.0, 5.2};
  auto lo_ci = accuracy::MeanIntervalFromSample(obs, confidence);
  auto hi_ci = accuracy::MeanIntervalFromSample(
      obs, std::min(0.995, confidence + 0.04));
  ASSERT_TRUE(lo_ci.ok() && hi_ci.ok());
  EXPECT_LE(hi_ci->lo, lo_ci->lo + 1e-12);
  EXPECT_GE(hi_ci->hi, lo_ci->hi - 1e-12);

  auto lo_var = accuracy::VarianceIntervalFromSample(obs, confidence);
  auto hi_var = accuracy::VarianceIntervalFromSample(
      obs, std::min(0.995, confidence + 0.04));
  ASSERT_TRUE(lo_var.ok() && hi_var.ok());
  EXPECT_LE(hi_var->lo, lo_var->lo + 1e-12);
  EXPECT_GE(hi_var->hi, lo_var->hi - 1e-12);

  auto lo_p = accuracy::ProportionInterval(0.3, 40, confidence);
  auto hi_p = accuracy::ProportionInterval(
      0.3, 40, std::min(0.995, confidence + 0.04));
  ASSERT_TRUE(lo_p.ok() && hi_p.ok());
  EXPECT_LE(hi_p->lo, lo_p->lo + 1e-12);
  EXPECT_GE(hi_p->hi, lo_p->hi - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Levels, ConfidenceSweepTest,
                         ::testing::Values(0.8, 0.9, 0.95, 0.99),
                         [](const auto& info) {
                           return std::string("c").append(std::to_string(
                               static_cast<int>(info.param * 100)));
                         });

// ---------------------------------------------------------------------
// Lemma 3 propagation invariant over random expressions.

class RandomExpressionTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpressionTest, DfSampleSizeIsMinOverInputs) {
  Rng rng(7000 + GetParam());
  workload::RandomQueryOptions opts;
  opts.num_columns = 3;
  opts.num_operators = 5;
  const auto q = GenerateRandomQuery(rng, opts);

  // Assign distinct sample sizes so the minimum is unambiguous.
  const std::vector<size_t> sizes = {17, 11, 23};
  std::vector<expr::Value> row;
  for (size_t i = 0; i < q.families.size(); ++i) {
    auto sample = workload::SampleFamilyMany(rng, q.families[i], sizes[i]);
    auto learned = dist::LearnEmpirical(sample);
    ASSERT_TRUE(learned.ok());
    row.emplace_back(dist::RandomVar(*learned));
  }
  expr::EvalOptions eopts;
  eopts.mc_samples = 200;
  eopts.seed = 42 + GetParam();
  expr::Evaluator eval(eopts);
  auto v = eval.Evaluate(*q.expression,
                         expr::Row{&q.column_names, &row});
  ASSERT_TRUE(v.ok()) << q.expression->ToString() << ": "
                      << v.status().ToString();
  ASSERT_TRUE(v->is_random_var());

  // Lemma 3: n_out = min over referenced columns' sizes.
  const auto used = expr::CollectColumns(*q.expression);
  size_t expected = dist::RandomVar::kCertainSampleSize;
  for (const auto& name : used) {
    for (size_t i = 0; i < q.column_names.size(); ++i) {
      if (q.column_names[i] == name) {
        expected = std::min(expected, sizes[i]);
      }
    }
  }
  EXPECT_EQ(v->random_var()->sample_size(), expected)
      << q.expression->ToString();
}

TEST_P(RandomExpressionTest, ExpressionToStringReparses) {
  Rng rng(8000 + GetParam());
  workload::RandomQueryOptions opts;
  opts.num_columns = 2;
  opts.num_operators = 4;
  const auto q = GenerateRandomQuery(rng, opts);
  const std::string rendered = q.expression->ToString();
  auto reparsed = query::ParseExpression(rendered);
  ASSERT_TRUE(reparsed.ok())
      << rendered << ": " << reparsed.status().ToString();
  // Rendering must reach a fixpoint after one round trip.
  EXPECT_EQ((*reparsed)->ToString(), rendered);
}

TEST_P(RandomExpressionTest, EvaluationIsDeterministicPerSeed) {
  Rng rng(9000 + GetParam());
  workload::RandomQueryOptions opts;
  opts.num_columns = 2;
  opts.num_operators = 3;
  const auto q = GenerateRandomQuery(rng, opts);
  std::vector<expr::Value> row;
  for (workload::Family f : q.families) {
    auto sample = workload::SampleFamilyMany(rng, f, 15);
    auto learned = dist::LearnEmpirical(sample);
    row.emplace_back(dist::RandomVar(*learned));
  }
  expr::EvalOptions eopts;
  eopts.mc_samples = 300;
  eopts.seed = 5;
  expr::Evaluator a(eopts), b(eopts);
  auto va = a.Evaluate(*q.expression, expr::Row{&q.column_names, &row});
  auto vb = b.Evaluate(*q.expression, expr::Row{&q.column_names, &row});
  ASSERT_TRUE(va.ok() && vb.ok());
  if (va->is_random_var()) {
    EXPECT_DOUBLE_EQ(va->random_var()->Mean(), vb->random_var()->Mean());
    EXPECT_DOUBLE_EQ(va->random_var()->Variance(),
                     vb->random_var()->Variance());
  } else {
    EXPECT_DOUBLE_EQ(*va->AsDouble(), *vb->AsDouble());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpressionTest,
                         ::testing::Range(0, 25));

// ---------------------------------------------------------------------
// Coupled-tests consistency with the underlying single tests.

class CoupledConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(CoupledConsistencyTest, AgreesWithSingleTests) {
  Rng rng(11000 + GetParam());
  const auto obs = stats::SampleMany(
      20, [&] { return stats::SampleNormal(rng, 5.0, 2.0); });
  auto learned = dist::LearnGaussian(obs);
  dist::RandomVar x(*learned);
  const double c = rng.NextDouble(3.0, 7.0);

  auto coupled = hypothesis::CoupledMTest(
      x, hypothesis::TestOp::kGreater, c, 0.05, 0.05);
  auto forward = hypothesis::MTest(x, hypothesis::TestOp::kGreater, c,
                                   0.05);
  auto inverse =
      hypothesis::MTest(x, hypothesis::TestOp::kLess, c, 0.05);
  ASSERT_TRUE(coupled.ok() && forward.ok() && inverse.ok());

  switch (*coupled) {
    case hypothesis::TestOutcome::kTrue:
      EXPECT_TRUE(*forward);
      break;
    case hypothesis::TestOutcome::kFalse:
      EXPECT_FALSE(*forward);
      EXPECT_TRUE(*inverse);
      break;
    case hypothesis::TestOutcome::kUnsure:
      EXPECT_FALSE(*forward);
      EXPECT_FALSE(*inverse);
      break;
  }
}

TEST_P(CoupledConsistencyTest, TighterAlphaNeverFlipsDecision) {
  // Shrinking alpha can only move decisions toward UNSURE, never flip
  // TRUE <-> FALSE.
  Rng rng(12000 + GetParam());
  const auto obs = stats::SampleMany(
      20, [&] { return stats::SampleNormal(rng, 5.0, 2.0); });
  auto learned = dist::LearnGaussian(obs);
  dist::RandomVar x(*learned);
  const double c = rng.NextDouble(3.0, 7.0);

  auto loose = hypothesis::CoupledMTest(
      x, hypothesis::TestOp::kGreater, c, 0.1, 0.1);
  auto tight = hypothesis::CoupledMTest(
      x, hypothesis::TestOp::kGreater, c, 0.01, 0.01);
  ASSERT_TRUE(loose.ok() && tight.ok());
  if (*tight == hypothesis::TestOutcome::kTrue) {
    EXPECT_EQ(*loose, hypothesis::TestOutcome::kTrue);
  }
  if (*tight == hypothesis::TestOutcome::kFalse) {
    EXPECT_EQ(*loose, hypothesis::TestOutcome::kFalse);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoupledConsistencyTest,
                         ::testing::Range(0, 30));

// ---------------------------------------------------------------------
// Wald/Wilson interval structural properties.

class ProportionSweepTest
    : public ::testing::TestWithParam<std::pair<double, int>> {};

TEST_P(ProportionSweepTest, IntervalContainsPointEstimate) {
  const auto [p, n] = GetParam();
  auto ci = accuracy::ProportionInterval(p, static_cast<size_t>(n), 0.9);
  ASSERT_TRUE(ci.ok());
  // Wilson re-centers, but the observed p stays inside the interval.
  EXPECT_LE(ci->lo, p + 1e-12);
  EXPECT_GE(ci->hi, p - 1e-12);
  EXPECT_GE(ci->lo, 0.0);
  EXPECT_LE(ci->hi, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProportionSweepTest,
    ::testing::Values(std::pair{0.0, 10}, std::pair{0.05, 10},
                      std::pair{0.3, 10}, std::pair{1.0, 10},
                      std::pair{0.01, 100}, std::pair{0.5, 100},
                      std::pair{0.99, 100}, std::pair{0.5, 10000}));

}  // namespace
}  // namespace ausdb
