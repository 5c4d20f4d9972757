#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/dist/empirical.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/dist/learner.h"
#include "src/expr/analyzer.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"
#include "src/hypothesis/coupled_tests.h"
#include "src/hypothesis/significance_predicates.h"

namespace ausdb {
namespace expr {
namespace {

using dist::RandomVar;

class ExprEvalTest : public ::testing::Test {
 protected:
  ExprEvalTest() {
    names_ = {"a", "b", "g1", "g2", "s"};
    values_.emplace_back(2.0);                     // a: certain double
    values_.emplace_back(3.0);                     // b: certain double
    values_.push_back(GaussianVar(10.0, 4.0, 20)); // g1
    values_.push_back(GaussianVar(5.0, 9.0, 15));  // g2
    values_.emplace_back(std::string("road19"));   // s: string
  }

  static Value GaussianVar(double mean, double var, size_t n) {
    return Value(RandomVar(
        std::make_shared<dist::GaussianDist>(mean, var), n));
  }

  Row row() const { return Row{&names_, &values_}; }

  std::vector<std::string> names_;
  std::vector<Value> values_;
  Evaluator eval_;
};

TEST_F(ExprEvalTest, ValueAccessors) {
  Value v(3.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(*v.AsDouble(), 3.5);
  EXPECT_TRUE(v.AsRandomVar().ok());
  EXPECT_TRUE(v.AsRandomVar()->is_certain());
  Value s(std::string("x"));
  EXPECT_TRUE(s.AsDouble().status().IsTypeError());
  Value null = Value::Null();
  EXPECT_TRUE(null.is_null());
  EXPECT_EQ(null.ToString(), "NULL");
}

TEST_F(ExprEvalTest, RowLookup) {
  auto r = row();
  ASSERT_TRUE(r.Get("a").ok());
  EXPECT_TRUE(r.Get("missing").status().IsNotFound());
}

TEST_F(ExprEvalTest, DeterministicArithmetic) {
  // (a + b) * 2 - 1 = 9
  auto e = Sub(Mul(Add(Col("a"), Col("b")), Lit(2.0)), Lit(1.0));
  auto v = eval_.Evaluate(*e, row());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(*v->AsDouble(), 9.0);
}

TEST_F(ExprEvalTest, DeterministicUnaries) {
  auto e = SqrtAbs(Lit(-16.0));
  EXPECT_DOUBLE_EQ(*eval_.Evaluate(*e, row())->AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(*eval_.Evaluate(*Square(Lit(3.0)), row())->AsDouble(),
                   9.0);
  EXPECT_DOUBLE_EQ(*eval_.Evaluate(*Neg(Col("a")), row())->AsDouble(),
                   -2.0);
  EXPECT_DOUBLE_EQ(*eval_.Evaluate(*Abs(Lit(-7.0)), row())->AsDouble(),
                   7.0);
}

TEST_F(ExprEvalTest, DivisionByZeroDeterministicFails) {
  auto e = Div(Col("a"), Lit(0.0));
  EXPECT_TRUE(eval_.Evaluate(*e, row()).status().IsInvalidArgument());
}

TEST_F(ExprEvalTest, ClosedFormGaussianSum) {
  // (g1 + g2) / 2: Gaussian((10+5)/2, (4+9)/4), df = min(20,15) = 15.
  auto e = Div(Add(Col("g1"), Col("g2")), Lit(2.0));
  auto v = eval_.Evaluate(*e, row());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_random_var());
  const RandomVar rv = *v->random_var();
  EXPECT_EQ(rv.distribution()->kind(), dist::DistributionKind::kGaussian);
  EXPECT_DOUBLE_EQ(rv.Mean(), 7.5);
  EXPECT_DOUBLE_EQ(rv.Variance(), 13.0 / 4.0);
  EXPECT_EQ(rv.sample_size(), 15u);  // Lemma 3
}

TEST_F(ExprEvalTest, ClosedFormHandlesRepeatedColumn) {
  // g1 - g1 = 0 exactly (coefficients cancel) -> deterministic 0.
  auto e = Sub(Col("g1"), Col("g1"));
  auto v = eval_.Evaluate(*e, row());
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_double());
  EXPECT_DOUBLE_EQ(*v->AsDouble(), 0.0);
}

TEST_F(ExprEvalTest, ClosedFormMixedCertain) {
  // g1 + a: Gaussian(12, 4), df = 20.
  auto e = Add(Col("g1"), Col("a"));
  auto v = eval_.Evaluate(*e, row());
  ASSERT_TRUE(v.ok());
  const RandomVar rv = *v->random_var();
  EXPECT_DOUBLE_EQ(rv.Mean(), 12.0);
  EXPECT_DOUBLE_EQ(rv.Variance(), 4.0);
  EXPECT_EQ(rv.sample_size(), 20u);
}

TEST_F(ExprEvalTest, MonteCarloNonlinear) {
  // SQUARE(g1): E = mu^2 + sigma^2 = 104.
  EvalOptions opts;
  opts.mc_samples = 40000;
  Evaluator eval(opts);
  auto e = Square(Col("g1"));
  auto v = eval.Evaluate(*e, row());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const RandomVar rv = *v->random_var();
  EXPECT_EQ(rv.distribution()->kind(), dist::DistributionKind::kEmpirical);
  EXPECT_NEAR(rv.Mean(), 104.0, 2.0);
  EXPECT_EQ(rv.sample_size(), 20u);
  // The Monte Carlo value sequence is retained for the bootstrap.
  ASSERT_NE(rv.raw_sample(), nullptr);
  EXPECT_EQ(rv.raw_sample()->size(), 40000u);
}

TEST_F(ExprEvalTest, MonteCarloSharedColumnCorrelation) {
  // g1 * g1 must equal g1^2, not the product of two independent copies:
  // E[g1^2] = 104, while independent copies would also give 104 mean but
  // different variance: Var[X*Y] (indep) = (mu^2+s^2)^2 - mu^4 vs
  // Var[X^2] = E X^4 - (E X^2)^2 = (3s^4 + 6 mu^2 s^2 + mu^4) - ... .
  // For mu=10, s^2=4: Var[X^2] = 3*16 + 6*100*4 + 10^4 - 104^2 = 1632.
  // Independent: Var = (104)^2... compute: E[X^2 Y^2] = 104^2 so var=
  // 104^2 - 100^2 = 816. Shared-column evaluation must give ~1632.
  EvalOptions opts;
  opts.mc_samples = 60000;
  Evaluator eval(opts);
  auto e = Mul(Col("g1"), Col("g1"));
  auto v = eval.Evaluate(*e, row());
  ASSERT_TRUE(v.ok());
  const RandomVar rv = *v->random_var();
  EXPECT_NEAR(rv.Variance(), 1632.0, 120.0);
}

TEST_F(ExprEvalTest, ForcedMonteCarloMatchesClosedForm) {
  EvalOptions opts;
  opts.prefer_closed_form = false;
  opts.mc_samples = 60000;
  Evaluator mc(opts);
  auto e = Add(Col("g1"), Col("g2"));
  auto v = mc.Evaluate(*e, row());
  ASSERT_TRUE(v.ok());
  const RandomVar rv = *v->random_var();
  EXPECT_EQ(rv.distribution()->kind(), dist::DistributionKind::kEmpirical);
  EXPECT_NEAR(rv.Mean(), 15.0, 0.1);
  EXPECT_NEAR(rv.Variance(), 13.0, 0.5);
  EXPECT_EQ(rv.sample_size(), 15u);
}

TEST_F(ExprEvalTest, StringsRejectedInArithmetic) {
  auto e = Add(Col("s"), Lit(1.0));
  EXPECT_FALSE(eval_.Evaluate(*e, row()).ok());
}

TEST_F(ExprEvalTest, PredicateColumnVsConstantExact) {
  // Pr[g1 > 10] = 0.5 exactly via the CDF fast path.
  auto p = Gt(Col("g1"), Lit(10.0));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->probability, 0.5, 1e-12);
  EXPECT_EQ(out->df_sample_size, 20u);
  EXPECT_FALSE(out->deterministic);
}

TEST_F(ExprEvalTest, PredicateConstantVsColumnFlipped) {
  // 10 < g1 is the same event as g1 > 10.
  auto p = Lt(Lit(10.0), Col("g1"));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->probability, 0.5, 1e-12);
}

TEST_F(ExprEvalTest, PredicateTwoGaussiansClosedForm) {
  // Pr[g1 > g2]: difference is Gaussian(5, 13); Pr[diff > 0] =
  // Phi(5/sqrt(13)) = 0.9172...
  auto p = Gt(Col("g1"), Col("g2"));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->probability, 0.9172, 1e-3);
  EXPECT_EQ(out->df_sample_size, 15u);
}

TEST_F(ExprEvalTest, PredicateDeterministic) {
  auto p = Gt(Col("a"), Lit(1.0));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->probability, 1.0);
  EXPECT_TRUE(out->deterministic);
  EXPECT_EQ(out->df_sample_size, RandomVar::kCertainSampleSize);
}

TEST_F(ExprEvalTest, PredicateStringEquality) {
  auto p = Cmp(CmpOp::kEq, Col("s"), Lit(std::string("road19")));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->probability, 1.0);
  auto p2 = Cmp(CmpOp::kLt, Col("s"), Lit(std::string("zzz")));
  EXPECT_TRUE(eval_.EvaluatePredicate(*p2, row()).status().IsTypeError());
}

TEST_F(ExprEvalTest, LogicalConnectivesIndependence) {
  auto p = And(Gt(Col("g1"), Lit(10.0)), Gt(Col("g2"), Lit(5.0)));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->probability, 0.25, 1e-12);
  EXPECT_EQ(out->df_sample_size, 15u);

  auto q = Or(Gt(Col("g1"), Lit(10.0)), Gt(Col("g2"), Lit(5.0)));
  auto out2 = eval_.EvaluatePredicate(*q, row());
  ASSERT_TRUE(out2.ok());
  EXPECT_NEAR(out2->probability, 0.75, 1e-12);
}

TEST_F(ExprEvalTest, NotPredicate) {
  auto p = Not(Gt(Col("g1"), Lit(10.0)));
  auto out = eval_.EvaluatePredicate(*p, row());
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->probability, 0.5, 1e-12);
}

TEST_F(ExprEvalTest, ProbOfEvaluatesToDouble) {
  auto e = ProbOf(Gt(Col("g1"), Lit(10.0)));
  auto v = eval_.Evaluate(*e, row());
  ASSERT_TRUE(v.ok());
  EXPECT_NEAR(*v->AsDouble(), 0.5, 1e-12);
}

TEST_F(ExprEvalTest, ProbThresholdPredicate) {
  // The paper's "Delay > 50 PROB 2/3" form.
  auto yes = ProbThreshold(Gt(Col("g1"), Lit(8.0)), 0.66);
  auto out = eval_.EvaluatePredicate(*yes, row());
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->probability, 1.0);  // Pr[g1>8] = 0.841 >= 0.66
  EXPECT_TRUE(out->deterministic);
  EXPECT_EQ(out->df_sample_size, 20u);

  auto no = ProbThreshold(Gt(Col("g1"), Lit(12.0)), 0.66);
  auto out2 = eval_.EvaluatePredicate(*no, row());
  ASSERT_TRUE(out2.ok());
  EXPECT_DOUBLE_EQ(out2->probability, 0.0);
}

TEST_F(ExprEvalTest, MTestPredicate) {
  // g1 has mean 10, sd 2, n 20: E > 8 is significant at 0.05.
  auto t = MTest(Col("g1"), hypothesis::TestOp::kGreater, 8.0, 0.05);
  auto out = eval_.EvaluatePredicate(*t, row());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out->significance, hypothesis::TestOutcome::kTrue);
  // E > 10.5 is not.
  auto t2 = MTest(Col("g1"), hypothesis::TestOp::kGreater, 10.5, 0.05);
  auto out2 = eval_.EvaluatePredicate(*t2, row());
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(*out2->significance, hypothesis::TestOutcome::kFalse);
}

TEST_F(ExprEvalTest, CoupledMTestProducesUnsure) {
  // Borderline: c very close to the mean with a small sample.
  auto t = MTest(Col("g1"), hypothesis::TestOp::kGreater, 9.9, 0.05, 0.05);
  auto out = eval_.EvaluatePredicate(*t, row());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out->significance, hypothesis::TestOutcome::kUnsure);
}

TEST_F(ExprEvalTest, MdTestPredicate) {
  auto t = MdTest(Col("g1"), Col("g2"), hypothesis::TestOp::kGreater, 0.0,
                  0.05);
  auto out = eval_.EvaluatePredicate(*t, row());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out->significance, hypothesis::TestOutcome::kTrue);
  EXPECT_EQ(out->df_sample_size, 15u);
}

TEST_F(ExprEvalTest, PTestPredicate) {
  // Pr[g1 > 9] = Phi(0.5) = 0.69; tau = 0.5, n = 20 -> z = 1.72,
  // p ~0.043 < 0.05: significant.
  auto t = PTest(Gt(Col("g1"), Lit(9.0)), 0.5, 0.05);
  auto out = eval_.EvaluatePredicate(*t, row());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out->significance, hypothesis::TestOutcome::kTrue);
  // tau = 0.65: p_hat 0.69 is too close for n=20.
  auto t2 = PTest(Gt(Col("g1"), Lit(9.0)), 0.65, 0.05);
  auto out2 = eval_.EvaluatePredicate(*t2, row());
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(*out2->significance, hypothesis::TestOutcome::kFalse);
}

TEST_F(ExprEvalTest, PTestOverDeterministicDataFails) {
  auto t = PTest(Gt(Col("a"), Lit(1.0)), 0.5, 0.05);
  EXPECT_TRUE(
      eval_.EvaluatePredicate(*t, row()).status().IsInsufficientData());
}

TEST_F(ExprEvalTest, AccuracyProjection) {
  auto e = MeanCi(Col("g1"), 0.9);
  auto v = eval_.Evaluate(*e, row());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_string());
  // Interval should be roughly 10 +/- 1.73*2/sqrt(20) = 10 +/- 0.77.
  EXPECT_NE(v->string_value()->find("@90%"), std::string::npos);
}

TEST_F(ExprEvalTest, UncertainComparisonAsValueFails) {
  auto e = Gt(Col("g1"), Lit(10.0));
  EXPECT_TRUE(eval_.Evaluate(*e, row()).status().IsTypeError());
}

TEST(AnalyzerTest, CollectColumnsDedupes) {
  auto e = Add(Mul(Col("x"), Col("y")), Col("x"));
  const auto cols = CollectColumns(*e);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "x");
  EXPECT_EQ(cols[1], "y");
}

TEST(AnalyzerTest, ExtractLinearBasics) {
  // 2*x - y/4 + 3
  auto e = Add(Sub(Mul(Lit(2.0), Col("x")), Div(Col("y"), Lit(4.0))),
               Lit(3.0));
  auto lin = ExtractLinear(*e);
  ASSERT_TRUE(lin.has_value());
  EXPECT_DOUBLE_EQ(lin->coefficients.at("x"), 2.0);
  EXPECT_DOUBLE_EQ(lin->coefficients.at("y"), -0.25);
  EXPECT_DOUBLE_EQ(lin->constant, 3.0);
}

TEST(AnalyzerTest, ExtractLinearRejectsNonlinear) {
  EXPECT_FALSE(ExtractLinear(*Mul(Col("x"), Col("y"))).has_value());
  EXPECT_FALSE(ExtractLinear(*Div(Lit(1.0), Col("x"))).has_value());
  EXPECT_FALSE(ExtractLinear(*Square(Col("x"))).has_value());
  EXPECT_FALSE(ExtractLinear(*SqrtAbs(Col("x"))).has_value());
}

TEST(AnalyzerTest, ExtractLinearConstantFolding) {
  // (2 + 3) * x is linear with coefficient 5.
  auto e = Mul(Add(Lit(2.0), Lit(3.0)), Col("x"));
  auto lin = ExtractLinear(*e);
  ASSERT_TRUE(lin.has_value());
  EXPECT_DOUBLE_EQ(lin->coefficients.at("x"), 5.0);
}

TEST(AnalyzerTest, IsConstant) {
  EXPECT_TRUE(IsConstant(*Add(Lit(1.0), Lit(2.0))));
  EXPECT_FALSE(IsConstant(*Add(Lit(1.0), Col("x"))));
}

TEST(ExprToStringTest, RendersReadably) {
  auto e = ProbThreshold(Gt(Col("Delay"), Lit(50.0)), 0.66);
  EXPECT_EQ(e->ToString(), "(Delay > 50) PROB >= 0.66");
  auto t = MTest(Col("temp"), hypothesis::TestOp::kGreater, 97.0, 0.05);
  EXPECT_EQ(t->ToString(), "MTEST(temp, '>', 97, 0.05)");
}

// Reference decision of a single-alpha or coupled significance predicate:
// exact p-values against alpha.
hypothesis::TestOutcome ReferenceOutcome(
    const std::function<double(hypothesis::TestOp)>& p_value,
    hypothesis::TestOp op, double alpha, std::optional<double> alpha2) {
  if (!alpha2.has_value()) {
    return p_value(op) <= alpha ? hypothesis::TestOutcome::kTrue
                                : hypothesis::TestOutcome::kFalse;
  }
  auto outcome = hypothesis::CoupledTests(
      [&](hypothesis::TestOp test_op, double a) -> Result<bool> {
        return p_value(test_op) <= a;
      },
      op, alpha, *alpha2);
  EXPECT_TRUE(outcome.ok());
  return *outcome;
}

hypothesis::SampleStatistics GenericStatistics(Evaluator& eval,
                                               const std::string& column,
                                               const Row& row) {
  // x + 0 is linear, so it takes EvalNumeric's closed-form path: the
  // generic evaluation of a bare column.
  auto v = eval.Evaluate(*Add(Col(column), Lit(0.0)), row);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  auto rv = v->AsRandomVar();
  EXPECT_TRUE(rv.ok());
  auto s = hypothesis::StatisticsOf(*rv);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return *s;
}

TEST(SignificanceFastPathTest, BareGaussianColumnMatchesGenericPath) {
  const std::vector<std::string> names = {"x", "y"};
  const hypothesis::TestOp ops[] = {hypothesis::TestOp::kGreater,
                                    hypothesis::TestOp::kLess,
                                    hypothesis::TestOp::kNotEqual};
  const std::optional<double> second[] = {std::nullopt, 0.05, 0.2};
  Rng rng(0xFA57);
  Evaluator eval;
  for (int i = 0; i < 400; ++i) {
    const auto gaussian = [&rng] {
      const size_t n = 2 + rng.NextBelow(60);
      return Value(RandomVar(std::make_shared<dist::GaussianDist>(
                                 rng.NextDouble(8.0, 12.0),
                                 rng.NextDouble(0.01, 9.0)),
                             n));
    };
    const std::vector<Value> values = {gaussian(), gaussian()};
    const Row row{&names, &values};
    const hypothesis::SampleStatistics sx = GenericStatistics(eval, "x", row);
    const hypothesis::SampleStatistics sy = GenericStatistics(eval, "y", row);
    const double c = rng.NextDouble(9.0, 11.0);
    const double alpha = rng.NextDouble(0.005, 0.2);
    const hypothesis::TestOp op = ops[rng.NextBelow(3)];
    const std::optional<double> alpha2 = second[rng.NextBelow(3)];

    auto m = eval.EvaluatePredicate(*MTest(Col("x"), op, c, alpha, alpha2),
                                    row);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_EQ(*m->significance,
              ReferenceOutcome(
                  [&](hypothesis::TestOp o) {
                    return *hypothesis::MeanTestPValue(sx, o, c);
                  },
                  op, alpha, alpha2));
    EXPECT_EQ(m->df_sample_size, sx.n);
    auto generic = eval.EvaluatePredicate(
        *MTest(Add(Col("x"), Lit(0.0)), op, c, alpha, alpha2), row);
    ASSERT_TRUE(generic.ok());
    EXPECT_EQ(*m->significance, *generic->significance);

    const double d = c - 10.0;
    auto md = eval.EvaluatePredicate(
        *MdTest(Col("x"), Col("y"), op, d, alpha, alpha2), row);
    ASSERT_TRUE(md.ok()) << md.status().ToString();
    EXPECT_EQ(*md->significance,
              ReferenceOutcome(
                  [&](hypothesis::TestOp o) {
                    return *hypothesis::MeanDifferenceTestPValue(sx, sy, o,
                                                                 d);
                  },
                  op, alpha, alpha2));
    EXPECT_EQ(md->df_sample_size, std::min(sx.n, sy.n));
  }
}

TEST(SignificanceFastPathTest, BareGaussianColumnKeepsGenericErrors) {
  const std::vector<std::string> names = {"one", "unbounded", "a"};
  const std::vector<Value> values = {
      Value(RandomVar(std::make_shared<dist::GaussianDist>(1.0, 1.0), 1)),
      Value(RandomVar(std::make_shared<dist::GaussianDist>(1.0, 1.0),
                      RandomVar::kCertainSampleSize)),
      Value(NAN)};
  const Row row{&names, &values};
  Evaluator eval;
  for (const char* column : {"one", "unbounded", "missing"}) {
    auto fast = eval.EvaluatePredicate(
        *MTest(Col(column), hypothesis::TestOp::kGreater, 0.0, 0.05), row);
    auto generic = eval.EvaluatePredicate(
        *MTest(Add(Col(column), Lit(0.0)), hypothesis::TestOp::kGreater,
               0.0, 0.05),
        row);
    ASSERT_FALSE(fast.ok());
    EXPECT_EQ(fast.status().ToString(), generic.status().ToString());
  }
}

TEST(SignificanceFastPathTest, NanCertainOperandIsInvalidArgument) {
  // A closed-form operand over a NaN certain column gives a NaN mean.
  const std::vector<std::string> names = {"g", "a"};
  const std::vector<Value> values = {
      Value(RandomVar(std::make_shared<dist::GaussianDist>(10.0, 4.0), 20)),
      Value(NAN)};
  const Row row{&names, &values};
  Evaluator eval;
  auto m = eval.EvaluatePredicate(
      *MTest(Add(Col("g"), Col("a")), hypothesis::TestOp::kGreater, 10.0,
             0.05, 0.05),
      row);
  EXPECT_TRUE(m.status().IsInvalidArgument()) << m.status().ToString();
  auto md = eval.EvaluatePredicate(
      *MdTest(Add(Col("g"), Col("a")), Col("g"),
              hypothesis::TestOp::kNotEqual, 0.0, 0.05),
      row);
  EXPECT_TRUE(md.status().IsInvalidArgument()) << md.status().ToString();
}

TEST(SignificanceFastPathTest, HistogramColumnKeepsMonteCarloAndRngState) {
  const std::vector<std::string> names = {"h1", "h2"};
  const auto histogram = [](double shift) {
    auto h = dist::HistogramDist::Make({shift, shift + 1.0, shift + 3.0},
                                       {0.4, 0.6});
    EXPECT_TRUE(h.ok());
    return Value(RandomVar(
        std::make_shared<dist::HistogramDist>(std::move(*h)), 25));
  };
  const std::vector<Value> values = {histogram(9.0), histogram(8.5)};
  const Row row{&names, &values};
  EvalOptions generic_options;
  generic_options.prefer_closed_form = false;
  generic_options.mc_samples = 300;
  EvalOptions options;
  options.mc_samples = 300;
  Evaluator fast(options);
  Evaluator generic(generic_options);
  for (double c : {9.5, 10.0, 10.3, 10.6}) {
    for (auto op : {hypothesis::TestOp::kGreater, hypothesis::TestOp::kLess,
                    hypothesis::TestOp::kNotEqual}) {
      for (const ExprPtr& e :
           {MTest(Col("h1"), op, c, 0.05), MTest(Col("h1"), op, c, 0.05, 0.1),
            MdTest(Col("h1"), Col("h2"), op, c - 10.0, 0.05, 0.05)}) {
        auto a = fast.EvaluatePredicate(*e, row);
        auto b = generic.EvaluatePredicate(*e, row);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(*a->significance, *b->significance);
        EXPECT_EQ(a->df_sample_size, b->df_sample_size);
      }
    }
  }
  // Both evaluators drew the same Monte Carlo samples, so the next
  // evaluation's sample is byte-identical.
  auto next_a = fast.Evaluate(*Square(Col("h1")), row);
  auto next_b = generic.Evaluate(*Square(Col("h1")), row);
  ASSERT_TRUE(next_a.ok() && next_b.ok());
  const auto raw_a = next_a->random_var()->raw_sample();
  const auto raw_b = next_b->random_var()->raw_sample();
  ASSERT_TRUE(raw_a != nullptr && raw_b != nullptr);
  ASSERT_EQ(raw_a->size(), raw_b->size());
  EXPECT_EQ(std::memcmp(raw_a->data(), raw_b->data(),
                        raw_a->size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace expr
}  // namespace ausdb
