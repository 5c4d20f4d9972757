#include "src/expr/evaluator.h"

#include <algorithm>
#include <cmath>

#include "src/accuracy/accuracy_info.h"
#include "src/dist/empirical.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/expr/analyzer.h"
#include "src/hypothesis/coupled_tests.h"
#include "src/hypothesis/significance_predicates.h"

namespace ausdb {
namespace expr {

namespace {

using dist::RandomVar;
using hypothesis::TestOutcome;

constexpr size_t kCertain = RandomVar::kCertainSampleSize;

// Probability that (Y cmp 0) holds for the distribution of Y. Point
// masses at 0 matter only for kLe/kGe/kEq/kNe over discrete-flavored
// distributions; Distribution::ProbLess handles them.
double ProbCmpZero(const dist::Distribution& d, CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return d.ProbLess(0.0);
    case CmpOp::kLe:
      return d.Cdf(0.0);
    case CmpOp::kGt:
      return d.ProbGreater(0.0);
    case CmpOp::kGe:
      return 1.0 - d.ProbLess(0.0);
    case CmpOp::kEq:
      return d.Cdf(0.0) - d.ProbLess(0.0);
    case CmpOp::kNe:
      return 1.0 - (d.Cdf(0.0) - d.ProbLess(0.0));
  }
  return 0.0;
}

bool CompareScalars(double a, double b, CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return a != b;
  }
  return false;
}

TestOutcome NotOutcome(TestOutcome o) {
  switch (o) {
    case TestOutcome::kTrue:
      return TestOutcome::kFalse;
    case TestOutcome::kFalse:
      return TestOutcome::kTrue;
    case TestOutcome::kUnsure:
      return TestOutcome::kUnsure;
  }
  return TestOutcome::kUnsure;
}

}  // namespace

Result<const Value*> Row::Get(const std::string& name) const {
  if (names == nullptr || values == nullptr) {
    return Status::Internal("row is not initialized");
  }
  for (size_t i = 0; i < names->size(); ++i) {
    if ((*names)[i] == name) return &(*values)[i];
  }
  return Status::NotFound("column '" + name + "' not found in row");
}

Evaluator::Evaluator(EvalOptions options)
    : options_(options), rng_(options.seed) {}

Result<double> Evaluator::EvalScalar(const Expr& e, const Row& row,
                                     const Substitution* substitution) {
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value();
      return v.AsDouble();
    }
    case ExprKind::kColumnRef: {
      const auto& name = static_cast<const ColumnRefExpr&>(e).name();
      if (substitution != nullptr) {
        const auto it = substitution->find(name);
        if (it != substitution->end()) return it->second;
      }
      AUSDB_ASSIGN_OR_RETURN(const Value* v, row.Get(name));
      if (v->is_random_var()) {
        AUSDB_ASSIGN_OR_RETURN(RandomVar rv, v->random_var());
        if (rv.is_certain()) return rv.certain_value();
        return Status::Internal("uncertain column '" + name +
                                "' reached scalar evaluation unsampled");
      }
      return v->AsDouble();
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op() == UnaryOp::kNot) {
        return Status::TypeError("NOT is a predicate, not a number");
      }
      AUSDB_ASSIGN_OR_RETURN(double x,
                             EvalScalar(*u.operand(), row, substitution));
      switch (u.op()) {
        case UnaryOp::kNegate:
          return -x;
        case UnaryOp::kSqrtAbs:
          return std::sqrt(std::abs(x));
        case UnaryOp::kSquare:
          return x * x;
        case UnaryOp::kAbs:
          return std::abs(x);
        case UnaryOp::kNot:
          break;  // unreachable
      }
      return Status::Internal("unhandled unary op");
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(double lhs,
                             EvalScalar(*b.lhs(), row, substitution));
      AUSDB_ASSIGN_OR_RETURN(double rhs,
                             EvalScalar(*b.rhs(), row, substitution));
      switch (b.op()) {
        case BinaryOp::kAdd:
          return lhs + rhs;
        case BinaryOp::kSub:
          return lhs - rhs;
        case BinaryOp::kMul:
          return lhs * rhs;
        case BinaryOp::kDiv:
          if (rhs == 0.0) {
            if (substitution == nullptr) {
              return Status::InvalidArgument("division by zero");
            }
            // In a Monte Carlo iteration a zero draw is clamped so that a
            // single unlucky sample does not poison the whole sequence.
            rhs = 1e-12;
          }
          return lhs / rhs;
      }
      return Status::Internal("unhandled binary op");
    }
    default:
      return Status::TypeError("expression " + e.ToString() +
                               " is not numeric");
  }
}

Result<Value> Evaluator::EvalNumeric(const Expr& e, const Row& row) {
  const std::vector<std::string> columns = CollectColumns(e);

  // Split referenced columns into certain and uncertain.
  std::vector<std::pair<std::string, RandomVar>> uncertain;
  for (const std::string& name : columns) {
    AUSDB_ASSIGN_OR_RETURN(const Value* v, row.Get(name));
    if (v->is_random_var()) {
      AUSDB_ASSIGN_OR_RETURN(RandomVar rv, v->random_var());
      if (!rv.is_certain()) uncertain.emplace_back(name, std::move(rv));
    } else if (!v->is_double() && !v->is_bool()) {
      return Status::TypeError("column '" + name +
                               "' is not numeric in " + e.ToString());
    }
  }

  if (uncertain.empty()) {
    AUSDB_ASSIGN_OR_RETURN(double v, EvalScalar(e, row, nullptr));
    return Value(v);
  }

  // Closed-form Gaussian path for linear expressions.
  if (options_.prefer_closed_form) {
    if (auto lin = ExtractLinear(e)) {
      bool all_gaussian = true;
      double mean = lin->constant;
      double variance = 0.0;
      size_t df = kCertain;
      for (const auto& [name, coeff] : lin->coefficients) {
        if (coeff == 0.0) continue;
        AUSDB_ASSIGN_OR_RETURN(const Value* v, row.Get(name));
        if (v->is_random_var()) {
          AUSDB_ASSIGN_OR_RETURN(RandomVar rv, v->random_var());
          if (rv.is_certain()) {
            AUSDB_ASSIGN_OR_RETURN(double cv, rv.certain_value());
            mean += coeff * cv;
            continue;
          }
          if (rv.distribution()->kind() !=
              dist::DistributionKind::kGaussian) {
            all_gaussian = false;
            break;
          }
          mean += coeff * rv.Mean();
          variance += coeff * coeff * rv.Variance();
          df = std::min(df, rv.sample_size());
        } else {
          AUSDB_ASSIGN_OR_RETURN(double cv, v->AsDouble());
          mean += coeff * cv;
        }
      }
      if (all_gaussian) {
        if (df == kCertain) {
          // Every uncertain column had coefficient zero: deterministic.
          return Value(mean);
        }
        RandomVar out(std::make_shared<dist::GaussianDist>(mean, variance),
                      df);
        return Value(std::move(out));
      }
    }
  }

  // Monte Carlo path: per iteration, sample each distinct uncertain
  // column once (shared across all its occurrences), then evaluate
  // deterministically. Lemma 3 gives the output's d.f. sample size.
  size_t df = kCertain;
  for (const auto& [name, rv] : uncertain) {
    df = std::min(df, rv.sample_size());
  }
  auto values = std::make_shared<std::vector<double>>();
  values->reserve(options_.mc_samples);
  Substitution sub;
  for (size_t i = 0; i < options_.mc_samples; ++i) {
    for (const auto& [name, rv] : uncertain) {
      sub[name] = rv.Sample(rng_);
    }
    AUSDB_ASSIGN_OR_RETURN(double v, EvalScalar(e, row, &sub));
    values->push_back(v);
  }
  AUSDB_ASSIGN_OR_RETURN(
      dist::EmpiricalDist emp,
      dist::EmpiricalDist::Make(*values));
  RandomVar out(std::make_shared<dist::EmpiricalDist>(std::move(emp)), df);
  out.set_raw_sample(values);
  return Value(std::move(out));
}

Result<Value> Evaluator::EvalAccuracyOf(const AccuracyOfExpr& e,
                                        const Row& row) {
  AUSDB_ASSIGN_OR_RETURN(Value operand, EvalNumeric(*e.operand(), row));
  AUSDB_ASSIGN_OR_RETURN(RandomVar rv, operand.AsRandomVar());
  AUSDB_ASSIGN_OR_RETURN(accuracy::AccuracyInfo info,
                         accuracy::AnalyticalAccuracy(rv, e.confidence()));
  switch (e.stat()) {
    case AccuracyStat::kMeanCi:
      return Value(info.mean_ci->ToString());
    case AccuracyStat::kVarianceCi:
      return Value(info.variance_ci->ToString());
    case AccuracyStat::kBinCi:
      if (e.bin_index() >= info.bin_cis.size()) {
        return Status::OutOfRange(
            "BIN_CI index " + std::to_string(e.bin_index()) +
            " out of range (histogram has " +
            std::to_string(info.bin_cis.size()) + " bins)");
      }
      return Value(info.bin_cis[e.bin_index()].ToString());
  }
  return Status::Internal("unhandled accuracy stat");
}

Result<Value> Evaluator::Evaluate(const Expr& e, const Row& row) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value();
    case ExprKind::kColumnRef: {
      AUSDB_ASSIGN_OR_RETURN(
          const Value* v,
          row.Get(static_cast<const ColumnRefExpr&>(e).name()));
      return *v;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op() == UnaryOp::kNot) {
        AUSDB_ASSIGN_OR_RETURN(PredicateOutcome p,
                               EvaluatePredicate(e, row));
        if (!p.deterministic) {
          return Status::TypeError(
              "NOT over uncertain data is a probability, not a value; "
              "wrap it in PROB(...)");
        }
        return Value(p.probability >= 1.0);
      }
      return EvalNumeric(e, row);
    }
    case ExprKind::kBinary:
      return EvalNumeric(e, row);
    case ExprKind::kCompare:
    case ExprKind::kLogical: {
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome p, EvaluatePredicate(e, row));
      if (!p.deterministic) {
        return Status::TypeError(
            "comparison over uncertain data is a probability, not a "
            "value; wrap it in PROB(...) or use a threshold predicate");
      }
      return Value(p.probability >= 1.0);
    }
    case ExprKind::kProbOf: {
      const auto& po = static_cast<const ProbOfExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome p,
                             EvaluatePredicate(*po.pred(), row));
      return Value(p.probability);
    }
    case ExprKind::kProbThreshold:
    case ExprKind::kMTest:
    case ExprKind::kMdTest:
    case ExprKind::kPTest: {
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome p, EvaluatePredicate(e, row));
      if (p.significance.has_value()) {
        return Value(
            std::string(hypothesis::TestOutcomeToString(*p.significance)));
      }
      return Value(p.probability >= 1.0);
    }
    case ExprKind::kAccuracyOf:
      return EvalAccuracyOf(static_cast<const AccuracyOfExpr&>(e), row);
  }
  return Status::Internal("unhandled expression kind");
}

Result<PredicateOutcome> Evaluator::EvalCompare(const CompareExpr& e,
                                                const Row& row) {
  // Fully deterministic string equality first.
  {
    auto lv = Evaluate(*e.lhs(), row);
    auto rv = Evaluate(*e.rhs(), row);
    if (lv.ok() && rv.ok() && lv->is_string() && rv->is_string()) {
      if (e.op() != CmpOp::kEq && e.op() != CmpOp::kNe) {
        return Status::TypeError(
            "strings support only = and <> comparisons");
      }
      const bool eq = *lv->string_value() == *rv->string_value();
      PredicateOutcome out;
      out.probability = (e.op() == CmpOp::kEq) == eq ? 1.0 : 0.0;
      out.df_sample_size = kCertain;
      out.deterministic = true;
      return out;
    }
  }

  // Fast path: single column against a constant — exact via the CDF,
  // without materializing a difference distribution.
  const auto column_vs_constant =
      [&](const Expr& col_side, const Expr& const_side,
          bool flipped) -> Result<std::optional<PredicateOutcome>> {
    if (col_side.kind() != ExprKind::kColumnRef || !IsConstant(const_side)) {
      return std::optional<PredicateOutcome>(std::nullopt);
    }
    AUSDB_ASSIGN_OR_RETURN(
        const Value* v,
        row.Get(static_cast<const ColumnRefExpr&>(col_side).name()));
    if (!v->is_random_var()) {
      return std::optional<PredicateOutcome>(std::nullopt);
    }
    AUSDB_ASSIGN_OR_RETURN(RandomVar rv, v->random_var());
    if (rv.is_certain()) {
      return std::optional<PredicateOutcome>(std::nullopt);
    }
    AUSDB_ASSIGN_OR_RETURN(double c, EvalScalar(const_side, row, nullptr));
    // X cmp c  <=>  (X - c) cmp 0; if the column is on the right we have
    // c cmp X  <=>  (X) inverted-cmp c.
    CmpOp op = e.op();
    if (flipped) {
      switch (op) {
        case CmpOp::kLt:
          op = CmpOp::kGt;
          break;
        case CmpOp::kLe:
          op = CmpOp::kGe;
          break;
        case CmpOp::kGt:
          op = CmpOp::kLt;
          break;
        case CmpOp::kGe:
          op = CmpOp::kLe;
          break;
        default:
          break;
      }
    }
    const dist::Distribution& d = *rv.distribution();
    double p = 0.0;
    switch (op) {
      case CmpOp::kLt:
        p = d.ProbLess(c);
        break;
      case CmpOp::kLe:
        p = d.Cdf(c);
        break;
      case CmpOp::kGt:
        p = d.ProbGreater(c);
        break;
      case CmpOp::kGe:
        p = 1.0 - d.ProbLess(c);
        break;
      case CmpOp::kEq:
        p = d.Cdf(c) - d.ProbLess(c);
        break;
      case CmpOp::kNe:
        p = 1.0 - (d.Cdf(c) - d.ProbLess(c));
        break;
    }
    PredicateOutcome out;
    out.probability = p;
    out.df_sample_size = rv.sample_size();
    out.deterministic = false;
    return std::optional<PredicateOutcome>(out);
  };

  AUSDB_ASSIGN_OR_RETURN(auto fast,
                         column_vs_constant(*e.lhs(), *e.rhs(), false));
  if (fast.has_value()) return *fast;
  AUSDB_ASSIGN_OR_RETURN(fast, column_vs_constant(*e.rhs(), *e.lhs(), true));
  if (fast.has_value()) return *fast;

  // General path: evaluate Y = lhs - rhs and compare against zero.
  const BinaryExpr diff(BinaryOp::kSub, e.lhs(), e.rhs());
  AUSDB_ASSIGN_OR_RETURN(Value y, EvalNumeric(diff, row));
  PredicateOutcome out;
  if (y.is_double()) {
    out.probability =
        CompareScalars(*y.double_value(), 0.0, e.op()) ? 1.0 : 0.0;
    out.df_sample_size = kCertain;
    out.deterministic = true;
    return out;
  }
  AUSDB_ASSIGN_OR_RETURN(RandomVar rv, y.random_var());
  out.probability = ProbCmpZero(*rv.distribution(), e.op());
  out.df_sample_size = rv.sample_size();
  out.deterministic = false;
  return out;
}

Result<PredicateOutcome> Evaluator::EvalSignificance(const Expr& e,
                                                     const Row& row) {
  using hypothesis::CoupledTests;
  using hypothesis::MeanDifferenceTest;
  using hypothesis::MeanTest;
  using hypothesis::ProportionTest;
  using hypothesis::SampleStatistics;
  using hypothesis::TestOp;

  const auto stats_of = [&](const Expr& operand)
      -> Result<SampleStatistics> {
    // A bare uncertain Gaussian column is read in place: the closed-form
    // path would rebuild N(0 + 1*mu, 1*1*sigma^2) with the same n, which
    // differs from the stored variable at most in the sign of a zero mean
    // (no test outcome depends on it). Everything else is evaluated: a
    // Gaussian with kCertain as n (the closed form makes it a plain
    // double) and any other operand; a histogram column goes through
    // Monte Carlo and draws from rng_.
    if (options_.prefer_closed_form &&
        operand.kind() == ExprKind::kColumnRef) {
      const auto cell =
          row.Get(static_cast<const ColumnRefExpr&>(operand).name());
      const RandomVar* rv = cell.ok() ? (*cell)->random_var_ptr() : nullptr;
      if (rv != nullptr && rv->sample_size() != kCertain &&
          rv->distribution()->kind() == dist::DistributionKind::kGaussian) {
        return hypothesis::StatisticsOf(*rv);
      }
    }
    AUSDB_ASSIGN_OR_RETURN(Value v, EvalNumeric(operand, row));
    AUSDB_ASSIGN_OR_RETURN(RandomVar rv, v.AsRandomVar());
    return hypothesis::StatisticsOf(rv);
  };

  const auto finish = [](Result<TestOutcome> outcome, size_t df)
      -> Result<PredicateOutcome> {
    AUSDB_ASSIGN_OR_RETURN(TestOutcome o, std::move(outcome));
    PredicateOutcome out;
    out.probability = o == TestOutcome::kTrue ? 1.0 : 0.0;
    out.df_sample_size = df;
    out.significance = o;
    out.deterministic = true;
    return out;
  };

  switch (e.kind()) {
    case ExprKind::kMTest: {
      const auto& m = static_cast<const MTestExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(SampleStatistics s, stats_of(*m.operand()));
      if (m.alpha2().has_value()) {
        return finish(
            CoupledTests(
                [&s, &m](TestOp op, double alpha) {
                  return MeanTest(s, op, m.c(), alpha);
                },
                m.op(), m.alpha(), *m.alpha2()),
            s.n);
      }
      AUSDB_ASSIGN_OR_RETURN(bool accept,
                             MeanTest(s, m.op(), m.c(), m.alpha()));
      return finish(accept ? TestOutcome::kTrue : TestOutcome::kFalse,
                    s.n);
    }
    case ExprKind::kMdTest: {
      const auto& m = static_cast<const MdTestExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(SampleStatistics sx, stats_of(*m.x()));
      AUSDB_ASSIGN_OR_RETURN(SampleStatistics sy, stats_of(*m.y()));
      const size_t df = std::min(sx.n, sy.n);
      if (m.alpha2().has_value()) {
        return finish(
            CoupledTests(
                [&sx, &sy, &m](TestOp op, double alpha) {
                  return MeanDifferenceTest(sx, sy, op, m.c(), alpha);
                },
                m.op(), m.alpha(), *m.alpha2()),
            df);
      }
      AUSDB_ASSIGN_OR_RETURN(
          bool accept, MeanDifferenceTest(sx, sy, m.op(), m.c(), m.alpha()));
      return finish(accept ? TestOutcome::kTrue : TestOutcome::kFalse, df);
    }
    case ExprKind::kPTest: {
      const auto& p = static_cast<const PTestExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome inner,
                             EvaluatePredicate(*p.pred(), row));
      if (inner.df_sample_size == kCertain) {
        return Status::InsufficientData(
            "pTest needs a predicate over uncertain fields");
      }
      const double p_hat = inner.probability;
      const size_t n = inner.df_sample_size;
      if (p.alpha2().has_value()) {
        return finish(
            CoupledTests(
                [p_hat, n, &p](TestOp op, double alpha) {
                  return ProportionTest(p_hat, n, op, p.tau(), alpha);
                },
                TestOp::kGreater, p.alpha(), *p.alpha2()),
            n);
      }
      AUSDB_ASSIGN_OR_RETURN(
          bool accept,
          ProportionTest(p_hat, n, TestOp::kGreater, p.tau(), p.alpha()));
      return finish(accept ? TestOutcome::kTrue : TestOutcome::kFalse, n);
    }
    default:
      return Status::Internal("not a significance predicate");
  }
}

Result<PredicateOutcome> Evaluator::EvaluatePredicate(const Expr& e,
                                                      const Row& row) {
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value();
      AUSDB_ASSIGN_OR_RETURN(bool b, v.bool_value());
      PredicateOutcome out;
      out.probability = b ? 1.0 : 0.0;
      out.df_sample_size = kCertain;
      out.deterministic = true;
      return out;
    }
    case ExprKind::kColumnRef: {
      AUSDB_ASSIGN_OR_RETURN(
          const Value* v,
          row.Get(static_cast<const ColumnRefExpr&>(e).name()));
      AUSDB_ASSIGN_OR_RETURN(bool b, v->bool_value());
      PredicateOutcome out;
      out.probability = b ? 1.0 : 0.0;
      out.df_sample_size = kCertain;
      out.deterministic = true;
      return out;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op() != UnaryOp::kNot) {
        return Status::TypeError("numeric expression used as a predicate: " +
                                 e.ToString());
      }
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome inner,
                             EvaluatePredicate(*u.operand(), row));
      inner.probability = 1.0 - inner.probability;
      if (inner.significance.has_value()) {
        inner.significance = NotOutcome(*inner.significance);
      }
      return inner;
    }
    case ExprKind::kCompare:
      return EvalCompare(static_cast<const CompareExpr&>(e), row);
    case ExprKind::kLogical: {
      const auto& l = static_cast<const LogicalExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome a,
                             EvaluatePredicate(*l.lhs(), row));
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome b,
                             EvaluatePredicate(*l.rhs(), row));
      PredicateOutcome out;
      // Attribute independence across distinct fields, as in the paper's
      // data model.
      if (l.op() == LogicalOp::kAnd) {
        out.probability = a.probability * b.probability;
      } else {
        out.probability =
            1.0 - (1.0 - a.probability) * (1.0 - b.probability);
      }
      out.df_sample_size = std::min(a.df_sample_size, b.df_sample_size);
      out.deterministic = a.deterministic && b.deterministic;
      return out;
    }
    case ExprKind::kProbThreshold: {
      const auto& pt = static_cast<const ProbThresholdExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(PredicateOutcome inner,
                             EvaluatePredicate(*pt.pred(), row));
      PredicateOutcome out;
      out.probability = inner.probability >= pt.threshold() ? 1.0 : 0.0;
      out.df_sample_size = inner.df_sample_size;
      out.deterministic = true;
      return out;
    }
    case ExprKind::kMTest:
    case ExprKind::kMdTest:
    case ExprKind::kPTest:
      return EvalSignificance(e, row);
    case ExprKind::kProbOf:
      return Status::TypeError(
          "PROB(...) is a numeric value; compare it against a constant to "
          "form a predicate");
    default:
      return Status::TypeError("expression is not a predicate: " +
                               e.ToString());
  }
}

}  // namespace expr
}  // namespace ausdb
