#ifndef AUSDB_EXPR_EVALUATOR_H_
#define AUSDB_EXPR_EVALUATOR_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/expr/expr.h"
#include "src/expr/value.h"
#include "src/hypothesis/test_types.h"

namespace ausdb {
namespace expr {

/// \brief A view of one input tuple: parallel column names and values.
///
/// The engine's Tuple adapts to this; the evaluator itself stays
/// independent of the storage layer.
struct Row {
  const std::vector<std::string>* names = nullptr;
  const std::vector<Value>* values = nullptr;

  /// Looks a column up by name; NotFound if absent.
  Result<const Value*> Get(const std::string& name) const;
};

/// Tuning knobs for expression evaluation.
struct EvalOptions {
  /// Monte Carlo sample count m for nonlinear expressions over uncertain
  /// fields. Grouped into m/n d.f. resamples by the bootstrap accuracy
  /// path, so keep it a comfortable multiple of typical sample sizes.
  size_t mc_samples = 2000;

  /// Seed of the evaluator's private generator.
  uint64_t seed = 0xA0D5DBull;

  /// Take the closed-form Gaussian path for linear expressions over
  /// Gaussian columns (exact and fast). Disable to force Monte Carlo —
  /// used by the ablation benchmark.
  bool prefer_closed_form = true;
};

/// \brief Outcome of evaluating a predicate over one tuple, under the
/// possible-world semantics.
struct PredicateOutcome {
  /// Probability the predicate holds for this tuple.
  double probability = 0.0;

  /// De facto sample size of the boolean output variable (Lemma 3); this
  /// is what Theorem 1 uses for the tuple-probability interval.
  /// dist::RandomVar::kCertainSampleSize when the predicate involved no
  /// uncertain fields.
  size_t df_sample_size = 0;

  /// Set when the predicate was a (coupled) significance predicate.
  std::optional<hypothesis::TestOutcome> significance;

  /// True if the predicate decision is exact (no sampling error), e.g.
  /// deterministic comparison or a probability-threshold decision.
  bool deterministic = false;
};

/// \brief Evaluates expression trees over rows.
///
/// Numeric expressions over uncertain fields take one of two paths:
///  * closed form, when the expression is linear over Gaussian columns
///    (exact; see analyzer.h), or
///  * Monte Carlo: m iterations, each sampling every distinct uncertain
///    column once (preserving intra-tuple correlation through shared
///    columns) and evaluating the tree deterministically. The resulting
///    value sequence is retained on the output RandomVar so that
///    BOOTSTRAP-ACCURACY-INFO can consume it directly (Section III-B,
///    "first category").
/// In both paths the d.f. sample size follows Lemma 3.
class Evaluator {
 public:
  explicit Evaluator(EvalOptions options = {});

  /// Evaluates a (typically numeric or accuracy-projection) expression.
  /// Comparisons and logical connectives over uncertain data are not
  /// values; use EvaluatePredicate or wrap them in PROB(...).
  Result<Value> Evaluate(const Expr& e, const Row& row);

  /// Evaluates a predicate expression to a PredicateOutcome.
  Result<PredicateOutcome> EvaluatePredicate(const Expr& e, const Row& row);

  const EvalOptions& options() const { return options_; }

 private:
  using Substitution = std::unordered_map<std::string, double>;

  /// Deterministic scalar evaluation; uncertain columns must appear in
  /// `substitution`.
  Result<double> EvalScalar(const Expr& e, const Row& row,
                            const Substitution* substitution);

  /// Full numeric evaluation of an expression that may reference
  /// uncertain columns.
  Result<Value> EvalNumeric(const Expr& e, const Row& row);

  Result<Value> EvalAccuracyOf(const AccuracyOfExpr& e, const Row& row);

  Result<PredicateOutcome> EvalCompare(const CompareExpr& e, const Row& row);
  Result<PredicateOutcome> EvalSignificance(const Expr& e, const Row& row);

  EvalOptions options_;
  Rng rng_;
};

}  // namespace expr
}  // namespace ausdb

#endif  // AUSDB_EXPR_EVALUATOR_H_
