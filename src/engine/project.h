#ifndef AUSDB_ENGINE_PROJECT_H_
#define AUSDB_ENGINE_PROJECT_H_

#include <string>
#include <vector>

#include "src/engine/operator.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"

namespace ausdb {
namespace engine {

/// One SELECT-list item: an expression and its output column name.
struct ProjectionItem {
  std::string name;
  expr::ExprPtr expression;
};

/// \brief Infers the static output type of `e` against `input` — used to
/// build projection schemas. Numeric expressions referencing at least one
/// uncertain column are kUncertain; PROB(...) is kDouble; significance
/// predicates and accuracy projections are kString (their rendered
/// outcome); deterministic comparisons are kBool.
Result<FieldType> InferType(const expr::Expr& e, const Schema& input);

/// \brief Projection: evaluates each item per input tuple (the SELECT
/// list).
///
/// Tuple uncertainty (membership probability and its d.f. provenance)
/// passes through unchanged; attribute uncertainty flows through the
/// evaluator, which propagates d.f. sample sizes by Lemma 3.
class Project final : public Operator {
 public:
  /// Fails (at first Next()) if an item fails to evaluate. Type inference
  /// failures surface from Make().
  static Result<std::unique_ptr<Project>> Make(
      OperatorPtr child, std::vector<ProjectionItem> items);

  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override;
  /// Native batch pull: child batch in, items evaluated row-major in
  /// arrival order (same evaluator state sequence as the scalar path).
  Status NextBatch(size_t max_n, TupleBatch& out) override;
  Status Reset() override;

  Status Close() override { return child_->Close(); }

 private:
  Project(OperatorPtr child, std::vector<ProjectionItem> items,
          Schema schema);

  /// Evaluates the SELECT list against one input row.
  Result<Tuple> ProjectOne(const Tuple& t);

  OperatorPtr child_;
  TupleBatch input_;  // scratch child batch, reused across pulls
  std::vector<ProjectionItem> items_;
  Schema schema_;
  expr::Evaluator evaluator_;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_PROJECT_H_
