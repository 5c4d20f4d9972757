#ifndef AUSDB_ENGINE_FILTER_H_
#define AUSDB_ENGINE_FILTER_H_

#include <memory>

#include "src/engine/operator.h"
#include "src/expr/evaluator.h"
#include "src/expr/expr.h"

namespace ausdb {
namespace engine {

/// Policy knobs for the Filter operator.
struct FilterOptions {
  /// For significance predicates with coupled tests: keep UNSURE tuples
  /// (flagged via Tuple::significance) instead of dropping them.
  bool keep_unsure = false;
};

/// \brief Possible-world filter (the WHERE clause).
///
/// For an ordinary predicate, each surviving tuple's membership
/// probability is multiplied by the predicate probability and its d.f.
/// sample size is combined by Lemma 3 — this is how result tuples acquire
/// tuple uncertainty with accuracy provenance. For probability-threshold
/// and significance predicates the decision is boolean; significance
/// outcomes are recorded on the tuple.
class Filter final : public Operator {
 public:
  Filter(OperatorPtr child, expr::ExprPtr predicate,
         FilterOptions options = {});

  const Schema& schema() const override { return child_->schema(); }
  Result<std::optional<Tuple>> Next() override;
  /// Native batch pull: one child batch per iteration, the predicate
  /// evaluated over the rows in arrival order — same evaluator state
  /// sequence, hence byte-identical output to the scalar path.
  Status NextBatch(size_t max_n, TupleBatch& out) override;
  Status Reset() override;

  Status Close() override { return child_->Close(); }

  /// Number of UNSURE outcomes seen so far (kept or dropped).
  size_t unsure_count() const { return unsure_count_; }

 private:
  /// The per-tuple decision shared by Next and NextBatch: evaluates the
  /// predicate against `t`, folds membership probability / significance
  /// into it, and returns whether the tuple survives.
  Result<bool> ApplyOne(Tuple& t);

  OperatorPtr child_;
  TupleBatch input_;  // scratch child batch, reused across pulls
  expr::ExprPtr predicate_;
  FilterOptions options_;
  expr::Evaluator evaluator_;
  size_t unsure_count_ = 0;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_FILTER_H_
