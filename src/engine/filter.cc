#include "src/engine/filter.h"

#include <algorithm>

namespace ausdb {
namespace engine {

Filter::Filter(OperatorPtr child, expr::ExprPtr predicate,
               FilterOptions options)
    : child_(std::move(child)),
      predicate_(std::move(predicate)),
      options_(options) {}

Result<bool> Filter::ApplyOne(Tuple& t) {
  AUSDB_ASSIGN_OR_RETURN(
      expr::PredicateOutcome outcome,
      evaluator_.EvaluatePredicate(*predicate_, t.AsRow(schema())));

  if (outcome.significance.has_value()) {
    // Significance predicate: three-state decision.
    const auto sig = *outcome.significance;
    if (sig == hypothesis::TestOutcome::kUnsure) {
      ++unsure_count_;
      if (!options_.keep_unsure) return false;
    } else if (sig == hypothesis::TestOutcome::kFalse) {
      return false;
    }
    t.set_significance(sig);
    return true;
  }

  if (outcome.probability <= 0.0) return false;

  // Possible-world semantics: the tuple survives with the predicate's
  // probability folded into its membership probability.
  t.set_membership_prob(t.membership_prob() * outcome.probability);
  t.set_membership_df_n(
      std::min(t.membership_df_n(), outcome.df_sample_size));

  return true;
}

Result<std::optional<Tuple>> Filter::Next() {
  for (;;) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
    if (!t.has_value()) return std::optional<Tuple>(std::nullopt);
    AUSDB_ASSIGN_OR_RETURN(bool keep, ApplyOne(*t));
    if (keep) return t;
  }
}

Status Filter::NextBatch(size_t max_n, TupleBatch& out) {
  out.Clear();
  if (max_n == 0) {
    return Status::InvalidArgument("batch size must be >= 1");
  }
  // Pull child batches until at least one row survives (or end of
  // stream): an empty output batch must mean exhaustion, never just an
  // unlucky morsel.
  for (;;) {
    AUSDB_RETURN_NOT_OK(child_->NextBatch(max_n, input_));
    if (input_.empty()) return Status::OK();
    for (Tuple& t : input_.rows()) {
      AUSDB_ASSIGN_OR_RETURN(bool keep, ApplyOne(t));
      if (keep) out.rows().push_back(std::move(t));
    }
    if (!out.empty()) return Status::OK();
  }
}

Status Filter::Reset() {
  unsure_count_ = 0;
  return child_->Reset();
}

}  // namespace engine
}  // namespace ausdb
