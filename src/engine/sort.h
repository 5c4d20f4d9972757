#ifndef AUSDB_ENGINE_SORT_H_
#define AUSDB_ENGINE_SORT_H_

#include <string>
#include <vector>

#include "src/engine/operator.h"

namespace ausdb {
namespace engine {

/// Sort direction.
enum class SortOrder { kAscending, kDescending };

/// \brief ORDER BY: materializes the (finite) input and emits it sorted
/// by one column.
///
/// Deterministic numeric columns sort by value and strings
/// lexicographically; uncertain columns sort by their expectation (the
/// natural ranking for distributions, matching probabilistic top-k
/// practice). The input stream must be finite — sorting an unbounded
/// stream without a window is rejected by construction elsewhere; here
/// the materialization simply never finishes if misused.
class Sort final : public Operator {
 public:
  static Result<std::unique_ptr<Sort>> Make(
      OperatorPtr child, std::string column,
      SortOrder order = SortOrder::kAscending);

  const Schema& schema() const override { return child_->schema(); }
  Result<std::optional<Tuple>> Next() override;
  Status Reset() override;

  Status Close() override { return child_->Close(); }

 private:
  Sort(OperatorPtr child, size_t column_index, SortOrder order)
      : child_(std::move(child)),
        column_index_(column_index),
        order_(order) {}

  Status Materialize();

  OperatorPtr child_;
  size_t column_index_;
  SortOrder order_;
  bool materialized_ = false;
  std::vector<Tuple> sorted_;
  size_t pos_ = 0;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_SORT_H_
