#ifndef AUSDB_ENGINE_UNION_ALL_H_
#define AUSDB_ENGINE_UNION_ALL_H_

#include <vector>

#include "src/engine/operator.h"

namespace ausdb {
namespace engine {

/// \brief UNION ALL: concatenates several input streams with identical
/// schemas (e.g. merging the feeds of multiple sensor gateways).
class UnionAll final : public Operator {
 public:
  /// All children must share the first child's schema exactly.
  static Result<std::unique_ptr<UnionAll>> Make(
      std::vector<OperatorPtr> children);

  const Schema& schema() const override {
    return children_.front()->schema();
  }
  Result<std::optional<Tuple>> Next() override;
  Status Reset() override;

  Status Close() override {
    Status first = Status::OK();
    for (auto& child : children_) {
      const Status st = child->Close();
      if (first.ok() && !st.ok()) first = st;
    }
    return first;
  }

 private:
  explicit UnionAll(std::vector<OperatorPtr> children)
      : children_(std::move(children)) {}

  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_UNION_ALL_H_
