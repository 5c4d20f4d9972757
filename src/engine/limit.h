#ifndef AUSDB_ENGINE_LIMIT_H_
#define AUSDB_ENGINE_LIMIT_H_

#include <algorithm>

#include "src/engine/operator.h"

namespace ausdb {
namespace engine {

/// \brief Limit: passes at most `limit` tuples through, then reports end
/// of stream (useful to cap unbounded sources in ad hoc queries).
///
/// Once the cap is reached the child is Close()d immediately (Close is
/// idempotent by the Operator contract): a resource-backed source under
/// a LIMIT — an AsyncPrefetchSource producer thread filling its ring, a
/// socket reader — must stop consuming upstream when no further tuple
/// can ever be delivered, not at plan teardown. Reset() rearms: it
/// reopens by resetting the child, and surfaces the child's error loudly
/// when the child cannot restart after a Close.
class Limit final : public Operator {
 public:
  Limit(OperatorPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}

  const Schema& schema() const override { return child_->schema(); }

  Result<std::optional<Tuple>> Next() override {
    if (produced_ >= limit_) {
      AUSDB_RETURN_NOT_OK(CloseChildOnce());
      return std::optional<Tuple>(std::nullopt);
    }
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
    if (t.has_value()) ++produced_;
    if (produced_ >= limit_) AUSDB_RETURN_NOT_OK(CloseChildOnce());
    return t;
  }

  Status NextBatch(size_t max_n, TupleBatch& out) override {
    out.Clear();
    if (max_n == 0) {
      return Status::InvalidArgument("batch size must be >= 1");
    }
    if (produced_ >= limit_) return CloseChildOnce();
    AUSDB_RETURN_NOT_OK(
        child_->NextBatch(std::min(max_n, limit_ - produced_), out));
    produced_ += out.size();
    if (produced_ >= limit_) AUSDB_RETURN_NOT_OK(CloseChildOnce());
    return Status::OK();
  }

  Status Reset() override {
    produced_ = 0;
    child_closed_ = false;
    return child_->Reset();
  }

  Status Close() override {
    child_closed_ = true;
    return child_->Close();
  }

 private:
  Status CloseChildOnce() {
    if (child_closed_) return Status::OK();
    child_closed_ = true;
    return child_->Close();
  }

  OperatorPtr child_;
  size_t limit_;
  size_t produced_ = 0;
  bool child_closed_ = false;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_LIMIT_H_
