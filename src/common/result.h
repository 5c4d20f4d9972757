#ifndef AUSDB_COMMON_RESULT_H_
#define AUSDB_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace ausdb {

/// \brief Either a value of type T or a non-OK Status explaining why the
/// value could not be produced.
///
/// Result<T> is implicitly constructible from both T and Status, so
/// functions can `return value;` on success and `return
/// Status::InvalidArgument(...)` on failure. Inspect with ok() / status(),
/// and extract with ValueOrDie() (asserts) or operator* / operator->.
template <typename T>
class Result {
 public:
  /// Constructs a failed Result. `status` must not be OK.
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  /// Constructs a successful Result holding `value`.
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }

  const Status& status() const { return status_; }

  /// The held value. Undefined behaviour if !ok().
  const T& ValueOrDie() const& {
    assert(ok());
    return *value_;
  }
  T& ValueOrDie() & {
    assert(ok());
    return *value_;
  }
  T&& ValueOrDie() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  T&& operator*() && { return std::move(*this).ValueOrDie(); }

  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// Returns the value if ok(), otherwise `fallback`.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// \brief Assigns the value of a Result expression to `lhs`, or propagates
/// its failure Status to the caller.
///
/// Usage: `AUSDB_ASSIGN_OR_RETURN(auto x, ComputeX());`
#define AUSDB_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).ValueOrDie()

#define AUSDB_ASSIGN_OR_RETURN_CONCAT_(x, y) x##y
#define AUSDB_ASSIGN_OR_RETURN_CONCAT(x, y) \
  AUSDB_ASSIGN_OR_RETURN_CONCAT_(x, y)

#define AUSDB_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  AUSDB_ASSIGN_OR_RETURN_IMPL(                                              \
      AUSDB_ASSIGN_OR_RETURN_CONCAT(_ausdb_result_, __LINE__), lhs, rexpr)

}  // namespace ausdb

#endif  // AUSDB_COMMON_RESULT_H_
