#ifndef AUSDB_EXPR_VALUE_H_
#define AUSDB_EXPR_VALUE_H_

#include <string>
#include <variant>

#include "src/common/result.h"
#include "src/dist/random_var.h"

namespace ausdb {
namespace expr {

/// Runtime type of a Value.
enum class ValueType {
  kNull,
  kBool,
  kDouble,
  kString,
  kRandomVar,
};

std::string_view ValueTypeToString(ValueType type);

/// \brief A runtime value in the engine: a tuple field or the result of
/// evaluating an expression.
///
/// The interesting member is kRandomVar — a probability distribution with
/// accuracy provenance (d.f. sample size and optionally raw/Monte Carlo
/// observations). Deterministic fields are kDouble/kString/kBool; kNull
/// marks missing data.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(bool b) : v_(b) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(dist::RandomVar rv) : v_(std::move(rv)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (v_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kBool;
      case 2:
        return ValueType::kDouble;
      case 3:
        return ValueType::kString;
      case 4:
        return ValueType::kRandomVar;
    }
    return ValueType::kNull;
  }

  bool is_null() const { return type() == ValueType::kNull; }
  bool is_bool() const { return type() == ValueType::kBool; }
  bool is_double() const { return type() == ValueType::kDouble; }
  bool is_string() const { return type() == ValueType::kString; }
  bool is_random_var() const { return type() == ValueType::kRandomVar; }

  /// True for kDouble and for kRandomVar (both are numeric-valued).
  bool is_numeric() const { return is_double() || is_random_var(); }

  /// The bool payload; TypeError if not a bool.
  Result<bool> bool_value() const;

  /// The double payload; TypeError if not a double.
  Result<double> double_value() const;

  /// The string payload; TypeError if not a string.
  Result<std::string> string_value() const;

  /// The RandomVar payload; TypeError if not a random variable.
  Result<dist::RandomVar> random_var() const;

  /// The RandomVar payload in place (no copy); nullptr if not a random
  /// variable.
  const dist::RandomVar* random_var_ptr() const {
    return std::get_if<dist::RandomVar>(&v_);
  }

  /// Numeric view: a kDouble returns itself; a kRandomVar is not
  /// convertible (use AsRandomVar). TypeError otherwise.
  Result<double> AsDouble() const;

  /// Uncertainty view: a kRandomVar returns itself; a kDouble is lifted
  /// to a certain RandomVar. TypeError otherwise.
  Result<dist::RandomVar> AsRandomVar() const;

  std::string ToString() const;

  bool operator==(const Value& other) const;

 private:
  std::variant<std::monostate, bool, double, std::string, dist::RandomVar>
      v_;
};

}  // namespace expr
}  // namespace ausdb

#endif  // AUSDB_EXPR_VALUE_H_
