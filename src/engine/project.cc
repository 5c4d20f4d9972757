#include "src/engine/project.h"

#include "src/expr/analyzer.h"

namespace ausdb {
namespace engine {

Result<FieldType> InferType(const expr::Expr& e, const Schema& input) {
  using expr::ExprKind;
  switch (e.kind()) {
    case ExprKind::kLiteral: {
      const auto& v = static_cast<const expr::LiteralExpr&>(e).value();
      switch (v.type()) {
        case expr::ValueType::kDouble:
          return FieldType::kDouble;
        case expr::ValueType::kString:
          return FieldType::kString;
        case expr::ValueType::kBool:
          return FieldType::kBool;
        default:
          return Status::TypeError("untyped literal in projection");
      }
    }
    case ExprKind::kColumnRef: {
      const auto& name = static_cast<const expr::ColumnRefExpr&>(e).name();
      AUSDB_ASSIGN_OR_RETURN(size_t idx, input.IndexOf(name));
      return input.field(idx).type;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const expr::UnaryExpr&>(e);
      if (u.op() == expr::UnaryOp::kNot) return FieldType::kBool;
      return InferType(*u.operand(), input);
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const expr::BinaryExpr&>(e);
      AUSDB_ASSIGN_OR_RETURN(FieldType lhs, InferType(*b.lhs(), input));
      AUSDB_ASSIGN_OR_RETURN(FieldType rhs, InferType(*b.rhs(), input));
      if (lhs == FieldType::kString || rhs == FieldType::kString) {
        return Status::TypeError("arithmetic over strings: " +
                                 e.ToString());
      }
      if (lhs == FieldType::kUncertain || rhs == FieldType::kUncertain) {
        return FieldType::kUncertain;
      }
      return FieldType::kDouble;
    }
    case ExprKind::kCompare:
    case ExprKind::kLogical:
    case ExprKind::kProbThreshold:
      return FieldType::kBool;
    case ExprKind::kProbOf:
      return FieldType::kDouble;
    case ExprKind::kMTest:
    case ExprKind::kMdTest:
    case ExprKind::kPTest:
      // Rendered three-state outcome.
      return FieldType::kString;
    case ExprKind::kAccuracyOf:
      return FieldType::kString;
  }
  return Status::Internal("unhandled expression kind in InferType");
}

Result<std::unique_ptr<Project>> Project::Make(
    OperatorPtr child, std::vector<ProjectionItem> items) {
  if (items.empty()) {
    return Status::InvalidArgument("projection needs at least one item");
  }
  Schema schema;
  for (const auto& item : items) {
    if (item.expression == nullptr) {
      return Status::InvalidArgument("projection item '" + item.name +
                                     "' has no expression");
    }
    AUSDB_ASSIGN_OR_RETURN(FieldType type,
                           InferType(*item.expression, child->schema()));
    AUSDB_RETURN_NOT_OK(schema.AddField({item.name, type}));
  }
  return std::unique_ptr<Project>(new Project(
      std::move(child), std::move(items), std::move(schema)));
}

Project::Project(OperatorPtr child, std::vector<ProjectionItem> items,
                 Schema schema)
    : child_(std::move(child)),
      items_(std::move(items)),
      schema_(std::move(schema)) {}

Result<Tuple> Project::ProjectOne(const Tuple& t) {
  const expr::Row row = t.AsRow(child_->schema());
  std::vector<expr::Value> out_values;
  out_values.reserve(items_.size());
  for (const auto& item : items_) {
    AUSDB_ASSIGN_OR_RETURN(expr::Value v,
                           evaluator_.Evaluate(*item.expression, row));
    out_values.push_back(std::move(v));
  }
  Tuple out(std::move(out_values));
  out.set_membership_prob(t.membership_prob());
  out.set_membership_df_n(t.membership_df_n());
  out.set_sequence(t.sequence());
  out.set_precision_rung(t.precision_rung());
  if (t.significance().has_value()) {
    out.set_significance(*t.significance());
  }
  return out;
}

Result<std::optional<Tuple>> Project::Next() {
  AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
  if (!t.has_value()) return std::optional<Tuple>(std::nullopt);
  AUSDB_ASSIGN_OR_RETURN(Tuple out, ProjectOne(*t));
  return std::optional<Tuple>(std::move(out));
}

Status Project::NextBatch(size_t max_n, TupleBatch& out) {
  out.Clear();
  if (max_n == 0) {
    return Status::InvalidArgument("batch size must be >= 1");
  }
  AUSDB_RETURN_NOT_OK(child_->NextBatch(max_n, input_));
  out.rows().reserve(input_.size());
  for (const Tuple& t : input_.rows()) {
    AUSDB_ASSIGN_OR_RETURN(Tuple projected, ProjectOne(t));
    out.rows().push_back(std::move(projected));
  }
  return Status::OK();
}

Status Project::Reset() { return child_->Reset(); }

}  // namespace engine
}  // namespace ausdb
