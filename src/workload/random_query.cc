#include "src/workload/random_query.h"

#include <sstream>

#include "src/common/logging.h"

namespace ausdb {
namespace workload {

std::string RandomQuery::ToString() const {
  std::ostringstream os;
  os << "SELECT " << expression->ToString() << " FROM S  -- columns:";
  for (size_t i = 0; i < column_names.size(); ++i) {
    os << " " << column_names[i] << "~" << FamilyToString(families[i]);
  }
  return os.str();
}

namespace {

// The six operators with equal probability; the last two are unary.
enum class QueryOp { kAdd, kSub, kMul, kDiv, kSqrtAbs, kSquare };

QueryOp RandomOp(Rng& rng, bool linear_only) {
  if (linear_only) {
    return rng.NextBelow(2) == 0 ? QueryOp::kAdd : QueryOp::kSub;
  }
  return static_cast<QueryOp>(rng.NextBelow(6));
}

}  // namespace

RandomQuery GenerateRandomQuery(Rng& rng,
                                const RandomQueryOptions& options) {
  AUSDB_CHECK(options.num_columns >= 1) << "need at least one column";
  RandomQuery q;
  for (size_t i = 0; i < options.num_columns; ++i) {
    // append, not operator+: GCC 12 at -O3 reports the latter as
    // -Wrestrict (a false positive).
    q.column_names.push_back(std::string("x").append(std::to_string(i)));
    if (options.normal_only_linear) {
      q.families.push_back(Family::kNormal);
    } else {
      q.families.push_back(
          static_cast<Family>(rng.NextBelow(std::size(kAllFamilies))));
    }
  }

  // Start from one leaf per column (guaranteeing every column is used),
  // then repeatedly merge / wrap subtrees with random operators until the
  // operator budget is spent and a single expression remains.
  std::vector<expr::ExprPtr> forest;
  for (const auto& name : q.column_names) {
    forest.push_back(expr::Col(name));
  }

  size_t ops_remaining = options.num_operators;
  // Merging k trees into one takes k-1 binary operators, so ensure the
  // budget suffices.
  if (ops_remaining + 1 < forest.size()) {
    ops_remaining = forest.size() - 1;
  }

  while (forest.size() > 1 || ops_remaining > 0) {
    const bool must_merge = forest.size() > 1 &&
                            ops_remaining <= forest.size() - 1;
    const QueryOp op = RandomOp(rng, options.normal_only_linear);
    const bool is_unary =
        !must_merge && (op == QueryOp::kSqrtAbs || op == QueryOp::kSquare);
    if (is_unary || forest.size() == 1) {
      // Wrap a random tree with a unary operator (or, if only one tree
      // remains but the op is binary, pair it with itself/a constant-free
      // redraw as unary to keep shapes simple).
      const size_t i = rng.NextBelow(forest.size());
      switch (op) {
        case QueryOp::kSqrtAbs:
          forest[i] = expr::SqrtAbs(forest[i]);
          break;
        case QueryOp::kSquare:
          forest[i] = expr::Square(forest[i]);
          break;
        default:
          // A binary op with a single remaining tree: apply it between
          // the tree and a fresh reference to a random column.
          forest[i] = [&] {
            const auto& col =
                q.column_names[rng.NextBelow(q.column_names.size())];
            switch (op) {
              case QueryOp::kAdd:
                return expr::Add(forest[i], expr::Col(col));
              case QueryOp::kSub:
                return expr::Sub(forest[i], expr::Col(col));
              case QueryOp::kMul:
                return expr::Mul(forest[i], expr::Col(col));
              default:
                return expr::Div(forest[i], expr::Col(col));
            }
          }();
          break;
      }
    } else {
      // Merge two random distinct trees.
      const size_t i = rng.NextBelow(forest.size());
      size_t j = rng.NextBelow(forest.size() - 1);
      if (j >= i) ++j;
      expr::ExprPtr merged;
      switch (op) {
        case QueryOp::kAdd:
          merged = expr::Add(forest[i], forest[j]);
          break;
        case QueryOp::kSub:
          merged = expr::Sub(forest[i], forest[j]);
          break;
        case QueryOp::kMul:
          merged = expr::Mul(forest[i], forest[j]);
          break;
        case QueryOp::kDiv:
          merged = expr::Div(forest[i], forest[j]);
          break;
        default:
          merged = expr::Add(forest[i], forest[j]);  // unreachable
          break;
      }
      forest[i] = std::move(merged);
      forest.erase(forest.begin() + static_cast<ptrdiff_t>(j));
    }
    if (ops_remaining > 0) --ops_remaining;
    if (forest.size() == 1 && ops_remaining == 0) break;
  }

  q.expression = forest.front();
  return q;
}

}  // namespace workload
}  // namespace ausdb
