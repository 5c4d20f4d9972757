#ifndef AUSDB_ENGINE_BATCH_H_
#define AUSDB_ENGINE_BATCH_H_

#include <vector>

#include "src/engine/tuple.h"

namespace ausdb {
namespace engine {

/// \brief A morsel of tuples pulled through Operator::NextBatch.
///
/// The rows carry every field (strings, random variables, membership
/// probabilities, accuracy annotations) exactly as the tuple-at-a-time
/// path would.
class TupleBatch {
 public:
  TupleBatch() = default;

  std::vector<Tuple>& rows() { return rows_; }
  const std::vector<Tuple>& rows() const { return rows_; }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Drops all rows; keeps capacity for reuse across pulls (batches are
  /// pulled in a hot loop — no per-batch allocation once the pipeline
  /// has warmed up).
  void Clear() { rows_.clear(); }

 private:
  std::vector<Tuple> rows_;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_BATCH_H_
