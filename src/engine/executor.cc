#include "src/engine/executor.h"

#include <algorithm>

namespace ausdb {
namespace engine {

size_t DeterministicBatchSize(const Operator& plan) {
  // ~4096 values per batch keeps a morsel inside L2 for typical tuple
  // widths; the clamp bounds dispatch amortization (lower) and batch
  // memory (upper). Depends only on the plan's output schema.
  const size_t fields = std::max<size_t>(1, plan.schema().num_fields());
  const size_t rows = 4096 / fields;
  return std::clamp(rows, kMinBatchRows, kMaxBatchRows);
}

Result<size_t> Run(Operator& root, const RunOptions& options,
                   std::vector<Tuple>* rows) {
  size_t count = 0;
  if (!options.batched) {
    while (count < options.limit) {
      AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root.Next());
      if (!t.has_value()) break;
      if (rows != nullptr) rows->push_back(std::move(*t));
      ++count;
    }
    return count;
  }
  const size_t batch_size = DeterministicBatchSize(root);
  TupleBatch batch;
  while (count < options.limit) {
    AUSDB_RETURN_NOT_OK(
        root.NextBatch(std::min(batch_size, options.limit - count), batch));
    if (batch.empty()) break;
    count += batch.size();
    if (rows != nullptr) {
      for (Tuple& t : batch.rows()) rows->push_back(std::move(t));
    }
  }
  return count;
}

Result<std::vector<Tuple>> Collect(Operator& root) {
  std::vector<Tuple> out;
  AUSDB_RETURN_NOT_OK(Run(root, {}, &out).status());
  return out;
}

}  // namespace engine
}  // namespace ausdb
