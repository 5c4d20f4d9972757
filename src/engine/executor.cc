#include "src/engine/executor.h"

#include <algorithm>

#include "src/common/thread_pool.h"

namespace ausdb {
namespace engine {

namespace {

/// Binds a pool to the plan for one drain and unbinds on scope exit, so
/// a failed Collect never leaves a dangling pool pointer in the tree.
class ScopedPoolBinding {
 public:
  ScopedPoolBinding(Operator& root, ThreadPool& pool) : root_(root) {
    root_.BindThreadPool(&pool);
  }
  ~ScopedPoolBinding() { root_.BindThreadPool(nullptr); }

 private:
  Operator& root_;
};

}  // namespace

size_t DeterministicBatchSize(const Operator& plan) {
  // ~4096 values per batch keeps a morsel inside L2 for typical tuple
  // widths; the clamp bounds dispatch amortization (lower) and batch
  // memory (upper). Depends only on the plan's output schema.
  const size_t fields = std::max<size_t>(1, plan.schema().num_fields());
  const size_t rows = 4096 / fields;
  return std::clamp(rows, kMinBatchRows, kMaxBatchRows);
}

Result<std::vector<Tuple>> BatchCollect(Operator& root) {
  const size_t batch_size = DeterministicBatchSize(root);
  std::vector<Tuple> out;
  TupleBatch batch;
  for (;;) {
    AUSDB_RETURN_NOT_OK(root.NextBatch(batch_size, batch));
    if (batch.empty()) return out;
    for (Tuple& t : batch.rows()) out.push_back(std::move(t));
  }
}

Result<size_t> BatchDrain(Operator& root) {
  const size_t batch_size = DeterministicBatchSize(root);
  size_t count = 0;
  TupleBatch batch;
  for (;;) {
    AUSDB_RETURN_NOT_OK(root.NextBatch(batch_size, batch));
    if (batch.empty()) return count;
    count += batch.size();
  }
}

Result<std::vector<Tuple>> ParallelBatchCollect(Operator& root,
                                                ThreadPool& pool) {
  ScopedPoolBinding binding(root, pool);
  return BatchCollect(root);
}

Result<size_t> ParallelBatchDrain(Operator& root, ThreadPool& pool) {
  ScopedPoolBinding binding(root, pool);
  return BatchDrain(root);
}

Result<std::vector<Tuple>> Collect(Operator& root) {
  std::vector<Tuple> out;
  for (;;) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root.Next());
    if (!t.has_value()) return out;
    out.push_back(std::move(*t));
  }
}

Result<size_t> Drain(Operator& root) {
  size_t count = 0;
  for (;;) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root.Next());
    if (!t.has_value()) return count;
    ++count;
  }
}

namespace {

Status MaybeCheckpoint(Operator& root, size_t every_n, size_t emitted,
                       CheckpointSink& sink) {
  if (every_n == 0 || emitted % every_n != 0) return Status::OK();
  AUSDB_ASSIGN_OR_RETURN(std::string blob, root.SaveCheckpoint());
  return sink.Write(emitted, blob);
}

}  // namespace

Result<std::vector<Tuple>> CollectWithCheckpoints(Operator& root,
                                                  size_t every_n,
                                                  CheckpointSink& sink) {
  if (every_n == 0) {
    return Status::InvalidArgument("checkpoint interval must be >= 1");
  }
  std::vector<Tuple> out;
  for (;;) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root.Next());
    if (!t.has_value()) return out;
    out.push_back(std::move(*t));
    AUSDB_RETURN_NOT_OK(MaybeCheckpoint(root, every_n, out.size(), sink));
  }
}

Result<std::vector<Tuple>> CollectLimit(Operator& root, size_t limit) {
  std::vector<Tuple> out;
  while (out.size() < limit) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, root.Next());
    if (!t.has_value()) break;
    out.push_back(std::move(*t));
  }
  return out;
}

}  // namespace engine
}  // namespace ausdb
