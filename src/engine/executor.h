#ifndef AUSDB_ENGINE_EXECUTOR_H_
#define AUSDB_ENGINE_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/engine/operator.h"

namespace ausdb {
namespace engine {

/// \brief Pulls every tuple out of `root` into a vector (batch
/// execution / tests).
Result<std::vector<Tuple>> Collect(Operator& root);

/// \brief Pulls and discards every tuple, returning the count — the
/// throughput-measurement path (no materialization cost).
Result<size_t> Drain(Operator& root);

/// \brief Pulls at most `limit` tuples.
Result<std::vector<Tuple>> CollectLimit(Operator& root, size_t limit);

/// \brief The executor's batch size for `plan`: a pure function of the
/// plan shape (its output schema width), never of timing or machine —
/// the same determinism rule the chunked parallel layer follows. Wide
/// schemas get smaller batches so a batch stays cache-resident; the
/// result is always in [kMinBatchRows, kMaxBatchRows].
size_t DeterministicBatchSize(const Operator& plan);

inline constexpr size_t kMinBatchRows = 64;
inline constexpr size_t kMaxBatchRows = 1024;

/// \brief Collect driven through NextBatch at DeterministicBatchSize:
/// byte-identical output to Collect (the batch contract), one virtual
/// dispatch per batch instead of per tuple.
Result<std::vector<Tuple>> BatchCollect(Operator& root);

/// \brief Drain variant of BatchCollect.
Result<size_t> BatchDrain(Operator& root);

/// \brief BatchCollect with `pool` bound to the plan for the duration of
/// the drain: parallel-aware operators (e.g. a grouped WindowAggregate)
/// fan each batch's work across the pool's workers. Under the
/// determinism contract the result is bit-identical to plain Collect at
/// any pool size. The binding is removed before returning.
Result<std::vector<Tuple>> ParallelBatchCollect(Operator& root,
                                                ThreadPool& pool);

/// \brief Drain variant of ParallelBatchCollect.
Result<size_t> ParallelBatchDrain(Operator& root, ThreadPool& pool);

/// \brief Destination of periodic operator checkpoints: a durable store
/// in production (file, replicated log), an in-memory slot in tests.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;

  /// Persists one checkpoint. `tuples_emitted` is how many output tuples
  /// `root` had produced when the snapshot was taken — the restore
  /// position a re-seeked source must resume after.
  virtual Status Write(uint64_t tuples_emitted, const std::string& blob) = 0;
};

/// \brief Keeps only the latest checkpoint, in memory.
class InMemoryCheckpointSink final : public CheckpointSink {
 public:
  Status Write(uint64_t tuples_emitted, const std::string& blob) override {
    last_tuples_emitted_ = tuples_emitted;
    last_blob_ = blob;
    ++writes_;
    return Status::OK();
  }

  bool has_checkpoint() const { return writes_ > 0; }
  uint64_t last_tuples_emitted() const { return last_tuples_emitted_; }
  const std::string& last_blob() const { return last_blob_; }
  size_t writes() const { return writes_; }

 private:
  uint64_t last_tuples_emitted_ = 0;
  std::string last_blob_;
  size_t writes_ = 0;
};

/// \brief Like Collect, but snapshots `root`'s state (SaveCheckpoint)
/// into `sink` after every `every_n` output tuples. `root` must support
/// checkpointing; a sink write failure aborts execution (a checkpoint
/// the operator cannot durably record is not a checkpoint).
Result<std::vector<Tuple>> CollectWithCheckpoints(Operator& root,
                                                  size_t every_n,
                                                  CheckpointSink& sink);

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_EXECUTOR_H_
