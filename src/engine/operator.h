#ifndef AUSDB_ENGINE_OPERATOR_H_
#define AUSDB_ENGINE_OPERATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/engine/batch.h"
#include "src/engine/schema.h"
#include "src/engine/tuple.h"

namespace ausdb {

class ThreadPool;

namespace engine {

/// \brief Pull-based (Volcano-style) stream operator.
///
/// Next() produces the next output tuple, std::nullopt at end of stream,
/// or a failure Status. Operators own their children; a query plan is a
/// tree of operators rooted at the one the executor pulls from.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Schema of the tuples this operator produces.
  virtual const Schema& schema() const = 0;

  /// Produces the next tuple, or nullopt when the stream is exhausted.
  virtual Result<std::optional<Tuple>> Next() = 0;

  /// \brief Produces up to `max_n` tuples into `out` (cleared first); an
  /// empty batch means end of stream. `max_n` must be >= 1.
  ///
  /// The batch contract: pulling a plan through NextBatch yields the
  /// byte-identical tuple sequence as pulling it through Next(), at any
  /// batch size — batching amortizes per-tuple virtual dispatch and
  /// exposes flat arrays to the dist/accuracy kernels, but is invisible
  /// in the output, the same determinism invariant the parallel, async,
  /// obs, and event-time layers already enforce. The default
  /// implementation loops Next(), so every operator supports batch pulls;
  /// hot-chain operators (Scan, Filter, Project, window aggregates,
  /// AccuracyAnnotator) override it natively. An operator that buffers
  /// input (window, filter) may pull its child in batches of its own
  /// sizing; only the *output* sequence is contractual.
  virtual Status NextBatch(size_t max_n, TupleBatch& out);

  /// Rewinds the operator (and its children) for a fresh pass, where
  /// supported. Default: NotImplemented.
  virtual Status Reset() {
    return Status::NotImplemented("operator does not support Reset");
  }

  /// \brief Releases external resources ahead of destruction: background
  /// prefetch threads, sockets, file handles. Idempotent, and must be
  /// safe to call at any point of the pull loop — including with tuples
  /// still buffered. Operators with children forward the call so a
  /// Close() on the plan root reaches the leaves; after Close(),
  /// Next() on a resource-backed source fails with kCancelled.
  /// Destructors imply Close, so calling it is only required when
  /// resources must be released before the plan is torn down.
  virtual Status Close() { return Status::OK(); }

  /// \brief Serializes this operator's mutable state (open-window
  /// accumulators, partition maps) into an opaque blob a fresh instance
  /// of the same shape can RestoreCheckpoint() from. Child operators are
  /// NOT included: a checkpointed pipeline must re-seek its sources to
  /// the recorded input position. Default: NotImplemented (stateless
  /// operators need no checkpoint).
  virtual Result<std::string> SaveCheckpoint() const {
    return Status::NotImplemented("operator does not support checkpoints");
  }

  /// Replaces this operator's mutable state with a SaveCheckpoint()
  /// blob taken from an identically configured operator. Restoring is
  /// bit-exact: subsequent output matches what the checkpointed
  /// instance would have produced.
  virtual Status RestoreCheckpoint(std::string_view blob) {
    (void)blob;
    return Status::NotImplemented("operator does not support checkpoints");
  }

  /// \brief A no-op kept for callers that still offer a worker pool:
  /// no operator or library kernel takes one. The engine runs a query on
  /// the thread that pulls it; the only other thread is the async
  /// prefetch pump.
  virtual void BindThreadPool(ThreadPool* pool) { (void)pool; }
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_OPERATOR_H_
