#ifndef AUSDB_ENGINE_EXECUTOR_H_
#define AUSDB_ENGINE_EXECUTOR_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "src/engine/operator.h"

namespace ausdb {
namespace engine {

/// \brief The executor's batch size for `plan`: a pure function of the
/// plan shape (its output schema width), never of timing or machine —
/// the same determinism rule the chunked parallel layer follows. Wide
/// schemas get smaller batches so a batch stays cache-resident; the
/// result is always in [kMinBatchRows, kMaxBatchRows].
size_t DeterministicBatchSize(const Operator& plan);

inline constexpr size_t kMinBatchRows = 64;
inline constexpr size_t kMaxBatchRows = 1024;

/// How Run pulls a plan.
struct RunOptions {
  /// false: one Next() per tuple, the scalar reference path. true: one
  /// NextBatch per DeterministicBatchSize(root) rows; the output is
  /// byte-identical (the batch contract), one virtual dispatch per batch.
  bool batched = false;

  /// Stop once this many tuples are out: the scalar path makes no pull
  /// after the last one, the batched path asks for min(batch, remaining).
  size_t limit = std::numeric_limits<size_t>::max();
};

/// \brief Pulls `root` to end of stream (or `options.limit`), appending
/// every tuple to `rows`; a null `rows` only counts them (the
/// throughput path, no materialization). Returns the number pulled.
Result<size_t> Run(Operator& root, const RunOptions& options = {},
                   std::vector<Tuple>* rows = nullptr);

/// \brief Every tuple of `root` through the scalar path: the reference
/// output the batched and async paths are compared against.
Result<std::vector<Tuple>> Collect(Operator& root);

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_EXECUTOR_H_
