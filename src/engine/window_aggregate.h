#ifndef AUSDB_ENGINE_WINDOW_AGGREGATE_H_
#define AUSDB_ENGINE_WINDOW_AGGREGATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/operator.h"
#include "src/engine/window_state.h"

namespace ausdb {
namespace engine {

/// \brief Count-based sliding/tumbling window aggregate over one
/// uncertain column (the paper's streaming AVG query), optionally per
/// group-by key.
///
/// Inputs must be Gaussian or deterministic: the aggregate of independent
/// Gaussians is computed in closed form — AVG of w Gaussians is
/// N(sum mu_i / w, sum sigma_i^2 / w^2) — and the output's d.f. sample
/// size is the window minimum (Lemma 3). Every window runs on
/// KeyWindowState.
///
/// Ungrouped, the stream is one implicit key and the schema is
/// (<output_name>:uncertain). With a key column (string or double, e.g.
/// the Road_ID of the paper's Example 1) each distinct key keeps its own
/// window and the schema is (key, <output_name>:uncertain). Either way
/// `options.emit_revisions` appends a trailing revision:bool column.
///
/// Next() steps one input at a time. NextBatch() pulls one child batch,
/// steps it and returns its emissions, at most one per input (pulling
/// again only when a batch emits nothing). With a pool of two or more
/// workers bound, a grouped window fans the batch's stepping out by
/// FNV-1a key hash, one chunk per pool worker, and merges the emissions
/// back in input order. Each key's window is touched by exactly one
/// chunk and steps its inputs in input order, so output is bit-identical
/// with or without a pool, at any thread count.
class WindowAggregate final : public Operator {
 public:
  /// `column` must exist in the child schema and be kUncertain or
  /// kDouble. `output_name` names the aggregate output field.
  /// `key_column`, when given, must be a kString or kDouble field and
  /// makes the window per key.
  static Result<std::unique_ptr<WindowAggregate>> Make(
      OperatorPtr child, std::string column, std::string output_name,
      WindowAggregateOptions options = {},
      std::optional<std::string> key_column = std::nullopt);

  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override;
  /// Native batch pull. For a deterministic (kDouble) aggregate column
  /// the window entries are extracted from the batch's gathered column
  /// slice — a flat array pass — instead of per-row Value dispatch; the
  /// entry values are identical by construction, so output stays
  /// byte-identical to the scalar path.
  Status NextBatch(size_t max_n, TupleBatch& out) override;
  Status Reset() override;
  void BindThreadPool(ThreadPool* pool) override {
    pool_ = pool;
    child_->BindThreadPool(pool);
  }

  Status Close() override { return child_->Close(); }

  /// Checkpointing serializes every open window (entries plus the exact
  /// running sums and their Neumaier compensation terms, preserving the
  /// accumulators' floating-point history, and the revision-mode
  /// bookkeeping; keys sorted, so equal states produce equal blobs) so a
  /// restarted pipeline resumes mid-window bit-for-bit. Emissions never
  /// outlive a pull, so no output is pending at a checkpoint. One format,
  /// wagg.v5; blobs of any other version are rejected as corrupt.
  Result<std::string> SaveCheckpoint() const override;
  Status RestoreCheckpoint(std::string_view blob) override;

  /// Number of distinct keys currently holding window state (1 for an
  /// ungrouped window).
  size_t partition_count() const {
    return key_index_.has_value() ? partitions_.size() : 1;
  }

  /// Child tuples pulled so far — the input position a re-seeked source
  /// must resume after when restoring this operator's checkpoint.
  uint64_t input_consumed() const { return input_consumed_; }

  /// Revision mode: late tuples older than every retained position of
  /// their key's window, dropped (loudly) instead of revised.
  uint64_t shed_late() const { return shed_late_; }

 private:
  WindowAggregate(OperatorPtr child, size_t column_index,
                  std::optional<size_t> key_index, Schema out_schema,
                  WindowAggregateOptions options);

  /// The state of `key` in a grouped window, inserted on first sight.
  KeyWindowState* StateOf(std::string key);

  /// One staged input: its window entry (carrying the input's sequence),
  /// the state it steps, its row in `input_`, and its chunk and result
  /// slot.
  struct Item {
    KeyWindowState* state = nullptr;
    WindowEntry entry;
    size_t row = 0;
    size_t chunk = 0;
    size_t slot = 0;  // index into chunk_results_[chunk]
  };
  struct StepResult {
    std::optional<KeyWindowState::Emission> emission;
    bool shed = false;
  };

  /// The output tuple of `emission`, carrying the key and provenance of
  /// `item`'s input row.
  Tuple EmissionTuple(const Item& item,
                      const KeyWindowState::Emission& emission) const;

  /// Starts an empty stage, with one chunk per pool worker when
  /// `may_fan_out`, the window is grouped and a pool is bound, else one
  /// chunk. Two or more chunks fan out.
  void BeginStaging(bool may_fan_out);
  /// Stages the rows of `input_` on this thread: extracts their entries
  /// (from `slice`, the gathered aggregate column, when not empty) and
  /// finds or inserts their keys' states. Stops at the first failing row.
  Status Stage(std::span<const double> slice);
  /// Steps the staged items through their windows, fanned out over the
  /// chunks, and appends their emissions to `out` in input order. Next()
  /// stages one row at a time, so every pull path executes the single
  /// update sequence.
  void StepStaged(TupleBatch& out);
  /// Stages `input_` and steps it into `out`. Rows staged before a
  /// failing row are stepped before the error returns.
  Status StageAndStep(bool may_fan_out, std::span<const double> slice,
                      TupleBatch& out);

  OperatorPtr child_;
  size_t column_index_;
  bool column_is_double_ = false;
  std::optional<size_t> key_index_;
  Schema schema_;
  WindowAggregateOptions options_;
  ThreadPool* pool_ = nullptr;
  TupleBatch input_;     // scratch child batch, reused across pulls
  TupleBatch next_out_;  // Next()'s scratch emissions

  /// The ungrouped window's state, or the per-key states. Per-key states
  /// live apart from the map nodes, so pool workers stepping them never
  /// share cache lines with the pulling thread's key lookups.
  KeyWindowState single_;
  std::unordered_map<std::string, std::unique_ptr<KeyWindowState>>
      partitions_;
  uint64_t input_consumed_ = 0;
  uint64_t shed_late_ = 0;

  /// Staging scratch, reused across batches.
  size_t chunks_ = 1;
  std::vector<Item> items_;
  /// Per chunk: one result slot per item, in input order.
  std::vector<std::vector<StepResult>> chunk_results_;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_WINDOW_AGGREGATE_H_
