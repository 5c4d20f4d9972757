#ifndef AUSDB_ENGINE_WINDOW_AGGREGATE_H_
#define AUSDB_ENGINE_WINDOW_AGGREGATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

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
/// The window counts rows in arrival order and never revises an output:
/// AQL attaches lateness only to RANGE windows (TimeWindowAggregate).
///
/// Ungrouped, the stream is one implicit key and the schema is
/// (<output_name>:uncertain). With a key column (string or double, e.g.
/// the Road_ID of the paper's Example 1) each distinct key keeps its own
/// window and the schema is (key, <output_name>:uncertain).
///
/// Next() steps one input at a time. NextBatch() pulls one child batch,
/// steps it and returns its emissions, at most one per input (pulling
/// again only when a batch emits nothing). Both paths step every input,
/// in input order, through its key's KeyWindowState on the pulling
/// thread, so their output is byte-identical.
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
  /// Native batch pull: steps the child batch's rows exactly as Next()
  /// steps them one at a time, so output is byte-identical to it.
  Status NextBatch(size_t max_n, TupleBatch& out) override;
  Status Reset() override;

  Status Close() override { return child_->Close(); }

  /// Checkpointing serializes every open window (entries plus the exact
  /// running sums and their Neumaier compensation terms, preserving the
  /// accumulators' floating-point history; keys sorted, so equal states
  /// produce equal blobs) so a restarted pipeline resumes mid-window
  /// bit-for-bit. Emissions never outlive a pull, so no output is pending
  /// at a checkpoint. One format, wagg.v7; blobs of any other version are
  /// rejected as corrupt.
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

 private:
  WindowAggregate(OperatorPtr child, size_t column_index,
                  std::optional<size_t> key_index, Schema out_schema,
                  WindowAggregateOptions options);

  /// The output tuple of `aggregate`, carrying the key and provenance of
  /// its input row `in`.
  Tuple EmissionTuple(const Tuple& in,
                      const KeyWindowState::Aggregate& aggregate) const;

  /// Steps the rows of `input_` in input order through their keys'
  /// windows and appends their emissions to `out`.
  /// Stops at the first failing row; every earlier row has been stepped,
  /// so input_consumed() never runs ahead of the windows.
  Status StepRows(TupleBatch& out);

  OperatorPtr child_;
  size_t column_index_;
  std::optional<size_t> key_index_;
  Schema schema_;
  WindowAggregateOptions options_;
  TupleBatch input_;     // scratch child batch, reused across pulls
  TupleBatch next_out_;  // Next()'s scratch emissions

  /// The ungrouped window's state, or the per-key states.
  KeyWindowState single_;
  std::unordered_map<std::string, KeyWindowState> partitions_;
  uint64_t input_consumed_ = 0;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_WINDOW_AGGREGATE_H_
