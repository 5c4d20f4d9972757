#include "src/engine/window_aggregate.h"

#include <algorithm>

#include "src/serde/checkpoint.h"

namespace ausdb {
namespace engine {

Result<std::unique_ptr<WindowAggregate>> WindowAggregate::Make(
    OperatorPtr child, std::string column, std::string output_name,
    WindowAggregateOptions options, std::optional<std::string> key_column) {
  if (options.window_size == 0) {
    return Status::InvalidArgument("window size must be >= 1");
  }
  Schema out_schema;
  std::optional<size_t> key_idx;
  if (key_column.has_value()) {
    AUSDB_ASSIGN_OR_RETURN(key_idx, child->schema().IndexOf(*key_column));
    const FieldType key_type = child->schema().field(*key_idx).type;
    if (key_type != FieldType::kString && key_type != FieldType::kDouble) {
      return Status::TypeError("group-by key '" + *key_column +
                               "' must be a deterministic string or double");
    }
    AUSDB_RETURN_NOT_OK(
        out_schema.AddField({std::move(*key_column), key_type}));
  }
  AUSDB_ASSIGN_OR_RETURN(size_t idx, child->schema().IndexOf(column));
  const FieldType type = child->schema().field(idx).type;
  if (type != FieldType::kUncertain && type != FieldType::kDouble) {
    return Status::TypeError("window aggregate column '" + column +
                             "' must be numeric");
  }
  AUSDB_RETURN_NOT_OK(
      out_schema.AddField({std::move(output_name), FieldType::kUncertain}));
  return std::unique_ptr<WindowAggregate>(new WindowAggregate(
      std::move(child), idx, key_idx, std::move(out_schema), options));
}

WindowAggregate::WindowAggregate(OperatorPtr child, size_t column_index,
                                 std::optional<size_t> key_index,
                                 Schema out_schema,
                                 WindowAggregateOptions options)
    : child_(std::move(child)),
      column_index_(column_index),
      key_index_(key_index),
      schema_(std::move(out_schema)),
      options_(options) {}

Tuple WindowAggregate::EmissionTuple(
    const Tuple& in, const KeyWindowState::Aggregate& aggregate) const {
  std::vector<expr::Value> values;
  values.reserve(schema_.num_fields());
  if (key_index_.has_value()) values.push_back(in.value(*key_index_));
  values.push_back(expr::Value(aggregate.ToRandomVar()));
  Tuple out(std::move(values));
  out.set_sequence(in.sequence());
  out.set_membership_prob(in.membership_prob());
  out.set_membership_df_n(in.membership_df_n());
  return out;
}

Status WindowAggregate::StepRows(TupleBatch& out) {
  for (const Tuple& t : input_.rows()) {
    ++input_consumed_;
    AUSDB_ASSIGN_OR_RETURN(WindowEntry entry,
                           WindowEntryFromValue(t.value(column_index_)));
    KeyWindowState* state = &single_;
    if (key_index_.has_value()) {
      AUSDB_ASSIGN_OR_RETURN(std::string key,
                             PartitionKeyFromValue(t.value(*key_index_)));
      state = &partitions_[std::move(key)];
    }
    std::optional<KeyWindowState::Aggregate> aggregate =
        state->Observe(entry, options_);
    if (aggregate.has_value()) {
      out.rows().push_back(EmissionTuple(t, *aggregate));
    }
  }
  return Status::OK();
}

Result<std::optional<Tuple>> WindowAggregate::Next() {
  for (;;) {
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
    if (!t.has_value()) return std::optional<Tuple>(std::nullopt);
    input_.Clear();
    input_.rows().push_back(std::move(*t));
    next_out_.Clear();
    AUSDB_RETURN_NOT_OK(StepRows(next_out_));
    if (!next_out_.empty()) {
      return std::optional<Tuple>(std::move(next_out_.rows().front()));
    }
  }
}

Status WindowAggregate::NextBatch(size_t max_n, TupleBatch& out) {
  out.Clear();
  if (max_n == 0) {
    return Status::InvalidArgument("batch size must be >= 1");
  }
  for (;;) {
    AUSDB_RETURN_NOT_OK(child_->NextBatch(max_n, input_));
    if (input_.empty()) return Status::OK();
    AUSDB_RETURN_NOT_OK(StepRows(out));
    if (!out.empty()) return Status::OK();
  }
}

Status WindowAggregate::Reset() {
  single_ = KeyWindowState{};
  partitions_.clear();
  input_consumed_ = 0;
  return child_->Reset();
}

Result<std::string> WindowAggregate::SaveCheckpoint() const {
  serde::CheckpointWriter w;
  w.Token("wagg.v7");
  w.Uint(static_cast<uint64_t>(options_.kind));
  w.Uint(static_cast<uint64_t>(options_.fn));
  w.Uint(options_.window_size);
  w.Uint(key_index_.has_value() ? 1 : 0);
  w.Uint(input_consumed_);
  // An ungrouped window is one partition under the empty key.
  std::vector<std::pair<std::string_view, const KeyWindowState*>> states;
  if (key_index_.has_value()) {
    states.reserve(partitions_.size());
    for (const auto& [key, state] : partitions_) {
      states.emplace_back(key, &state);
    }
    std::sort(states.begin(), states.end());
  } else {
    states.emplace_back(std::string_view(), &single_);
  }
  w.Uint(states.size());
  for (const auto& [key, state] : states) {
    w.Bytes(key);
    w.Double(state->sum_mean.raw_sum());
    w.Double(state->sum_mean.compensation());
    w.Double(state->sum_variance.raw_sum());
    w.Double(state->sum_variance.compensation());
    w.Uint(state->window.size());
    for (const WindowEntry& e : state->window) {
      w.Double(e.mean);
      w.Double(e.variance);
      w.Uint(e.sample_size);
    }
  }
  return std::move(w).Finish();
}

Status WindowAggregate::RestoreCheckpoint(std::string_view blob) {
  serde::CheckpointReader r(blob);
  AUSDB_ASSIGN_OR_RETURN(std::string version, r.NextToken());
  if (version != "wagg.v7") {
    return Status::Corruption("unknown WindowAggregate checkpoint "
                              "version '" + version + "'");
  }
  AUSDB_ASSIGN_OR_RETURN(uint64_t kind, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(uint64_t fn, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(uint64_t window_size, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(uint64_t grouped, r.NextUint());
  if (kind != static_cast<uint64_t>(options_.kind) ||
      fn != static_cast<uint64_t>(options_.fn) ||
      window_size != options_.window_size ||
      (grouped != 0) != key_index_.has_value()) {
    return Status::InvalidArgument(
        "checkpoint was taken from a differently configured "
        "WindowAggregate");
  }
  AUSDB_ASSIGN_OR_RETURN(uint64_t input_consumed, r.NextUint());
  // A partition is at least an empty key ("0:"), 4 hex doubles and an
  // entry count, with separators: >= 73 bytes. NextCount rejects counts
  // the remaining blob cannot hold before anything is sized from them.
  AUSDB_ASSIGN_OR_RETURN(uint64_t npartitions, r.NextCount(73));
  if (!key_index_.has_value() && npartitions != 1) {
    return Status::Corruption(
        "ungrouped WindowAggregate checkpoint must hold one partition");
  }
  std::unordered_map<std::string, KeyWindowState> restored;
  restored.reserve(npartitions);
  for (uint64_t p = 0; p < npartitions; ++p) {
    AUSDB_ASSIGN_OR_RETURN(std::string key, r.NextBytes());
    KeyWindowState state;
    AUSDB_ASSIGN_OR_RETURN(double sum_mean, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(double comp_mean, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(double sum_variance, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(double comp_variance, r.NextDouble());
    state.sum_mean.Restore(sum_mean, comp_mean);
    state.sum_variance.Restore(sum_variance, comp_variance);
    // Each entry encodes 2 hex doubles and a uint: >= 36 bytes with
    // separators.
    AUSDB_ASSIGN_OR_RETURN(uint64_t count, r.NextCount(36));
    for (uint64_t i = 0; i < count; ++i) {
      WindowEntry e;
      AUSDB_ASSIGN_OR_RETURN(e.mean, r.NextDouble());
      AUSDB_ASSIGN_OR_RETURN(e.variance, r.NextDouble());
      AUSDB_ASSIGN_OR_RETURN(e.sample_size, r.NextUint());
      state.window.push_back(e);
    }
    state.RebuildMinDeque();
    if (!restored.emplace(std::move(key), std::move(state)).second) {
      return Status::Corruption(
          "WindowAggregate checkpoint repeats a partition key");
    }
  }
  if (key_index_.has_value()) {
    partitions_ = std::move(restored);
  } else {
    single_ = std::move(restored.begin()->second);
  }
  input_consumed_ = input_consumed;
  return Status::OK();
}

}  // namespace engine
}  // namespace ausdb
