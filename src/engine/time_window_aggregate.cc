#include "src/engine/time_window_aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "src/obs/exposition.h"
#include "src/serde/checkpoint.h"

namespace ausdb {
namespace engine {

Result<std::unique_ptr<TimeWindowAggregate>> TimeWindowAggregate::Make(
    OperatorPtr child, std::string timestamp_column,
    std::string value_column, std::string output_name,
    TimeWindowOptions options) {
  if (!(options.duration > 0.0) || !std::isfinite(options.duration)) {
    return Status::InvalidArgument("window duration must be > 0");
  }
  if (!std::isfinite(options.allowed_lateness) ||
      options.allowed_lateness < 0.0) {
    return Status::InvalidArgument(
        "allowed lateness must be finite and >= 0");
  }
  if (options.allowed_lateness > 0.0 && !options.emit_revisions) {
    return Status::InvalidArgument(
        "allowed_lateness requires emit_revisions: without revision "
        "outputs a late tuple could only corrupt already-emitted "
        "windows silently");
  }
  if (options.emit_revisions && options.require_ordered) {
    return Status::InvalidArgument(
        "revision mode consumes out-of-order input; set "
        "require_ordered=false");
  }
  AUSDB_ASSIGN_OR_RETURN(size_t ts_idx,
                         child->schema().IndexOf(timestamp_column));
  if (child->schema().field(ts_idx).type != FieldType::kDouble) {
    return Status::TypeError("timestamp column '" + timestamp_column +
                             "' must be a deterministic double");
  }
  AUSDB_ASSIGN_OR_RETURN(size_t value_idx,
                         child->schema().IndexOf(value_column));
  const FieldType value_type = child->schema().field(value_idx).type;
  if (value_type != FieldType::kUncertain &&
      value_type != FieldType::kDouble) {
    return Status::TypeError("window aggregate column '" + value_column +
                             "' must be numeric");
  }
  Schema out_schema;
  AUSDB_RETURN_NOT_OK(
      out_schema.AddField({std::move(output_name), FieldType::kUncertain}));
  if (options.emit_revisions) {
    AUSDB_RETURN_NOT_OK(
        out_schema.AddField({"window_end", FieldType::kDouble}));
    AUSDB_RETURN_NOT_OK(
        out_schema.AddField({"revision", FieldType::kBool}));
  }
  return std::unique_ptr<TimeWindowAggregate>(
      new TimeWindowAggregate(std::move(child), ts_idx, value_idx,
                              std::move(out_schema), options));
}

TimeWindowAggregate::TimeWindowAggregate(OperatorPtr child,
                                         size_t ts_index,
                                         size_t value_index,
                                         Schema out_schema,
                                         TimeWindowOptions options)
    : child_(std::move(child)),
      ts_index_(ts_index),
      value_index_(value_index),
      schema_(std::move(out_schema)),
      options_(options) {}

Result<std::optional<Tuple>> TimeWindowAggregate::Next() {
  for (;;) {
    if (!pending_.empty()) {
      Tuple out = MaterializeOutput(pending_.front());
      pending_.pop_front();
      return std::optional<Tuple>(std::move(out));
    }
    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
    if (!t.has_value()) return std::optional<Tuple>(std::nullopt);
    ++input_consumed_;

    AUSDB_ASSIGN_OR_RETURN(double ts, t->value(ts_index_).AsDouble());
    if (!std::isfinite(ts)) {
      return Status::InvalidArgument(
          "non-finite window timestamp " + std::to_string(ts) +
          " (event time must be a finite double)");
    }
    // Extract before admission, so a value the window cannot aggregate
    // fails loudly even when its tuple would be shed.
    AUSDB_ASSIGN_OR_RETURN(WindowEntry e,
                           WindowEntryFromValue(t->value(value_index_)));

    const bool late = ts < last_timestamp_;
    if (late && options_.require_ordered) {
      return Status::InvalidArgument(
          "out-of-order timestamp " + std::to_string(ts) + " after " +
          std::to_string(last_timestamp_) +
          " (set require_ordered=false to accept)");
    }
    if (late && options_.emit_revisions &&
        ts <= last_timestamp_ - options_.allowed_lateness) {
      ++shed_late_;
      continue;
    }
    last_timestamp_ = std::max(last_timestamp_, ts);
    InsertSorted({ts, t->sequence(), e});
    // Evict what the window ending at max_ts no longer covers.
    size_t end = window_.size();
    Slide(current_, front_, end, last_timestamp_);
    // Retire what no window can still use: outside every revisable
    // window (revision mode) or the current one (allowed_lateness == 0).
    const double horizon = last_timestamp_ - options_.allowed_lateness;
    const double retention = horizon - options_.duration;
    while (!window_.empty() && window_.front().timestamp <= retention) {
      window_.pop_front();
      --front_;
    }

    if (!late || !options_.emit_revisions) {
      // Emit the window ending at max_ts; a lax straggler joins it.
      pending_.push_back(
          MakeOutput(last_timestamp_, current_, /*revision=*/false, *t));
      if (options_.emit_revisions) {
        while (!emitted_ends_.empty() && emitted_ends_.front() <= horizon &&
               emitted_ends_.front() < ts) {
          emitted_ends_.pop_front();
        }
        if (emitted_ends_.empty() || emitted_ends_.back() != ts) {
          emitted_ends_.push_back(ts);
        }
      }
      continue;
    }

    // Re-emit every already-emitted window this straggler falls into —
    // ends in [ts, ts + duration) — plus the straggler's own window end
    // if it was never emitted, all ascending so downstream folds see
    // revisions in event-time order. A copy of the current window slides
    // from end to end.
    auto own =
        std::lower_bound(emitted_ends_.begin(), emitted_ends_.end(), ts);
    if (own == emitted_ends_.end() || *own != ts) {
      own = emitted_ends_.insert(own, ts);
    }
    RunningWindow revising = current_;
    size_t lo = front_, hi = window_.size();
    size_t revised = 0;
    for (auto it = own;
         it != emitted_ends_.end() && *it < ts + options_.duration; ++it) {
      Slide(revising, lo, hi, *it);
      pending_.push_back(MakeOutput(*it, revising, /*revision=*/true, *t));
      ++revised;
    }
    if (options_.journal != nullptr && revised > 0) {
      // FormatMetricValue keeps the event-time detail byte-stable.
      options_.journal->Append(
          obs::EventType::kLateRevision, input_consumed_, "time_window",
          "late tuple at t=" + obs::FormatMetricValue(ts) + " revised " +
              std::to_string(revised) + " window(s)");
    }
  }
}

void TimeWindowAggregate::RunningWindow::Add(const WindowEntry& e) {
  sum_mean.Add(e.mean);
  sum_variance.Add(e.variance);
  ++df_counts[e.sample_size];
  ++count;
}

void TimeWindowAggregate::RunningWindow::Remove(const WindowEntry& e) {
  sum_mean.Remove(e.mean);
  sum_variance.Remove(e.variance);
  auto it = df_counts.find(e.sample_size);
  if (--it->second == 0) df_counts.erase(it);
  --count;
}

KeyWindowState::Aggregate TimeWindowAggregate::RunningWindow::Read(
    WindowAggFn fn) const {
  KeyWindowState::Aggregate agg;
  agg.mean = sum_mean.Read();
  agg.variance = sum_variance.Read();
  agg.df = count == 0 ? dist::RandomVar::kCertainSampleSize
                      : df_counts.begin()->first;
  if (fn == WindowAggFn::kAvg && count > 0) {
    const double w = static_cast<double>(count);
    agg.mean /= w;
    agg.variance /= w * w;
  }
  return agg;
}

void TimeWindowAggregate::InsertSorted(const TimedEntry& e) {
  // Arrivals are mostly in order: scan back from the end.
  auto pos = window_.end();
  while (pos != window_.begin() &&
         std::tie(e.timestamp, e.sequence) <
             std::tie((pos - 1)->timestamp, (pos - 1)->sequence)) {
    --pos;
  }
  window_.insert(pos, e);
  if (e.timestamp > last_timestamp_ - options_.duration) {
    current_.Add(e.entry);
  } else {
    // A straggler behind the current window lands before its front.
    ++front_;
  }
}

void TimeWindowAggregate::Slide(RunningWindow& state, size_t& lo,
                                size_t& hi, double end) const {
  const double lower = end - options_.duration;
  // Adds first, so every d.f. count stays non-negative.
  while (lo > 0 && window_[lo - 1].timestamp > lower) {
    state.Add(window_[--lo].entry);
  }
  while (hi < window_.size() && window_[hi].timestamp <= end) {
    state.Add(window_[hi++].entry);
  }
  while (hi > lo && window_[hi - 1].timestamp > end) {
    state.Remove(window_[--hi].entry);
  }
  while (lo < hi && window_[lo].timestamp <= lower) {
    state.Remove(window_[lo++].entry);
  }
}

TimeWindowAggregate::Output TimeWindowAggregate::MakeOutput(
    double window_end, const RunningWindow& state, bool revision,
    const Tuple& trigger) const {
  Output o;
  o.window_end = window_end;
  o.aggregate = state.Read(options_.fn);
  o.revision = revision;
  o.sequence = trigger.sequence();
  o.membership_prob = trigger.membership_prob();
  o.membership_df_n = trigger.membership_df_n();
  return o;
}

Tuple TimeWindowAggregate::MaterializeOutput(const Output& o) const {
  std::vector<expr::Value> values{expr::Value(o.aggregate.ToRandomVar())};
  if (options_.emit_revisions) {
    values.emplace_back(o.window_end);
    values.emplace_back(o.revision);
  }
  Tuple out(std::move(values));
  out.set_sequence(o.sequence);
  out.set_membership_prob(o.membership_prob);
  out.set_membership_df_n(o.membership_df_n);
  return out;
}

Status TimeWindowAggregate::Reset() {
  window_.clear();
  front_ = 0;
  current_ = {};
  emitted_ends_.clear();
  pending_.clear();
  last_timestamp_ = -std::numeric_limits<double>::infinity();
  input_consumed_ = 0;
  shed_late_ = 0;
  return child_->Reset();
}

Result<std::string> TimeWindowAggregate::SaveCheckpoint() const {
  serde::CheckpointWriter w;
  w.Token("twagg.v1");
  w.Uint(static_cast<uint64_t>(options_.fn));
  w.Double(options_.duration);
  w.Uint(options_.require_ordered ? 1 : 0);
  w.Uint(options_.emit_revisions ? 1 : 0);
  w.Double(options_.allowed_lateness);
  w.Double(last_timestamp_);
  w.Uint(input_consumed_);
  w.Uint(shed_late_);
  w.Uint(window_.size());
  for (const TimedEntry& e : window_) {
    w.Double(e.timestamp);
    w.Double(e.entry.mean);
    w.Double(e.entry.variance);
    w.Uint(e.entry.sample_size);
    w.Uint(e.sequence);
  }
  w.Uint(emitted_ends_.size());
  for (double end : emitted_ends_) w.Double(end);
  w.Uint(pending_.size());
  for (const Output& o : pending_) {
    w.Double(o.window_end);
    w.Double(o.aggregate.mean);
    w.Double(o.aggregate.variance);
    w.Uint(o.aggregate.df);
    w.Uint(o.revision ? 1 : 0);
    w.Uint(o.sequence);
    w.Double(o.membership_prob);
    w.Uint(o.membership_df_n);
  }
  return std::move(w).Finish();
}

Status TimeWindowAggregate::RestoreCheckpoint(std::string_view blob) {
  serde::CheckpointReader r(blob);
  AUSDB_RETURN_NOT_OK(r.ExpectToken("twagg.v1"));
  AUSDB_ASSIGN_OR_RETURN(uint64_t fn, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(double duration, r.NextDouble());
  AUSDB_ASSIGN_OR_RETURN(uint64_t require_ordered, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(uint64_t emit_revisions, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(double allowed_lateness, r.NextDouble());
  if (fn != static_cast<uint64_t>(options_.fn) ||
      duration != options_.duration ||
      (require_ordered != 0) != options_.require_ordered ||
      (emit_revisions != 0) != options_.emit_revisions ||
      allowed_lateness != options_.allowed_lateness) {
    return Status::InvalidArgument(
        "checkpoint was taken from a differently configured "
        "TimeWindowAggregate");
  }
  AUSDB_ASSIGN_OR_RETURN(double last_timestamp, r.NextDouble());
  AUSDB_ASSIGN_OR_RETURN(uint64_t input_consumed, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(uint64_t shed_late, r.NextUint());
  // Each entry is 3 hex doubles + 2 uints: >= 40 bytes with separators.
  AUSDB_ASSIGN_OR_RETURN(uint64_t count, r.NextCount(40));
  std::deque<TimedEntry> window;
  for (uint64_t i = 0; i < count; ++i) {
    TimedEntry e;
    AUSDB_ASSIGN_OR_RETURN(e.timestamp, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(e.entry.mean, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(e.entry.variance, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(e.entry.sample_size, r.NextUint());
    AUSDB_ASSIGN_OR_RETURN(e.sequence, r.NextUint());
    window.push_back(e);
  }
  AUSDB_ASSIGN_OR_RETURN(uint64_t ends_count, r.NextCount(17));
  std::deque<double> ends;
  for (uint64_t i = 0; i < ends_count; ++i) {
    AUSDB_ASSIGN_OR_RETURN(double end, r.NextDouble());
    ends.push_back(end);
  }
  // Each pending output: 4 hex doubles + 4 uints: >= 60 bytes.
  AUSDB_ASSIGN_OR_RETURN(uint64_t pending_count, r.NextCount(60));
  std::deque<Output> pending;
  for (uint64_t i = 0; i < pending_count; ++i) {
    Output o;
    AUSDB_ASSIGN_OR_RETURN(o.window_end, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(o.aggregate.mean, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(o.aggregate.variance, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(o.aggregate.df, r.NextUint());
    AUSDB_ASSIGN_OR_RETURN(uint64_t revision, r.NextUint());
    o.revision = revision != 0;
    AUSDB_ASSIGN_OR_RETURN(o.sequence, r.NextUint());
    AUSDB_ASSIGN_OR_RETURN(o.membership_prob, r.NextDouble());
    AUSDB_ASSIGN_OR_RETURN(o.membership_df_n, r.NextUint());
    pending.push_back(o);
  }
  window_ = std::move(window);
  // The running state is a pure function of the retained entries.
  front_ = 0;
  current_ = {};
  size_t end = 0;
  Slide(current_, front_, end, last_timestamp);
  emitted_ends_ = std::move(ends);
  pending_ = std::move(pending);
  last_timestamp_ = last_timestamp;
  input_consumed_ = input_consumed;
  shed_late_ = shed_late;
  return Status::OK();
}

}  // namespace engine
}  // namespace ausdb
