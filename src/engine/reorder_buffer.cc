#include "src/engine/reorder_buffer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/serde/checkpoint.h"
#include "src/serde/tuple_codec.h"

namespace ausdb {
namespace engine {

Result<std::unique_ptr<ReorderBuffer>> ReorderBuffer::Make(
    OperatorPtr child, std::string timestamp_column,
    ReorderBufferOptions options) {
  if (!std::isfinite(options.lateness_bound) ||
      options.lateness_bound < 0.0) {
    return Status::InvalidArgument(
        "reorder lateness bound must be finite and >= 0");
  }
  AUSDB_ASSIGN_OR_RETURN(size_t ts_idx,
                         child->schema().IndexOf(timestamp_column));
  if (child->schema().field(ts_idx).type != FieldType::kDouble) {
    return Status::TypeError("reorder timestamp column '" +
                             timestamp_column +
                             "' must be a deterministic double");
  }
  return std::unique_ptr<ReorderBuffer>(
      new ReorderBuffer(std::move(child), ts_idx, std::move(options)));
}

ReorderBuffer::ReorderBuffer(OperatorPtr child, size_t ts_index,
                             ReorderBufferOptions options)
    : child_(std::move(child)),
      ts_index_(ts_index),
      options_(std::move(options)),
      watermark_(stream::WatermarkPolicyOptions{options_.lateness_bound}) {
  if (options_.metrics != nullptr) {
    const obs::Labels labels = {{"buffer", options_.metrics_label}};
    m_depth_ = options_.metrics->GetGauge(
        "ausdb_engine_reorder_depth", labels,
        "Tuples currently held by the reorder buffer");
    m_watermark_milli_ = options_.metrics->GetGauge(
        "ausdb_engine_reorder_watermark_event_time_milli", labels,
        "Current event-time watermark, in milli-units of the timestamp "
        "column");
    m_late_ = options_.metrics->GetCounter(
        "ausdb_engine_reorder_late_total", labels,
        "Tuples that arrived at/below the watermark (passed through "
        "late)");
    m_forced_ = options_.metrics->GetCounter(
        "ausdb_engine_reorder_forced_release_total", labels,
        "Tuples released before their watermark because the buffer was "
        "at capacity");
    m_early_ = options_.metrics->GetCounter(
        "ausdb_engine_reorder_governed_early_release_total", labels,
        "Tuples released before the true watermark because a governed "
        "rung shortened the hold horizon");
    m_lag_ = options_.metrics->GetHistogram(
        "ausdb_engine_reorder_event_time_lag", labels,
        obs::DefaultEventTimeLagBoundaries(),
        "Arrival lag behind the max observed event time, in timestamp "
        "units");
  }
}

void ReorderBuffer::UpdateGauges() {
  if (m_depth_ != nullptr) {
    m_depth_->Set(static_cast<int64_t>(buffered_count()));
  }
  if (m_watermark_milli_ != nullptr && watermark_.has_observation()) {
    m_watermark_milli_->Set(
        static_cast<int64_t>(watermark_.watermark() * 1000.0));
  }
}

ReorderBuffer::~ReorderBuffer() {
  // Hand every outstanding charge back so a torn-down plan leaves the
  // budget balanced for its successors.
  for (Held& held : buffer_) ReleaseCharge(held);
}

double ReorderBuffer::LatenessScaleFor(uint32_t rung) const {
  if (options_.ladder == nullptr || rung == 0) return 1.0;
  const auto& rungs = options_.ladder->rungs;
  if (rungs.empty()) return 1.0;
  return rungs[std::min<size_t>(rung, rungs.size() - 1)].lateness_scale;
}

double ReorderBuffer::EffectiveWatermark() const {
  const double wm = watermark_.watermark();
  if (!has_horizon_floor_) return wm;
  return std::max(wm, horizon_floor_);
}

void ReorderBuffer::ReleaseCharge(Held& held) {
  if (held.bytes != 0 && options_.memory_budget != nullptr) {
    options_.memory_budget->Release(held.bytes);
  }
  held.bytes = 0;
}

void ReorderBuffer::Insert(double ts, Tuple&& t, size_t bytes) {
  const std::pair<double, uint64_t> key{ts, t.sequence()};
  // Released tuples are delivered first, whatever their keys.
  if (buffer_.size() == released_ || !(key < buffer_.back().key)) {
    buffer_.emplace_back(key, std::move(t), bytes);
    return;
  }
  auto it = std::upper_bound(
      buffer_.begin() + static_cast<std::ptrdiff_t>(released_),
      buffer_.end(), key,
      [](const std::pair<double, uint64_t>& k, const Held& h) {
        return k < h.key;
      });
  buffer_.emplace(it, key, std::move(t), bytes);
}

void ReorderBuffer::ReleaseUpToWatermark() {
  const double wm = watermark_.watermark();
  const double eff = EffectiveWatermark();
  while (released_ < buffer_.size() && buffer_[released_].key.first <= eff) {
    if (buffer_[released_].key.first > wm) {
      // Released ahead of the true watermark: the governed horizon cut
      // the hold short. A straggler this release outruns will surface
      // late downstream — precision shed, data kept.
      ++stats_.early_releases;
      if (m_early_ != nullptr) m_early_->Increment();
    }
    ReleaseCharge(buffer_[released_]);
    ++released_;
  }
}

void ReorderBuffer::EnforceCapacity() {
  if (options_.capacity == 0) return;
  while (buffered_count() > options_.capacity) {
    ReleaseCharge(buffer_[released_]);
    ++released_;
    ++stats_.forced_releases;
    if (m_forced_ != nullptr) m_forced_->Increment();
  }
}

Result<std::optional<Tuple>> ReorderBuffer::Next() {
  for (;;) {
    if (released_ > 0) {
      std::optional<Tuple> out(std::move(buffer_.front().tuple));
      buffer_.pop_front();
      --released_;
      UpdateGauges();
      return out;
    }
    if (exhausted_) {
      if (!buffer_.empty()) {
        // End of stream: release everything still held, in event-time
        // order.
        for (Held& held : buffer_) ReleaseCharge(held);
        released_ = buffer_.size();
        continue;
      }
      return std::optional<Tuple>(std::nullopt);
    }

    AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
    if (!t.has_value()) {
      exhausted_ = true;
      continue;
    }
    AUSDB_ASSIGN_OR_RETURN(double ts, t->value(ts_index_).AsDouble());
    if (!std::isfinite(ts)) {
      return Status::InvalidArgument(
          "non-finite event timestamp in reorder buffer: " +
          t->value(ts_index_).ToString());
    }
    ++stats_.admitted;
    if (m_lag_ != nullptr && watermark_.has_observation() &&
        ts < watermark_.max_timestamp()) {
      m_lag_->Record(watermark_.max_timestamp() - ts);
    }
    if (watermark_.IsLate(ts) ||
        (has_horizon_floor_ && ts <= horizon_floor_)) {
      // Beyond the reorder horizon (true or governed): cannot be put
      // back in order here; the downstream window's allowed-lateness
      // revision path owns it.
      ++stats_.late;
      if (m_late_ != nullptr) m_late_->Increment();
      UpdateGauges();
      return std::optional<Tuple>(std::move(*t));
    }
    size_t charged = 0;
    if (options_.memory_budget != nullptr) {
      charged = t->ApproxBytes();
      AUSDB_RETURN_NOT_OK(
          options_.memory_budget->TryReserve(charged, "reorder"));
    }
    // A governed rung shrinks this tuple's hold horizon; the floor it
    // sets is a pure function of the stamped tuple sequence, so release
    // decisions stay deterministic.
    bool floor_advanced = false;
    const double scale = LatenessScaleFor(t->precision_rung());
    if (scale < 1.0) {
      const double floor = ts - options_.lateness_bound * scale;
      if (!has_horizon_floor_ || floor > horizon_floor_) {
        has_horizon_floor_ = true;
        horizon_floor_ = floor;
        floor_advanced = true;
      }
    }
    Insert(ts, std::move(*t), charged);
    if (watermark_.Observe(ts) || floor_advanced) ReleaseUpToWatermark();
    EnforceCapacity();
    UpdateGauges();
  }
}

Status ReorderBuffer::Reset() {
  for (Held& held : buffer_) ReleaseCharge(held);
  buffer_.clear();
  released_ = 0;
  watermark_.Reset();
  exhausted_ = false;
  stats_ = ReorderStats{};
  has_horizon_floor_ = false;
  horizon_floor_ = 0.0;
  UpdateGauges();
  return child_->Reset();
}

Result<std::string> ReorderBuffer::SaveCheckpoint() const {
  serde::CheckpointWriter w;
  // The governed horizon floor is part of the record: without it a
  // restore would replay release decisions at the full horizon and
  // diverge. An ungoverned buffer never raises it, so it writes no
  // floor (0, 0.0) and no early releases.
  w.Token("rob.v3");
  w.Double(watermark_.max_timestamp());
  w.Uint(exhausted_ ? 1 : 0);
  w.Uint(stats_.admitted);
  w.Uint(stats_.late);
  w.Uint(stats_.forced_releases);
  w.Uint(stats_.early_releases);
  w.Uint(has_horizon_floor_ ? 1 : 0);
  w.Double(has_horizon_floor_ ? horizon_floor_ : 0.0);
  w.Uint(buffered_count());
  for (size_t i = released_; i < buffer_.size(); ++i) {
    AUSDB_RETURN_NOT_OK(serde::WriteTupleCheckpoint(w, buffer_[i].tuple));
  }
  w.Uint(released_);
  for (size_t i = 0; i < released_; ++i) {
    AUSDB_RETURN_NOT_OK(serde::WriteTupleCheckpoint(w, buffer_[i].tuple));
  }
  return std::move(w).Finish();
}

Status ReorderBuffer::RestoreCheckpoint(std::string_view blob) {
  serde::CheckpointReader r(blob);
  AUSDB_ASSIGN_OR_RETURN(std::string_view tag, r.NextToken());
  if (tag != "rob.v3") {
    return Status::Corruption("unknown reorder-checkpoint tag");
  }
  AUSDB_ASSIGN_OR_RETURN(double max_ts, r.NextDouble());
  AUSDB_ASSIGN_OR_RETURN(uint64_t exhausted, r.NextUint());
  ReorderStats stats;
  AUSDB_ASSIGN_OR_RETURN(stats.admitted, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(stats.late, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(stats.forced_releases, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(stats.early_releases, r.NextUint());
  AUSDB_ASSIGN_OR_RETURN(uint64_t has_floor_raw, r.NextUint());
  const bool has_floor = has_floor_raw != 0;
  AUSDB_ASSIGN_OR_RETURN(double floor, r.NextDouble());
  // The smallest buffered tuple encodes the "tup" header plus counts:
  // >= 16 bytes with separators.
  AUSDB_ASSIGN_OR_RETURN(uint64_t buffered, r.NextCount(16));
  std::deque<Held> buffer;
  for (uint64_t i = 0; i < buffered; ++i) {
    AUSDB_ASSIGN_OR_RETURN(Tuple t, serde::ReadTupleCheckpoint(r));
    if (ts_index_ >= t.num_values()) {
      return Status::Corruption(
          "reorder checkpoint tuple lacks the timestamp column");
    }
    AUSDB_ASSIGN_OR_RETURN(double ts, t.value(ts_index_).AsDouble());
    // Blobs written by SaveCheckpoint are already sorted; sort defensively
    // anyway so a hand-assembled blob cannot break the release invariant.
    Held held{{ts, t.sequence()}, std::move(t)};
    auto it = std::upper_bound(
        buffer.begin(), buffer.end(), held.key,
        [](const std::pair<double, uint64_t>& key, const Held& h) {
          return key < h.key;
        });
    buffer.insert(it, std::move(held));
  }
  AUSDB_ASSIGN_OR_RETURN(uint64_t ready, r.NextCount(16));
  std::deque<Held> released;
  for (uint64_t i = 0; i < ready; ++i) {
    AUSDB_ASSIGN_OR_RETURN(Tuple t, serde::ReadTupleCheckpoint(r));
    // A released tuple's key is never compared again.
    released.push_back({{0.0, t.sequence()}, std::move(t)});
  }
  // Swap the restored buffer in charge-coherently: hand back what the
  // old buffer held, then charge every restored tuple.
  if (options_.memory_budget != nullptr) {
    for (Held& held : buffer_) ReleaseCharge(held);
    for (size_t i = 0; i < buffer.size(); ++i) {
      buffer[i].bytes = buffer[i].tuple.ApproxBytes();
      Status st =
          options_.memory_budget->TryReserve(buffer[i].bytes, "reorder");
      if (!st.ok()) {
        buffer[i].bytes = 0;
        for (size_t j = 0; j < i; ++j) ReleaseCharge(buffer[j]);
        return st;
      }
    }
  }
  released_ = released.size();
  buffer_ = std::move(released);
  for (Held& held : buffer) buffer_.push_back(std::move(held));
  watermark_.RestoreFromMaxTimestamp(max_ts);
  exhausted_ = exhausted != 0;
  stats_ = stats;
  has_horizon_floor_ = has_floor;
  horizon_floor_ = floor;
  UpdateGauges();
  return Status::OK();
}

}  // namespace engine
}  // namespace ausdb
