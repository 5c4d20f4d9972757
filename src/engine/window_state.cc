#include "src/engine/window_state.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/dist/gaussian.h"

namespace ausdb {
namespace engine {

Result<WindowEntry> WindowEntryFromValue(const expr::Value& v) {
  WindowEntry e;
  if (v.is_random_var()) {
    AUSDB_ASSIGN_OR_RETURN(dist::RandomVar rv, v.random_var());
    if (!rv.is_certain() &&
        rv.distribution()->kind() != dist::DistributionKind::kGaussian) {
      return Status::NotImplemented(
          "closed-form window aggregation requires Gaussian or "
          "deterministic inputs; got " + rv.distribution()->ToString());
    }
    e.mean = rv.Mean();
    e.variance = rv.Variance();
    e.sample_size = rv.sample_size();
  } else {
    AUSDB_ASSIGN_OR_RETURN(double d, v.AsDouble());
    e.mean = d;
    e.variance = 0.0;
    e.sample_size = dist::RandomVar::kCertainSampleSize;
  }
  return e;
}

Result<std::string> PartitionKeyFromValue(const expr::Value& v) {
  if (v.is_string()) return *v.string_value();
  AUSDB_ASSIGN_OR_RETURN(double kd, v.AsDouble());
  if (std::isnan(kd)) return Status::InvalidArgument("group-by key is NaN");
  // Most significant byte first, so checkpoint blobs (keys sorted by
  // byte) are the same on every host.
  const uint64_t bits = std::bit_cast<uint64_t>(kd == 0.0 ? 0.0 : kd);
  std::string key(sizeof(bits), '\0');
  for (size_t i = 0; i < sizeof(bits); ++i) {
    key[i] = static_cast<char>(bits >> (8 * (sizeof(bits) - 1 - i)));
  }
  return key;
}

dist::RandomVar KeyWindowState::Aggregate::ToRandomVar() const {
  return dist::RandomVar(
      std::make_shared<dist::GaussianDist>(mean, std::max(0.0, variance)),
      df);
}

void KeyWindowState::PushMinSlot(size_t sample_size) {
  while (!min_deque_.empty() &&
         min_deque_.back().sample_size >= sample_size) {
    min_deque_.pop_back();
  }
  min_deque_.push_back({pushed_++, sample_size});
}

void KeyWindowState::Push(const WindowEntry& e) {
  window.push_back(e);
  sum_mean.Add(e.mean);
  sum_variance.Add(e.variance);
  PushMinSlot(e.sample_size);
}

void KeyWindowState::PopFront() {
  const WindowEntry& old = window.front();
  sum_mean.Subtract(old.mean);
  sum_variance.Subtract(old.variance);
  if (min_deque_.front().position == pushed_ - window.size()) {
    min_deque_.pop_front();
  }
  window.pop_front();
}

void KeyWindowState::RebuildMinDeque() {
  min_deque_.clear();
  pushed_ = 0;
  for (const WindowEntry& e : window) PushMinSlot(e.sample_size);
}

std::optional<KeyWindowState::Aggregate> KeyWindowState::Observe(
    const WindowEntry& e, const WindowAggregateOptions& options) {
  Push(e);
  if (options.kind == WindowKind::kSliding &&
      window.size() > options.window_size) {
    PopFront();
  }
  if (window.size() < options.window_size) return std::nullopt;

  const double w = static_cast<double>(window.size());
  Aggregate agg;
  agg.mean = sum_mean.Get();
  agg.variance = sum_variance.Get();
  if (options.fn == WindowAggFn::kAvg) {
    agg.mean /= w;
    agg.variance /= w * w;
  }
  agg.df = min_deque_.front().sample_size;

  if (options.kind == WindowKind::kTumbling) {
    window.clear();
    min_deque_.clear();
    pushed_ = 0;
    sum_mean.Reset();
    sum_variance.Reset();
  }
  return agg;
}

}  // namespace engine
}  // namespace ausdb
