#include "src/obs/metrics.h"

#include <algorithm>

#include "src/common/logging.h"

namespace ausdb {
namespace obs {

Histogram::Histogram(std::vector<double> boundaries)
    : boundaries_(std::move(boundaries)),
      buckets_(boundaries_.size() + 1) {
  AUSDB_CHECK(!boundaries_.empty()) << "histogram needs >= 1 boundary";
  for (size_t i = 1; i < boundaries_.size(); ++i) {
    AUSDB_CHECK_LT(boundaries_[i - 1], boundaries_[i])
        << "histogram boundaries must be strictly increasing";
  }
}

void Histogram::Record(double value) {
  // Binary search for the first boundary >= value; values above every
  // boundary land in the trailing overflow bucket.
  size_t lo = 0;
  size_t hi = boundaries_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (value <= boundaries_[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  buckets_[lo].fetch_add(1, std::memory_order_relaxed);
  // CAS loop rather than atomic<double>::fetch_add for toolchain
  // portability; retries make concurrent adds lossless.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<double> DefaultLatencySecondsBoundaries() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

std::vector<double> DefaultEventTimeLagBoundaries() {
  return {1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0};
}

std::vector<double> DefaultHalfWidthBoundaries() {
  return {1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 0.5, 1.0, 5.0, 10.0,
          50.0, 100.0};
}

namespace {

Labels SortedLabels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels,
                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!help.empty()) family_help_.try_emplace(name, help);
  auto [it, inserted] = counters_.try_emplace(
      MetricKey{name, SortedLabels(labels)});
  if (inserted) it->second.metric = std::make_unique<Counter>();
  return it->second.metric.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels,
                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!help.empty()) family_help_.try_emplace(name, help);
  auto [it, inserted] =
      gauges_.try_emplace(MetricKey{name, SortedLabels(labels)});
  if (inserted) it->second.metric = std::make_unique<Gauge>();
  return it->second.metric.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const Labels& labels,
                                        std::vector<double> boundaries,
                                        const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!help.empty()) family_help_.try_emplace(name, help);
  auto [it, inserted] =
      histograms_.try_emplace(MetricKey{name, SortedLabels(labels)});
  if (inserted) {
    it->second.metric = std::make_unique<Histogram>(std::move(boundaries));
  }
  return it->second.metric.get();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  const auto help_of = [this](const std::string& name) {
    const auto it = family_help_.find(name);
    return it == family_help_.end() ? std::string() : it->second;
  };
  snap.counters.reserve(counters_.size());
  for (const auto& [key, entry] : counters_) {
    snap.counters.push_back(
        {key, help_of(key.name), entry.metric->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [key, entry] : gauges_) {
    snap.gauges.push_back({key, help_of(key.name), entry.metric->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [key, entry] : histograms_) {
    HistogramSample s;
    s.key = key;
    s.help = help_of(key.name);
    s.boundaries = entry.metric->boundaries();
    s.buckets = entry.metric->BucketCounts();
    s.sum = entry.metric->Sum();
    // Count derives from the captured buckets, so the invariant
    // `sum(buckets) == count` holds within this snapshot by
    // construction — even while other threads keep recording.
    s.count = 0;
    for (uint64_t b : s.buckets) s.count += b;
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

}  // namespace obs
}  // namespace ausdb
