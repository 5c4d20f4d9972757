#ifndef AUSDB_OBS_METRICS_H_
#define AUSDB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ausdb {
namespace obs {

/// \brief Lock-cheap metrics substrate.
///
/// Design rules, enforced across every instrumented module:
///  - The data path only ever *writes* metrics (atomic increments); it
///    never reads them back to make decisions, so instrumentation cannot
///    perturb delivered output. Determinism stays bit-exact with metrics
///    on or off.
///  - Registration (name lookup, allocation) takes a mutex and happens
///    at pipeline construction time; the per-tuple hot path is a single
///    relaxed atomic RMW on a pre-resolved pointer.
///  - Naming convention: `ausdb_<module>_<name>_<unit>` with `_total`
///    for monotonic counters (Prometheus idiom), e.g.
///    `ausdb_engine_tuples_total`, `ausdb_recovery_checkpoint_bytes_total`,
///    `ausdb_stream_prefetch_ring_depth`.

/// One `key="value"` metric label.
struct Label {
  std::string key;
  std::string value;

  bool operator==(const Label& other) const = default;
  auto operator<=>(const Label& other) const = default;
};

using Labels = std::vector<Label>;

/// \brief Monotonic counter. Relaxed atomic increments: concurrent
/// writers lose nothing (fetch_add is a read-modify-write), and metric
/// reads need no ordering relative to data-path writes.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Instantaneous level (queue depth, backlog, last restored
/// generation). Set/Add/Sub; signed so transient dips below a baseline
/// are representable.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(int64_t delta) { value_.fetch_sub(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-boundary latency/size histogram with atomic bucket
/// increments.
///
/// Bucket semantics follow Prometheus `le` (cumulative-at-exposition):
/// internally bucket 0 counts values <= boundary[0] (the underflow
/// bucket), bucket i counts boundary[i-1] < v <= boundary[i], and the
/// final bucket counts v > boundary.back() (overflow / +Inf). The total
/// count is derived from the buckets at snapshot time, never stored
/// separately — that is what makes `sum of buckets == count` hold for
/// every snapshot, even one taken mid-storm of concurrent Record()s.
class Histogram {
 public:
  /// `boundaries` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> boundaries);

  /// Records one observation: one relaxed bucket increment plus one
  /// relaxed fetch_add into the value sum.
  void Record(double value);

  const std::vector<double>& boundaries() const { return boundaries_; }

  /// Per-bucket counts, size boundaries().size() + 1 (last is overflow).
  std::vector<uint64_t> BucketCounts() const;

  /// Sum of recorded values (for Prometheus `_sum`).
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Total observations (sum of BucketCounts()).
  uint64_t Count() const;

 private:
  const std::vector<double> boundaries_;
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Default latency boundaries (seconds): 1us .. 10s, log-spaced-ish.
std::vector<double> DefaultLatencySecondsBoundaries();

/// Default event-time lag boundaries (timestamp units, not wall clock):
/// 1e-3 .. 1e3, decades. Used by the reorder buffer's arrival-lag
/// histogram, whose unit is whatever the stream's timestamp column uses.
std::vector<double> DefaultEventTimeLagBoundaries();

/// Default delivered-CI half-width boundaries (value units): 1e-4 .. 100,
/// half-decades. Used by the accuracy ledger's per-query half-width
/// histogram, compared against the declared `WITH ACCURACY` epsilon.
std::vector<double> DefaultHalfWidthBoundaries();

/// One metric's identity inside a registry: name plus sorted labels.
struct MetricKey {
  std::string name;
  Labels labels;

  bool operator==(const MetricKey& other) const = default;
  auto operator<=>(const MetricKey& other) const = default;
};

/// Point-in-time samples, sorted by (name, labels) — the stable order
/// the exposition writers rely on.
struct CounterSample {
  MetricKey key;
  std::string help;
  uint64_t value = 0;
};

struct GaugeSample {
  MetricKey key;
  std::string help;
  int64_t value = 0;
};

struct HistogramSample {
  MetricKey key;
  std::string help;
  std::vector<double> boundaries;
  /// boundaries.size() + 1 entries; last is the overflow (+Inf) bucket.
  std::vector<uint64_t> buckets;
  double sum = 0.0;
  /// Always equals the sum of `buckets`.
  uint64_t count = 0;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// \brief Process- or pipeline-scoped registry owning every metric.
///
/// GetCounter/GetGauge/GetHistogram resolve (name, labels) to a stable
/// pointer, creating the metric on first use; returned pointers live as
/// long as the registry and are what instrumented components cache at
/// construction time. Lookup takes the registry mutex; the returned
/// objects are lock-free. Snapshot() copies every sample under the same
/// mutex (coherent membership, relaxed values).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// `help` is recorded on first registration of `name` and reused for
  /// every labeled instance of the same family.
  Counter* GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& help = "");

  /// `boundaries` is consulted only when the (name, labels) instance is
  /// created; later lookups of an existing instance ignore it.
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          std::vector<double> boundaries =
                              DefaultLatencySecondsBoundaries(),
                          const std::string& help = "");

  /// Point-in-time copy of every registered metric, deterministically
  /// sorted by (name, labels).
  MetricsSnapshot Snapshot() const;

 private:
  template <typename M>
  struct Entry {
    std::string help;
    std::unique_ptr<M> metric;
  };

  mutable std::mutex mu_;
  std::map<MetricKey, Entry<Counter>> counters_;
  std::map<MetricKey, Entry<Gauge>> gauges_;
  std::map<MetricKey, Entry<Histogram>> histograms_;
  /// First-registration help text per metric family name.
  std::map<std::string, std::string> family_help_;
};

}  // namespace obs
}  // namespace ausdb

#endif  // AUSDB_OBS_METRICS_H_
