#include "src/govern/signals.h"

#include <algorithm>

namespace ausdb {
namespace govern {

double QueuePressure(const SignalSnapshot& snap) {
  if (snap.queue_capacity == 0) return 0.0;
  return std::min(1.0, static_cast<double>(snap.queue_depth) /
                           static_cast<double>(snap.queue_capacity));
}

double MemoryPressure(const SignalSnapshot& snap) {
  if (snap.memory_limit_bytes == 0) return 0.0;
  return std::min(1.0, static_cast<double>(snap.memory_used_bytes) /
                           static_cast<double>(snap.memory_limit_bytes));
}

double LatencyPressure(const SignalSnapshot& snap) {
  if (snap.latency_slo_seconds <= 0.0) return 0.0;
  return std::clamp(snap.sampled_latency_seconds / snap.latency_slo_seconds,
                    0.0, 2.0);
}

double Pressure(const SignalSnapshot& snap) {
  return std::max({QueuePressure(snap), MemoryPressure(snap),
                   LatencyPressure(snap)});
}

LiveSignalSource::LiveSignalSource(Bindings bindings,
                                   const obs::Clock* clock)
    : bindings_(bindings), clock_(clock) {
  if (bindings_.tuples_per_epoch == 0) bindings_.tuples_per_epoch = 1;
}

SignalSnapshot LiveSignalSource::Snapshot(uint64_t epoch) {
  SignalSnapshot snap;
  snap.epoch = epoch;
  if (bindings_.queue_depth != nullptr) {
    const int64_t depth = bindings_.queue_depth->Value();
    snap.queue_depth = depth > 0 ? static_cast<size_t>(depth) : 0;
    snap.queue_capacity = bindings_.queue_capacity;
  }
  if (bindings_.push_waits != nullptr) {
    snap.backpressure_events += bindings_.push_waits->Value();
  }
  if (bindings_.try_rejections != nullptr) {
    snap.backpressure_events += bindings_.try_rejections->Value();
  }
  if (bindings_.shed != nullptr) {
    snap.shed_tuples = bindings_.shed->Value();
  }
  if (bindings_.budget != nullptr) {
    snap.memory_used_bytes = bindings_.budget->used();
    snap.memory_limit_bytes = bindings_.budget->limit();
  }
  snap.latency_slo_seconds = bindings_.latency_slo_seconds;
  // Sampled per-tuple latency: seconds this epoch took divided by the
  // tuples it covered. Read through the injectable clock, so tests can
  // script exact latencies with a FakeClock.
  const uint64_t now = clock_->NowNanos();
  if (has_last_ && bindings_.latency_slo_seconds > 0.0) {
    const double elapsed = obs::NanosToSeconds(now - last_epoch_nanos_);
    snap.sampled_latency_seconds =
        elapsed / static_cast<double>(bindings_.tuples_per_epoch);
  }
  last_epoch_nanos_ = now;
  has_last_ = true;
  return snap;
}

}  // namespace govern
}  // namespace ausdb
