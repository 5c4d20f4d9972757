#include "src/govern/overload_injector.h"

#include <algorithm>
#include <cmath>

namespace ausdb {
namespace govern {

OverloadInjector::OverloadInjector(std::vector<OverloadPhase> phases,
                                   size_t queue_capacity,
                                   size_t memory_limit_bytes,
                                   double latency_slo_seconds)
    : queue_capacity_(queue_capacity),
      memory_limit_bytes_(memory_limit_bytes),
      latency_slo_seconds_(latency_slo_seconds) {
  if (phases.empty()) phases.push_back(OverloadPhase{});
  uint64_t epoch = 0;
  uint64_t backpressure = 0;
  uint64_t shed = 0;
  for (OverloadPhase& phase : phases) {
    if (phase.epochs == 0) phase.epochs = 1;
    segments_.push_back({epoch, phase, backpressure, shed});
    epoch += phase.epochs;
    backpressure += phase.backpressure_per_epoch * phase.epochs;
    shed += phase.shed_per_epoch * phase.epochs;
  }
  total_epochs_ = static_cast<size_t>(epoch);
}

SignalSnapshot OverloadInjector::Snapshot(uint64_t epoch) {
  // Binary search for the segment covering `epoch`; epochs past the
  // schedule stay in the last segment with its per-epoch counters still
  // accruing.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), epoch,
      [](uint64_t e, const Segment& s) { return e < s.first_epoch; });
  const Segment& seg = *std::prev(it);
  const uint64_t into = epoch - seg.first_epoch;

  SignalSnapshot snap;
  snap.epoch = epoch;
  snap.queue_capacity = queue_capacity_;
  snap.queue_depth = static_cast<size_t>(
      std::lround(std::clamp(seg.phase.queue_fill, 0.0, 1.0) *
                  static_cast<double>(queue_capacity_)));
  snap.memory_limit_bytes = memory_limit_bytes_;
  snap.memory_used_bytes = static_cast<size_t>(
      std::lround(std::clamp(seg.phase.memory_fill, 0.0, 1.0) *
                  static_cast<double>(memory_limit_bytes_)));
  snap.latency_slo_seconds = latency_slo_seconds_;
  snap.sampled_latency_seconds =
      seg.phase.latency_ratio * latency_slo_seconds_;
  snap.backpressure_events =
      seg.backpressure_base + seg.phase.backpressure_per_epoch * (into + 1);
  snap.shed_tuples = seg.shed_base + seg.phase.shed_per_epoch * (into + 1);
  return snap;
}

std::vector<OverloadPhase> OverloadInjector::CalmScript(size_t epochs) {
  OverloadPhase calm;
  calm.epochs = epochs;
  calm.queue_fill = 0.1;
  calm.latency_ratio = 0.2;
  return {calm};
}

std::vector<OverloadPhase> OverloadInjector::SpikeScript(
    size_t calm_epochs, size_t spike_epochs, double magnitude) {
  OverloadPhase calm;
  calm.epochs = calm_epochs;
  calm.queue_fill = 0.1;
  calm.latency_ratio = 0.2;

  // A magnitude-x offered load pins the queue and blows the latency SLO
  // by the same factor (capped by what the signals can express).
  OverloadPhase spike;
  spike.epochs = spike_epochs;
  spike.queue_fill = std::min(1.0, 0.1 * magnitude);
  spike.latency_ratio = std::min(2.0, 0.2 * magnitude);
  spike.backpressure_per_epoch = static_cast<uint64_t>(magnitude);

  return {calm, spike, calm};
}

std::vector<OverloadPhase> OverloadInjector::SaturationScript(
    size_t epochs) {
  OverloadPhase pinned;
  pinned.epochs = epochs;
  pinned.queue_fill = 1.0;
  pinned.latency_ratio = 2.0;
  pinned.backpressure_per_epoch = 64;
  return {pinned};
}

}  // namespace govern
}  // namespace ausdb
