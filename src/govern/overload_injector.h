#ifndef AUSDB_GOVERN_OVERLOAD_INJECTOR_H_
#define AUSDB_GOVERN_OVERLOAD_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/govern/signals.h"

namespace ausdb {
namespace govern {

/// One load regime, held for `epochs` decision epochs.
struct OverloadPhase {
  size_t epochs = 1;

  /// Queue occupancy fraction in [0, 1] during the phase.
  double queue_fill = 0.0;

  /// Memory-budget occupancy fraction in [0, 1] during the phase.
  double memory_fill = 0.0;

  /// Sampled latency as a multiple of the SLO (1.0 = exactly at SLO).
  double latency_ratio = 0.0;

  /// Backpressure events and shed tuples accrued per epoch of the
  /// phase (cumulative counters in the snapshots, like the real ones).
  uint64_t backpressure_per_epoch = 0;
  uint64_t shed_per_epoch = 0;
};

/// \brief Overload fault injector, in the FaultInjector mold: a
/// SignalSource whose snapshots follow a scripted phase schedule
/// instead of live gauges. The snapshot for epoch e is a pure function
/// of (phases, e) — no clocks, no randomness — so an overload scenario
/// replays exactly, which is what the scripted-load equivalence
/// harness and bench_overload assert against.
///
/// Epochs past the end of the schedule hold the last phase's regime
/// (cumulative counters keep accruing), modeling sustained load.
class OverloadInjector final : public SignalSource {
 public:
  /// `phases` must be non-empty; zero-epoch phases count as one epoch.
  /// The queue capacity / memory limit / latency SLO give the fills and
  /// ratios concrete units in the emitted snapshots.
  explicit OverloadInjector(std::vector<OverloadPhase> phases,
                            size_t queue_capacity = 1024,
                            size_t memory_limit_bytes = 64 << 20,
                            double latency_slo_seconds = 0.001);

  SignalSnapshot Snapshot(uint64_t epoch) override;

  /// Total epochs the schedule spans before the last phase repeats.
  size_t scripted_epochs() const { return total_epochs_; }

  // Canned scenarios, shared by tests and bench_overload.

  /// Steady light load: the governor should never leave rung 0.
  static std::vector<OverloadPhase> CalmScript(size_t epochs);

  /// Calm, then a `magnitude`x load spike for `spike_epochs`, then calm
  /// again — the DESIGN/README "10x spike" scenario.
  static std::vector<OverloadPhase> SpikeScript(size_t calm_epochs,
                                                size_t spike_epochs,
                                                double magnitude = 10.0);

  /// Pressure pinned past every rung: forces admission control and,
  /// held long enough, a breaker trip.
  static std::vector<OverloadPhase> SaturationScript(size_t epochs);

 private:
  struct Segment {
    uint64_t first_epoch;  ///< first epoch this phase covers
    OverloadPhase phase;
    /// Cumulative counters at the start of the segment.
    uint64_t backpressure_base;
    uint64_t shed_base;
  };

  std::vector<Segment> segments_;
  size_t total_epochs_ = 0;
  size_t queue_capacity_;
  size_t memory_limit_bytes_;
  double latency_slo_seconds_;
};

}  // namespace govern
}  // namespace ausdb

#endif  // AUSDB_GOVERN_OVERLOAD_INJECTOR_H_
