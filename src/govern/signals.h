#ifndef AUSDB_GOVERN_SIGNALS_H_
#define AUSDB_GOVERN_SIGNALS_H_

#include <cstddef>
#include <cstdint>

#include "src/common/memory_budget.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"

namespace ausdb {
namespace govern {

/// \brief One coherent reading of the engine's overload signals, taken
/// at a decision epoch boundary.
///
/// The obs layer's rule is that the data path never reads metrics back;
/// the governor is the single sanctioned exception, and this struct is
/// the narrow waist it reads through: a snapshot is taken once per
/// epoch (a tuple-count boundary, never a timer), the decision is a
/// pure function of the snapshot, and the scripted-load harness proves
/// determinism by substituting scripted snapshots for live ones.
struct SignalSnapshot {
  /// Decision epoch index this snapshot was taken for.
  uint64_t epoch = 0;

  /// Prefetch/transfer ring occupancy. capacity == 0 disables the
  /// queue-pressure component.
  size_t queue_depth = 0;
  size_t queue_capacity = 0;

  /// Cumulative producer-side backpressure events (blocking-push waits
  /// plus non-blocking TryPush rejections).
  uint64_t backpressure_events = 0;

  /// Cumulative tuples dropped by the pipeline (the thing the governor
  /// exists to prevent).
  uint64_t shed_tuples = 0;

  /// Per-plan memory budget occupancy. limit == 0 disables the
  /// memory-pressure component.
  size_t memory_used_bytes = 0;
  size_t memory_limit_bytes = 0;

  /// Sampled per-tuple operator latency (seconds), and the latency SLO
  /// it is judged against. slo == 0 disables the latency component.
  double sampled_latency_seconds = 0.0;
  double latency_slo_seconds = 0.0;
};

/// Queue occupancy in [0, 1]; 0 when no queue signal is bound.
double QueuePressure(const SignalSnapshot& snap);

/// Budget occupancy in [0, 1]; 0 when no budget signal is bound.
double MemoryPressure(const SignalSnapshot& snap);

/// latency / SLO, clamped to [0, 2]; 0 when no SLO is set. Values above
/// 1 mean the SLO is blown.
double LatencyPressure(const SignalSnapshot& snap);

/// \brief The scalar pressure the ladder is driven by: the max of the
/// component pressures (an engine is as overloaded as its most
/// overloaded resource). Pure function of the snapshot; >= 1.0 means at
/// or past capacity.
double Pressure(const SignalSnapshot& snap);

/// \brief Where the governor's snapshots come from: live gauges in
/// production, a deterministic script in the harness.
class SignalSource {
 public:
  virtual ~SignalSource() = default;

  /// The snapshot for decision epoch `epoch`. Called exactly once per
  /// epoch, at a batch boundary.
  virtual SignalSnapshot Snapshot(uint64_t epoch) = 0;
};

/// \brief Production source: reads the registry-owned gauges/counters
/// the stream and engine layers already maintain, the per-plan
/// MemoryBudget, and a sampled-latency reading derived from the
/// injectable obs::Clock (seconds elapsed between epoch snapshots,
/// divided by the tuples the epoch covered).
class LiveSignalSource final : public SignalSource {
 public:
  struct Bindings {
    /// Queue signals (e.g. the AsyncPrefetchSource ring). Any may be
    /// null.
    const obs::Gauge* queue_depth = nullptr;
    size_t queue_capacity = 0;
    const obs::Counter* push_waits = nullptr;
    const obs::Counter* try_rejections = nullptr;

    /// Cumulative counter of dropped tuples (e.g.
    /// ausdb_stream_supervision_quarantined_total).
    const obs::Counter* shed = nullptr;

    /// Per-plan budget; null disables memory pressure.
    const MemoryBudget* budget = nullptr;

    /// Latency SLO the sampled per-tuple latency is judged against;
    /// 0 disables latency pressure.
    double latency_slo_seconds = 0.0;

    /// Tuples per decision epoch (the governor's epoch_interval) —
    /// turns per-epoch elapsed time into per-tuple latency.
    size_t tuples_per_epoch = 1;
  };

  explicit LiveSignalSource(Bindings bindings,
                            const obs::Clock* clock =
                                obs::SteadyClock::Instance());

  SignalSnapshot Snapshot(uint64_t epoch) override;

 private:
  Bindings bindings_;
  const obs::Clock* clock_;
  uint64_t last_epoch_nanos_ = 0;
  bool has_last_ = false;
};

}  // namespace govern
}  // namespace ausdb

#endif  // AUSDB_GOVERN_SIGNALS_H_
