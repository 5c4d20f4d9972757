#ifndef AUSDB_STREAM_WATERMARK_H_
#define AUSDB_STREAM_WATERMARK_H_

#include <cmath>
#include <limits>

namespace ausdb {
namespace stream {

/// Options of a WatermarkPolicy.
struct WatermarkPolicyOptions {
  /// Bounded out-of-orderness: the watermark trails the maximum observed
  /// event time by this much. A tuple with timestamp <= watermark is
  /// *late* — the policy promises (to the operators consuming the
  /// watermark) that in-bound disorder never lags further than this.
  double bound = 0.0;
};

/// \brief Bounded-out-of-orderness watermark: the event-time low water
/// mark below which no further in-bound tuple may arrive.
///
/// Determinism contract: the watermark is a pure function of the event
/// timestamps observed so far — max(ts) - bound — and NEVER of wall
/// clock, arrival rate, or thread timing. Two runs observing the same
/// tuple sequence hold identical watermarks at every step, which is what
/// lets reorder/revision decisions stay bit-identical across async
/// prefetch depths and thread counts.
///
/// Before any observation the watermark is -infinity (nothing is late).
/// Non-finite timestamps are ignored by Observe() — rejecting them is
/// the caller's job (the reorder buffer fails the tuple) — so a
/// NaN can never poison the watermark itself.
class WatermarkPolicy {
 public:
  WatermarkPolicy() = default;
  explicit WatermarkPolicy(WatermarkPolicyOptions options)
      : options_(options) {}

  /// Feeds one observed event timestamp. Returns true when the
  /// watermark advanced.
  bool Observe(double ts) {
    if (!std::isfinite(ts) || ts <= max_timestamp_) return false;
    max_timestamp_ = ts;
    return true;
  }

  /// The current watermark: max observed timestamp minus the bound;
  /// -infinity before the first observation.
  double watermark() const {
    if (max_timestamp_ == -std::numeric_limits<double>::infinity()) {
      return -std::numeric_limits<double>::infinity();
    }
    return max_timestamp_ - options_.bound;
  }

  /// Highest event timestamp observed so far.
  double max_timestamp() const { return max_timestamp_; }

  /// True iff `ts` is late under the current watermark (would violate
  /// the in-order release contract).
  bool IsLate(double ts) const { return ts <= watermark() && has_observation(); }

  bool has_observation() const {
    return max_timestamp_ != -std::numeric_limits<double>::infinity();
  }

  const WatermarkPolicyOptions& options() const { return options_; }

  /// Forgets every observation (stream Reset).
  void Reset() {
    max_timestamp_ = -std::numeric_limits<double>::infinity();
  }

  /// Restores the policy from a checkpointed max timestamp — the whole
  /// state of a pure-function-of-max watermark. -infinity restores the
  /// pristine state.
  void RestoreFromMaxTimestamp(double max_ts) { max_timestamp_ = max_ts; }

 private:
  WatermarkPolicyOptions options_;
  double max_timestamp_ = -std::numeric_limits<double>::infinity();
};

}  // namespace stream
}  // namespace ausdb

#endif  // AUSDB_STREAM_WATERMARK_H_
