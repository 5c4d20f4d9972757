#ifndef AUSDB_ENGINE_REORDER_BUFFER_H_
#define AUSDB_ENGINE_REORDER_BUFFER_H_

#include <deque>
#include <memory>
#include <string>

#include "src/common/memory_budget.h"
#include "src/engine/operator.h"
#include "src/govern/ladder.h"
#include "src/obs/metrics.h"
#include "src/stream/watermark.h"

namespace ausdb {
namespace engine {

/// Options of the ReorderBuffer operator.
struct ReorderBufferOptions {
  /// Event-time lateness bound, in timestamp units: tuples are held
  /// until the watermark (max observed timestamp minus this bound)
  /// passes them. 0 degenerates to pass-through with late accounting
  /// only.
  double lateness_bound = 0.0;

  /// Maximum buffered tuples; 0 means unbounded. When exceeded, the
  /// oldest buffered tuple is force-released early (before the
  /// watermark passes it), counted in stats().forced_releases. Released
  /// output stays monotone in event time, but a later in-bound
  /// straggler may now surface as a late tuple downstream: precision is
  /// shed, data never is.
  size_t capacity = 4096;

  /// When non-null, buffer observability is mirrored into
  /// `ausdb_engine_reorder_*` metrics labeled `{buffer=metrics_label}`.
  /// Write-only, per the obs contract: delivered output is
  /// bit-identical with metrics on or off.
  obs::MetricRegistry* metrics = nullptr;
  std::string metrics_label = "reorder";

  /// \brief Degradation ladder shared with the plan's GovernorGate.
  ///
  /// When set, a tuple stamped with precision rung k shrinks the hold
  /// horizon to lateness_bound * rungs[k].lateness_scale: the buffer
  /// releases earlier under pressure, so stragglers beyond the
  /// shortened horizon surface as *late* tuples for the downstream
  /// window's allowed-lateness revision path — precision is shed
  /// (coarser real-time answer, more revisions), data never is. The
  /// effective horizon is a pure function of the stamped tuple
  /// sequence, preserving the determinism contract. Null ignores rung
  /// stamps.
  std::shared_ptr<const govern::LadderPolicy> ladder;

  /// \brief Per-plan memory budget this buffer charges its held tuples
  /// against (Tuple::ApproxBytes). A refused reservation surfaces as a
  /// loud kResourceExhausted from Next() instead of unbounded growth.
  /// Null disables charging. Must outlive the operator.
  MemoryBudget* memory_budget = nullptr;
};

/// Observability counters of a ReorderBuffer.
struct ReorderStats {
  size_t admitted = 0;          ///< tuples accepted from the child
  size_t late = 0;              ///< arrived at/below the watermark, passed through
  size_t forced_releases = 0;   ///< released early on overflow
  /// Released before the true watermark because a governed rung
  /// shortened the hold horizon.
  size_t early_releases = 0;
};

/// \brief Bounded-lateness reorder stage: holds tuples up to the
/// lateness bound and releases them in event-time order as the
/// watermark advances, turning in-bound disorder back into an ordered
/// stream before it reaches the window operators.
///
/// Determinism contract: release decisions are a pure function of the
/// input tuple sequence (via WatermarkPolicy — never wall clock), so
/// output is bit-identical across async prefetch depths, thread counts
/// and checkpoint/restore. Ties release in (timestamp, sequence) order.
///
/// Tuples already at or below the watermark on arrival cannot be
/// reordered any more; they pass through immediately (counted late) for
/// the downstream window to revise within its allowed-lateness horizon.
/// At end of stream the buffer flushes in event-time order.
class ReorderBuffer final : public Operator {
 public:
  static Result<std::unique_ptr<ReorderBuffer>> Make(
      OperatorPtr child, std::string timestamp_column,
      ReorderBufferOptions options = {});

  const Schema& schema() const override { return child_->schema(); }
  Result<std::optional<Tuple>> Next() override;
  Status Reset() override;
  Status Close() override { return child_->Close(); }

  /// Checkpoints the watermark state and every buffered (and released-
  /// but-undelivered) tuple — checkpoint v4's new surface — so a crash
  /// mid-disorder restores bit-identically. One format, token "rob.v3",
  /// which carries the governed horizon floor — restoring a governed
  /// buffer at full horizon would change release decisions.
  Result<std::string> SaveCheckpoint() const override;
  Status RestoreCheckpoint(std::string_view blob) override;

  ~ReorderBuffer() override;

  const ReorderStats& stats() const { return stats_; }

  /// Tuples currently held (excludes released-but-undelivered ones) —
  /// the crash-point sweep asserts this is non-zero at a crash site.
  size_t buffered_count() const { return buffer_.size() - released_; }

  /// Tuples released but not yet delivered through Next() — together
  /// with buffered_count() this closes the accounting invariant:
  /// admitted == delivered + late + buffered + pending at every point
  /// of the pull loop.
  size_t pending_release_count() const { return released_; }

 private:
  ReorderBuffer(OperatorPtr child, size_t ts_index,
                ReorderBufferOptions options);

  /// A held tuple with its precomputed release key and the bytes it
  /// charged against the memory budget (0 when uncharged or released).
  struct Held {
    std::pair<double, uint64_t> key;
    Tuple tuple;
    size_t bytes = 0;
  };

  /// The hold-horizon scale of a stamped precision rung (1.0 when
  /// ungoverned).
  double LatenessScaleFor(uint32_t rung) const;

  /// The watermark release decisions actually use: the policy
  /// watermark, raised by the governed horizon floor when a ladder is
  /// bound.
  double EffectiveWatermark() const;

  /// Returns budget bytes charged for `held` (buffer exit).
  void ReleaseCharge(Held& held);

  /// Inserts among the held tuples of buffer_ keeping (timestamp,
  /// sequence) order. Ordered arrivals append at the back in O(1) — the
  /// hot path pays no per-tuple node allocation, which is why this is a
  /// deque and not a map — and in-bound disorder shifts at most
  /// O(buffered) entries.
  void Insert(double ts, Tuple&& t, size_t bytes);
  /// Releases the held tuples at/below the watermark.
  void ReleaseUpToWatermark();
  void EnforceCapacity();
  void UpdateGauges();

  OperatorPtr child_;
  size_t ts_index_;
  ReorderBufferOptions options_;
  stream::WatermarkPolicy watermark_;

  /// Released tuples awaiting delivery through Next(), in release
  /// order, then the held tuples sorted by (timestamp, sequence). A
  /// tuple is released in place, so an in-order stream moves each tuple
  /// into and out of one container.
  std::deque<Held> buffer_;
  /// How many tuples at the front of buffer_ are released.
  size_t released_ = 0;
  bool exhausted_ = false;
  ReorderStats stats_;

  /// Governed horizon floor: max over admitted tuples of
  /// ts - lateness_bound * scale(rung). -inf until a governed tuple
  /// arrives; never above the policy's max-timestamp watermark path
  /// for rung-0 traffic, so ungoverned behavior is unchanged.
  bool has_horizon_floor_ = false;
  double horizon_floor_ = 0.0;

  /// Registry-owned metrics; all null when options_.metrics is null.
  obs::Gauge* m_depth_ = nullptr;
  obs::Gauge* m_watermark_milli_ = nullptr;
  obs::Counter* m_late_ = nullptr;
  obs::Counter* m_forced_ = nullptr;
  obs::Counter* m_early_ = nullptr;
  obs::Histogram* m_lag_ = nullptr;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_REORDER_BUFFER_H_
