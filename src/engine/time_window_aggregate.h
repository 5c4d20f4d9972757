#ifndef AUSDB_ENGINE_TIME_WINDOW_AGGREGATE_H_
#define AUSDB_ENGINE_TIME_WINDOW_AGGREGATE_H_

#include <deque>
#include <limits>
#include <map>
#include <string>

#include "src/common/math_util.h"
#include "src/engine/operator.h"
#include "src/engine/window_aggregate.h"
#include "src/obs/event_journal.h"

namespace ausdb {
namespace engine {

/// Options of the TimeWindowAggregate operator.
struct TimeWindowOptions {
  /// Window duration, in the timestamp column's units: an arriving tuple
  /// with timestamp t aggregates all tuples with timestamp in
  /// (t - duration, t].
  double duration = 60.0;

  WindowAggFn fn = WindowAggFn::kAvg;

  /// Require non-decreasing timestamps (stream order). When false,
  /// out-of-order tuples are accepted and evicted by value.
  bool require_ordered = true;

  /// Event-time revision mode: emit (agg, window_end, revision) tuples,
  /// and accept late tuples up to `allowed_lateness` behind the max
  /// observed timestamp by re-emitting every already-emitted window the
  /// straggler falls into with corrected mean/variance/sample_size and
  /// revision=true. Requires require_ordered=false. Downstream folds by
  /// window_end keeping the last output: after all revisions, the fold
  /// is byte-identical to what in-order delivery would have produced.
  bool emit_revisions = false;

  /// Lateness horizon of revision mode, in timestamp units: a tuple
  /// more than this behind the max observed timestamp is shed (counted
  /// in shed_late()), because the entries needed to revise its windows
  /// have already been retired. Only meaningful with emit_revisions.
  double allowed_lateness = 0.0;

  /// When non-null, each late arrival that forces window re-emissions
  /// is journaled as kLateRevision with the input-tuple count as
  /// logical time. Write-only per the obs contract.
  obs::EventJournal* journal = nullptr;
};

/// \brief Time-based (RANGE) sliding-window aggregate over one uncertain
/// column: the duration-based sibling of the count-based WindowAggregate.
///
/// The timestamp column must be a deterministic double. One output tuple
/// is produced per input, with schema (<output_name>:uncertain) — or, in
/// revision mode, (<output_name>:uncertain, window_end:double,
/// revision:bool), where a late arrival additionally re-emits each
/// affected window.
///
/// Strict, lax and revising windows run one state machine. Each arrival
/// is checked for a finite timestamp, turned into a WindowEntry, admitted
/// (strict mode rejects an out-of-order timestamp; revision mode sheds
/// one at or below max_ts - allowed_lateness), inserted in
/// (timestamp, sequence) order, and entries that no window can still
/// use are retired. A strict or lax window then emits the window ending
/// at the max observed timestamp, so a lax straggler joins the current
/// window; a revising window emits or revises the window ends the
/// straggler touches.
///
/// Running state: the window (max_ts - duration, max_ts] is kept as
/// exact sums of its means and variances (ExactSum) plus a count per
/// distinct d.f. sample size, so the Lemma 3 minimum survives eviction.
/// An in-order arrival adds its entry and evicts what left the window,
/// O(1) amortized. A revision copies that state and slides it to each
/// revised window end, adding and removing only the entries between the
/// ends, which the retained entries (at most allowed_lateness older than
/// the window) cover.
///
/// Determinism contract (every mode): each output's mean and variance
/// are the correctly rounded sums of its window's entry set (then
/// divided by the count for AVG), so an output for window end W depends
/// only on the *set* of entries in (W-duration, W] — never on arrival
/// order, including the order in which tuples with equal timestamps
/// arrive — and revision folds are bit-identical across disorder within
/// the lateness bound.
class TimeWindowAggregate final : public Operator {
 public:
  static Result<std::unique_ptr<TimeWindowAggregate>> Make(
      OperatorPtr child, std::string timestamp_column,
      std::string value_column, std::string output_name,
      TimeWindowOptions options = {});

  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override;
  Status Reset() override;

  Status Close() override { return child_->Close(); }

  /// Checkpoints the open window, the revisable-window bookkeeping and
  /// any undelivered revision outputs (format token "twagg.v1") so a
  /// restored pipeline resumes bit-for-bit mid-disorder.
  Result<std::string> SaveCheckpoint() const override;
  Status RestoreCheckpoint(std::string_view blob) override;

  /// Child tuples pulled so far — the input position a re-seeked source
  /// must resume after when restoring this operator's checkpoint.
  uint64_t input_consumed() const { return input_consumed_; }

  /// Late tuples beyond the allowed-lateness horizon, dropped.
  uint64_t shed_late() const { return shed_late_; }

 private:
  /// A window entry keyed by its event timestamp and the
  /// source-assigned arrival sequence that orders timestamp ties.
  struct TimedEntry {
    double timestamp;
    uint64_t sequence;
    WindowEntry entry;
  };

  /// Exact running aggregate of a multiset of window entries.
  struct RunningWindow {
    ExactSum sum_mean;
    ExactSum sum_variance;
    /// Live entries per d.f. sample size; the first key is the minimum.
    std::map<size_t, uint64_t> df_counts;
    uint64_t count = 0;

    void Add(const WindowEntry& e);
    /// Removes an entry added earlier.
    void Remove(const WindowEntry& e);
    KeyWindowState::Aggregate Read(WindowAggFn fn) const;
  };

  /// One computed (possibly revision) output awaiting delivery.
  struct Output {
    double window_end;
    KeyWindowState::Aggregate aggregate;
    bool revision;
    uint64_t sequence;
    double membership_prob;
    size_t membership_df_n;
  };

  TimeWindowAggregate(OperatorPtr child, size_t ts_index,
                      size_t value_index, Schema out_schema,
                      TimeWindowOptions options);

  /// Inserts keeping window_ sorted by (timestamp, sequence), adding the
  /// entry to current_ when it falls in the window ending at
  /// last_timestamp_ and counting it into front_ when it falls behind.
  void InsertSorted(const TimedEntry& e);
  /// Moves `state`, the aggregate of window_[lo, hi), to the window
  /// (end - duration, end], updating lo and hi: adds and removes only the
  /// entries between the two windows.
  void Slide(RunningWindow& state, size_t& lo, size_t& hi,
             double end) const;
  Output MakeOutput(double window_end, const RunningWindow& state,
                    bool revision, const Tuple& trigger) const;
  Tuple MaterializeOutput(const Output& o) const;

  OperatorPtr child_;
  size_t ts_index_;
  size_t value_index_;
  Schema schema_;
  TimeWindowOptions options_;
  std::deque<TimedEntry> window_;
  /// window_[front_, end) is the window ending at last_timestamp_;
  /// current_ is its running aggregate. Entries before front_ are kept
  /// only for revisions.
  size_t front_ = 0;
  RunningWindow current_;
  double last_timestamp_ = -std::numeric_limits<double>::infinity();
  uint64_t input_consumed_ = 0;
  uint64_t shed_late_ = 0;
  /// Revision mode: distinct emitted window ends still inside the
  /// allowed-lateness horizon (ascending).
  std::deque<double> emitted_ends_;
  /// Computed outputs not yet delivered through Next().
  std::deque<Output> pending_;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_TIME_WINDOW_AGGREGATE_H_
