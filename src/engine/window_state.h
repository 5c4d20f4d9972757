#ifndef AUSDB_ENGINE_WINDOW_STATE_H_
#define AUSDB_ENGINE_WINDOW_STATE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>

#include "src/common/math_util.h"
#include "src/common/result.h"
#include "src/expr/value.h"

namespace ausdb {
namespace engine {

/// Aggregate function of a sliding window.
enum class WindowAggFn {
  kAvg,
  kSum,
};

/// How the window advances.
enum class WindowKind {
  /// Slide by one tuple: one output per input once the window is full.
  kSliding,
  /// Tumble: one output per `window_size` inputs, then the window resets.
  kTumbling,
};

/// Options of the WindowAggregate operator.
struct WindowAggregateOptions {
  /// Count-based window size (the paper's Section V-C uses 1000).
  size_t window_size = 1000;

  WindowAggFn fn = WindowAggFn::kAvg;

  WindowKind kind = WindowKind::kSliding;

  /// Emit an output per input even before the window has filled (running
  /// aggregate over the partial window). When false, output starts with
  /// the window_size-th tuple. Sliding windows only.
  bool emit_partial = false;

  /// Accept non-Gaussian uncertain inputs by the central limit theorem:
  /// the aggregate's mean and variance propagate exactly, and the result
  /// is approximated as Gaussian — a good approximation for the window
  /// sizes streams use. When false (the default), non-Gaussian inputs
  /// are a NotImplemented error.
  bool allow_clt_approximation = false;

  /// Event-order revision mode (sliding windows only): the schema gains
  /// a trailing revision:bool column, the window is kept sorted by the
  /// source-assigned sequence number, and a tuple arriving with a
  /// sequence below the max seen is folded into the current window,
  /// re-emitting it with corrected mean/variance/sample_size and
  /// revision=true. Stragglers older than every retained position are
  /// shed (counted): only the current window is ever revised — the
  /// bounded-memory contract of count-based lateness.
  bool emit_revisions = false;
};

/// One window element: the moments and d.f. sample size extracted from an
/// input value (paper Lemma 3 propagates the minimum sample size), plus
/// the source-assigned arrival sequence — the event-order key revision
/// mode sorts and dedupes by. Count and time windows share it; the time
/// window keeps each entry's timestamp beside it.
struct WindowEntry {
  double mean = 0.0;
  double variance = 0.0;
  size_t sample_size = 0;
  uint64_t sequence = 0;
};

/// \brief Extracts a WindowEntry from an aggregate-column value.
///
/// Deterministic doubles become zero-variance entries with the certain
/// sample size; uncertain values must be Gaussian or deterministic unless
/// `allow_clt_approximation` accepts arbitrary distributions via their
/// first two moments. The sequence is left for the caller to set.
Result<WindowEntry> WindowEntryFromValue(const expr::Value& v,
                                         bool allow_clt_approximation);

/// \brief Renders a deterministic group-by key value (string or double)
/// as the partition-map key. A string is its own key. A double is keyed
/// by its 8-byte bit pattern, most significant byte first, with -0.0
/// folded into +0.0, so two doubles share a window exactly when they
/// compare equal; a NaN key is InvalidArgument.
Result<std::string> PartitionKeyFromValue(const expr::Value& v);

/// \brief The count-based window state of one partition key (an
/// ungrouped window is a single implicit key).
///
/// WindowAggregate runs every window, grouped or not, scalar or batched,
/// through this one state, so every pull path executes the *identical*
/// floating-point update sequence: the determinism contract (batched
/// output bit-identical to scalar) depends on this being the single
/// implementation.
///
/// Running sums use Neumaier-compensated accumulation: the evict-subtract
/// update otherwise drifts on long streams with mixed magnitudes (a
/// window holding 1e12-scale and 1e-3-scale means loses the small
/// entries entirely after ~1M evictions with plain doubles).
struct KeyWindowState {
  std::deque<WindowEntry> window;
  KahanSum sum_mean;
  KahanSum sum_variance;

  /// The emitted aggregate: closed-form Gaussian moments plus the window
  /// minimum d.f. sample size.
  struct Aggregate {
    double mean;
    double variance;
    size_t df;

    /// The output value both windows emit: Gaussian(mean, max(0,
    /// variance)) with d.f. sample size `df`.
    dist::RandomVar ToRandomVar() const;
  };

  /// Feeds one entry through the window (push, evict when sliding past
  /// `options.window_size`, reset when a tumbling window fires) and
  /// returns the aggregate when this arrival produces an emission. The
  /// window-minimum d.f. comes from a monotonic deque in O(1) amortized.
  std::optional<Aggregate> Observe(const WindowEntry& e,
                                   const WindowAggregateOptions& options);

  /// One revision-mode emission: the (possibly corrected) current-window
  /// aggregate, flagged when it replaces an earlier emission.
  struct Emission {
    Aggregate aggregate;
    bool revision = false;
  };

  /// \brief Revision-mode (sliding-only) variant of Observe: the window
  /// is kept sorted by sequence, an in-order entry emits normally
  /// (revision=false), and a late entry — sequence below the max seen —
  /// is inserted in place and re-emits the corrected current window
  /// (revision=true). A late entry older than every retained position
  /// (at/below the eviction horizon, or displaced right back out of a
  /// full window) is shed: `shed_late` is set and nothing is emitted —
  /// the bounded-memory contract only ever revises the *current*
  /// window, never windows already slid past.
  ///
  /// Determinism: every emission recomputes sums by one scan over the
  /// sequence-sorted window (never the incremental accumulators), so an
  /// emission depends only on the entry *set* — a late arrival folds to
  /// the same bits as in-order delivery of the same entries.
  std::optional<Emission> ObserveRevising(
      const WindowEntry& e, const WindowAggregateOptions& options,
      bool* shed_late);

  /// Observe or ObserveRevising, as `options.emit_revisions` selects.
  std::optional<Emission> Step(const WindowEntry& e,
                               const WindowAggregateOptions& options,
                               bool* shed_late);

  /// Rebuilds the min-d.f. deque from `window` (after a checkpoint
  /// restore replaced it); the deque is a pure function of the window.
  void RebuildMinDeque();

  /// Revision-mode bookkeeping (unused by plain Observe).
  uint64_t max_sequence = 0;
  bool any_observed = false;
  uint64_t evicted_horizon = 0;
  bool any_evicted = false;

 private:
  /// A min-deque element: a window entry's d.f. and its position in
  /// this key's insertion order. Eviction matches the position, never
  /// the source sequence, which may repeat (two concatenated feeds that
  /// each number their tuples from 0).
  struct MinSlot {
    uint64_t position;
    size_t sample_size;
  };

  /// Appends the next-positioned entry of d.f. `sample_size` to the min
  /// deque, dropping the entries it dominates.
  void PushMinSlot(size_t sample_size);
  /// Appends `e` to the window, its sums and the min deque.
  void Push(const WindowEntry& e);
  /// Evicts the oldest window entry from all three.
  void PopFront();

  /// Monotonic (non-decreasing sample_size) deque over the plain-mode
  /// window, answering "min sample size in window" in O(1) amortized.
  std::deque<MinSlot> min_deque_;
  /// Entries pushed since the window was last emptied; the window front
  /// sits at position pushed_ - window.size().
  uint64_t pushed_ = 0;
};

/// \brief The plain-double scan-and-finalize of every window emission
/// that recomputes from its entries (revising count windows, every time
/// window): sums the means and variances of [first, last) in iteration
/// order, takes the minimum d.f. sample size (Lemma 3), and for AVG
/// divides by the entry count when the range is non-empty. `entry_of`
/// maps an element to its WindowEntry.
template <typename It, typename EntryOf = std::identity>
KeyWindowState::Aggregate ScanAggregate(It first, It last, WindowAggFn fn,
                                        EntryOf entry_of = {}) {
  double sum_mean = 0.0, sum_variance = 0.0;
  size_t count = 0;
  KeyWindowState::Aggregate agg;
  agg.df = dist::RandomVar::kCertainSampleSize;
  for (; first != last; ++first) {
    const WindowEntry& e = entry_of(*first);
    sum_mean += e.mean;
    sum_variance += e.variance;
    agg.df = std::min(agg.df, e.sample_size);
    ++count;
  }
  const double w = static_cast<double>(count);
  agg.mean = sum_mean;
  agg.variance = sum_variance;
  if (fn == WindowAggFn::kAvg && count > 0) {
    agg.mean /= w;
    agg.variance /= w * w;
  }
  return agg;
}

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_WINDOW_STATE_H_
