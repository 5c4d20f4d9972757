#ifndef AUSDB_ENGINE_WINDOW_STATE_H_
#define AUSDB_ENGINE_WINDOW_STATE_H_

#include <cstdint>
#include <deque>
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
};

/// One window element: the moments and d.f. sample size extracted from an
/// input value (paper Lemma 3 propagates the minimum sample size). Count
/// and time windows share it; the time window keeps each entry's
/// timestamp and arrival sequence beside it.
struct WindowEntry {
  double mean = 0.0;
  double variance = 0.0;
  size_t sample_size = 0;
};

/// \brief Extracts a WindowEntry from an aggregate-column value.
///
/// Deterministic doubles become zero-variance entries with the certain
/// sample size; uncertain values must be Gaussian or deterministic, and
/// any other distribution is NotImplemented.
Result<WindowEntry> WindowEntryFromValue(const expr::Value& v);

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
/// implementation. The window is in arrival order: every entry is pushed
/// at the back, whatever its source sequence, and evicted from the front.
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

  /// Rebuilds the min-d.f. deque from `window` (after a checkpoint
  /// restore replaced it); the deque is a pure function of the window.
  void RebuildMinDeque();

 private:
  /// A min-deque element: a window entry's d.f. and its position in
  /// this key's insertion order, which eviction matches.
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

  /// Monotonic (non-decreasing sample_size) deque over the window, answering "min sample size in window" in O(1) amortized.
  std::deque<MinSlot> min_deque_;
  /// Entries pushed since the window was last emptied; the window front
  /// sits at position pushed_ - window.size().
  uint64_t pushed_ = 0;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_WINDOW_STATE_H_
