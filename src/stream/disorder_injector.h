#ifndef AUSDB_STREAM_DISORDER_INJECTOR_H_
#define AUSDB_STREAM_DISORDER_INJECTOR_H_

#include <deque>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/operator.h"

namespace ausdb {
namespace stream {

/// What a DisorderInjector does to the stream, in the style of
/// FaultSpec: every distortion is drawn from a seeded Rng, so a given
/// (spec, input) pair always produces the same disordered sequence —
/// the equivalence harness depends on replaying the exact same
/// disorder against different pipeline configurations.
struct DisorderSpec {
  /// Count-bounded shuffle: selected tuples enter a holding pool and
  /// leave in seeded-random order, displaced by at most this many input
  /// positions (the oldest pool entry is force-emitted once its age
  /// reaches the bound). With monotone input timestamps of step <= s,
  /// event-time displacement is bounded by max_displacement * s — the
  /// quantity a ReorderBuffer lateness bound must cover. 0 disables
  /// shuffling.
  size_t max_displacement = 0;

  /// Fraction of tuples entering the shuffle pool; the rest pass
  /// through immediately (they may still overtake pooled tuples).
  /// Drives the bench's disorder-fraction axis.
  double shuffle_probability = 1.0;

  /// Every k-th input tuple (k = late_every_k, 0 disables) is held back
  /// and re-injected only after `late_delay` further inputs — far
  /// enough to land beyond any reorder horizon smaller than the
  /// resulting displacement, exercising the windows' allowed-lateness
  /// revision path.
  size_t late_every_k = 0;
  size_t late_delay = 0;

  uint64_t seed = 0x5eedULL;
};

/// Observability counters of a DisorderInjector.
struct DisorderStats {
  size_t pulled = 0;        ///< tuples pulled from the child
  size_t shuffled = 0;      ///< tuples routed through the pool
  size_t late_injected = 0; ///< held-back tuples re-injected late
};

/// \brief Deterministic disorder harness: wraps any operator and
/// re-delivers its stream shuffled-within-bound and/or with individual
/// tuples held back beyond the reorder horizon.
///
/// Purely a test/bench instrument (the FaultInjector of event time):
/// it never alters tuple contents or sequence numbers, only delivery
/// order, so the multiset of delivered tuples is the child's.
class DisorderInjector final : public engine::Operator {
 public:
  DisorderInjector(engine::OperatorPtr child, DisorderSpec spec);

  const engine::Schema& schema() const override {
    return child_->schema();
  }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;
  Status Close() override { return child_->Close(); }

  const DisorderStats& stats() const { return stats_; }

 private:
  struct Held {
    uint64_t entry_index;
    engine::Tuple tuple;
  };

  /// Releases pool entries that hit the displacement bound, oldest
  /// first.
  void ForceAgedOut();

  engine::OperatorPtr child_;
  DisorderSpec spec_;
  Rng rng_;
  std::deque<Held> pool_;
  /// Held-back (late) tuples with the input index at which they rejoin.
  std::deque<Held> late_;
  std::deque<engine::Tuple> out_queue_;
  uint64_t input_count_ = 0;
  bool exhausted_ = false;
  DisorderStats stats_;
};

}  // namespace stream
}  // namespace ausdb

#endif  // AUSDB_STREAM_DISORDER_INJECTOR_H_
