#ifndef AUSDB_STREAM_ASYNC_PREFETCH_SOURCE_H_
#define AUSDB_STREAM_ASYNC_PREFETCH_SOURCE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

#include "src/common/bounded_queue.h"
#include "src/engine/replayable.h"
#include "src/obs/metrics.h"

namespace ausdb {
namespace stream {

/// Options of AsyncPrefetchSource / AsyncPrefetchReplayableSource.
struct AsyncPrefetchOptions {
  /// Capacity of the prefetch ring: how many pull outcomes the producer
  /// thread may run ahead of the consumer before backpressure blocks
  /// it. Depth 1 degenerates to strict hand-off (still overlapping one
  /// pull with downstream work); larger depths absorb burstier source
  /// latency. Affects timing only, never output: the delivered stream
  /// is the same at every depth.
  size_t queue_depth = 64;

  /// When non-null, ring observability is mirrored into
  /// `ausdb_stream_prefetch_*` metrics labeled `{queue=metrics_label}`:
  /// a depth gauge plus produced/delivered/wait/start counters. Strictly
  /// write-only — timing metrics record what happened, never steer the
  /// pump — so the delivered stream stays bit-identical with metrics on
  /// or off. The registry must outlive the source.
  obs::MetricRegistry* metrics = nullptr;
  std::string metrics_label = "prefetch";
};

/// Observability counters of a prefetching source. Timing-dependent
/// (unlike the stream itself): the wait counters say which side was the
/// bottleneck.
struct PrefetchStats {
  /// Tuples the producer thread pulled out of the wrapped source.
  size_t produced = 0;
  /// Tuples handed to the consumer; `produced - delivered` is the
  /// prefetch backlog (tuples resident in the ring).
  size_t delivered = 0;
  /// Producer blocked on a full ring (consumer-bound pipeline).
  size_t push_waits = 0;
  /// Consumer blocked on an empty ring (source-bound pipeline).
  size_t pop_waits = 0;
  /// Producer thread launches (one per Reset/SeekTo rearm).
  size_t starts = 0;
};

namespace internal {

/// \brief The engine of both prefetching wrappers: a producer thread
/// that pulls the wrapped operator in a tight loop and a bounded FIFO
/// of *pull outcomes* (tuple, end-of-stream, or error Status) the
/// consumer pops through the ordinary Next() interface.
///
/// Determinism: the wrapped source is pulled by exactly one thread, in
/// a serial loop, and outcomes are queued and consumed strictly FIFO —
/// so the outcome sequence the consumer observes is the same sequence
/// it would have observed pulling synchronously, a pure function of the
/// source and never of timing. Errors are queued in position (not
/// short-circuited) so retry layers above see failures at exactly the
/// same pull index as in the synchronous path, and the producer keeps
/// pulling after an error exactly like a retrying synchronous consumer
/// would.
///
/// Threading contract: Next/Stop/stats belong to the consumer thread
/// (the pull loop is single-threaded by engine convention); the
/// producer thread touches only the wrapped source and the queue.
/// Stop() joins the producer, which re-establishes exclusive consumer
/// ownership of the source — that is what makes Reset/SeekTo safe.
class PrefetchPump {
 public:
  using Outcome = Result<std::optional<engine::Tuple>>;

  PrefetchPump(engine::Operator* source, const AsyncPrefetchOptions& options);
  ~PrefetchPump();

  PrefetchPump(const PrefetchPump&) = delete;
  PrefetchPump& operator=(const PrefetchPump&) = delete;

  /// Pops the next outcome, lazily launching the producer thread on the
  /// first call (and after a Stop() rearm).
  Outcome Next();

  /// Cancels the ring, joins the producer and discards buffered
  /// outcomes; the wrapped source is afterwards exclusively owned by
  /// the caller again (re-seek it, then keep pulling — Next() relaunches
  /// the producer). Idempotent; called by the destructor.
  void Stop();

  bool running() const { return started_; }

  PrefetchStats stats() const;

 private:
  void EnsureStarted();
  void PumpLoop(BoundedQueue<Outcome>* queue);

  engine::Operator* source_;
  const size_t queue_depth_;
  std::unique_ptr<BoundedQueue<Outcome>> queue_;
  std::thread producer_;
  bool started_ = false;
  bool exhausted_ = false;
  /// Written by the producer thread, read by stats().
  std::atomic<size_t> produced_{0};
  size_t delivered_ = 0;
  size_t starts_ = 0;
  /// Wait counts accumulated over retired queue generations.
  size_t retired_push_waits_ = 0;
  size_t retired_pop_waits_ = 0;

  /// Registry-owned metrics; all null when options.metrics was null.
  /// The queue metrics are bound to each ring generation in
  /// EnsureStarted(); counters are cumulative across generations.
  obs::Gauge* m_depth_ = nullptr;
  obs::Counter* m_push_waits_ = nullptr;
  obs::Counter* m_pop_waits_ = nullptr;
  obs::Counter* m_try_rejections_ = nullptr;
  obs::Counter* m_produced_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_starts_ = nullptr;
};

}  // namespace internal

/// \brief Asynchronous prefetching wrapper for any operator subtree
/// (typically a source): the wrapped operator is pulled on a background
/// thread into a bounded ring buffer, overlapping source latency
/// (socket reads, file I/O, simulation) with downstream window
/// processing, while the pull interface — and the delivered stream —
/// stay exactly those of the wrapped operator.
///
/// Composition: SupervisedScan retry/quarantine sits in FRONT of this
/// wrapper unchanged (transient errors surface through Next() at their
/// exact synchronous position, so retry accounting is identical), and
/// the wrapper sits in front of the raw source. For crash recovery use
/// AsyncPrefetchReplayableSource, which keeps the ReplayableSource
/// contract intact.
///
/// Lifecycle: Close() (or destruction) cancels the ring and joins the
/// producer, even mid-stream with the producer blocked on a full ring.
/// Reset() stops the producer, resets the wrapped operator and rearms.
class AsyncPrefetchSource final : public engine::Operator {
 public:
  explicit AsyncPrefetchSource(engine::OperatorPtr child,
                               AsyncPrefetchOptions options = {});
  ~AsyncPrefetchSource() override;

  const engine::Schema& schema() const override { return child_->schema(); }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;
  Status Close() override;

  PrefetchStats stats() const { return pump_.stats(); }

 private:
  engine::OperatorPtr child_;
  internal::PrefetchPump pump_;
  bool closed_ = false;
};

/// \brief AsyncPrefetchSource for replayable sources: prefetches like
/// the generic wrapper but remains a ReplayableSource, so
/// RecoveryManager can register the *wrapper* and checkpoint/replay
/// compose with prefetching untouched.
///
/// position() is the CONSUMER-visible position (tuples delivered), not
/// how far the producer has read ahead — a checkpoint taken mid-
/// prefetch records exactly the tuples downstream operators have
/// consumed, so restore replays the ring's undelivered residue instead
/// of losing it. SeekTo() stops the producer, discards the ring,
/// re-seeks the wrapped source and rearms.
class AsyncPrefetchReplayableSource final
    : public engine::ReplayableSource {
 public:
  explicit AsyncPrefetchReplayableSource(
      std::unique_ptr<engine::ReplayableSource> child,
      AsyncPrefetchOptions options = {});
  ~AsyncPrefetchReplayableSource() override;

  const engine::Schema& schema() const override { return child_->schema(); }
  Result<std::optional<engine::Tuple>> Next() override;
  Status Reset() override;
  Status Close() override;

  uint64_t position() const override { return delivered_; }
  Status SeekTo(uint64_t position) override;

  PrefetchStats stats() const { return pump_.stats(); }

 private:
  std::unique_ptr<engine::ReplayableSource> child_;
  internal::PrefetchPump pump_;
  uint64_t delivered_ = 0;
  bool closed_ = false;
};

/// Convenience: wraps `child` in an AsyncPrefetchSource.
engine::OperatorPtr MakeAsyncPrefetch(engine::OperatorPtr child,
                                      AsyncPrefetchOptions options = {});

}  // namespace stream
}  // namespace ausdb

#endif  // AUSDB_STREAM_ASYNC_PREFETCH_SOURCE_H_
