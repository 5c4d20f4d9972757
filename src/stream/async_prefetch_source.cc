#include "src/stream/async_prefetch_source.h"

#include <utility>

namespace ausdb {
namespace stream {
namespace internal {

PrefetchPump::PrefetchPump(engine::Operator* source,
                           const AsyncPrefetchOptions& options)
    : source_(source),
      queue_depth_(options.queue_depth == 0 ? 1 : options.queue_depth) {
  if (options.metrics != nullptr) {
    obs::MetricRegistry* reg = options.metrics;
    const std::vector<obs::Label> labels = {
        {"queue", options.metrics_label}};
    m_depth_ = reg->GetGauge("ausdb_stream_prefetch_queue_depth", labels,
                             "Outcomes resident in the prefetch ring.");
    m_push_waits_ = reg->GetCounter(
        "ausdb_stream_prefetch_push_waits_total", labels,
        "Producer blocked on a full ring (backpressure).");
    m_pop_waits_ =
        reg->GetCounter("ausdb_stream_prefetch_pop_waits_total", labels,
                        "Consumer blocked on an empty ring.");
    m_try_rejections_ = reg->GetCounter(
        "ausdb_stream_prefetch_try_rejections_total", labels,
        "Non-blocking TryPush refused on a full ring (shed signal).");
    m_produced_ =
        reg->GetCounter("ausdb_stream_prefetch_produced_total", labels,
                        "Tuples pulled from the wrapped source.");
    m_delivered_ =
        reg->GetCounter("ausdb_stream_prefetch_delivered_total", labels,
                        "Tuples handed to the consumer.");
    m_starts_ =
        reg->GetCounter("ausdb_stream_prefetch_starts_total", labels,
                        "Producer thread launches.");
  }
}

PrefetchPump::~PrefetchPump() { Stop(); }

void PrefetchPump::EnsureStarted() {
  if (started_) return;
  queue_ = std::make_unique<BoundedQueue<Outcome>>(queue_depth_);
  queue_->BindMetrics(m_depth_, m_push_waits_, m_pop_waits_,
                      m_try_rejections_);
  ++starts_;
  if (m_starts_) m_starts_->Increment();
  // The raw queue pointer is stable for the thread's whole lifetime:
  // queue_ is only replaced after the producer has been joined.
  producer_ = std::thread(&PrefetchPump::PumpLoop, this, queue_.get());
  started_ = true;
}

void PrefetchPump::PumpLoop(BoundedQueue<Outcome>* queue) {
  for (;;) {
    Outcome outcome = source_->Next();
    const bool is_end = outcome.ok() && !outcome->has_value();
    if (outcome.ok() && outcome->has_value()) {
      produced_.fetch_add(1, std::memory_order_relaxed);
      if (m_produced_) m_produced_->Increment();
    }
    if (!queue->Push(std::move(outcome)).ok()) return;  // cancelled
    if (is_end) {
      queue->Close();
      return;
    }
    // After an error the loop keeps pulling, exactly like a retrying
    // synchronous consumer: deterministic sources produce outcomes by
    // call count, so queued outcome k is what synchronous pull k would
    // have returned. A fatal error the consumer gives up on just leaves
    // a bounded residue in the ring (Push blocks, Stop() unblocks it).
  }
}

PrefetchPump::Outcome PrefetchPump::Next() {
  if (exhausted_) return std::optional<engine::Tuple>(std::nullopt);
  EnsureStarted();
  Outcome outcome = Status::Cancelled("unfilled prefetch slot");
  AUSDB_RETURN_NOT_OK(queue_->Pop(&outcome));
  if (outcome.ok()) {
    if (outcome->has_value()) {
      ++delivered_;
      if (m_delivered_) m_delivered_->Increment();
    } else {
      // The producer pushed end-of-stream and exited; joining here (a
      // finished thread, no wait) keeps the end-of-stream state fully
      // consumer-owned.
      exhausted_ = true;
      if (producer_.joinable()) producer_.join();
    }
  }
  return outcome;
}

void PrefetchPump::Stop() {
  if (queue_) queue_->Cancel();
  if (producer_.joinable()) producer_.join();
  if (queue_) {
    retired_push_waits_ += queue_->push_waits();
    retired_pop_waits_ += queue_->pop_waits();
    queue_.reset();
    // The ring is gone; any buffered residue was discarded with it.
    if (m_depth_) m_depth_->Set(0);
  }
  started_ = false;
  exhausted_ = false;
}

PrefetchStats PrefetchPump::stats() const {
  PrefetchStats s;
  s.produced = produced_.load(std::memory_order_relaxed);
  s.delivered = delivered_;
  s.push_waits = retired_push_waits_;
  s.pop_waits = retired_pop_waits_;
  if (queue_) {
    s.push_waits += queue_->push_waits();
    s.pop_waits += queue_->pop_waits();
  }
  s.starts = starts_;
  return s;
}

}  // namespace internal

// ---------------------------------------------------------------------
// AsyncPrefetchSource

AsyncPrefetchSource::AsyncPrefetchSource(engine::OperatorPtr child,
                                         AsyncPrefetchOptions options)
    : child_(std::move(child)), pump_(child_.get(), options) {}

AsyncPrefetchSource::~AsyncPrefetchSource() { (void)Close(); }

Result<std::optional<engine::Tuple>> AsyncPrefetchSource::Next() {
  if (closed_) {
    return Status::Cancelled("AsyncPrefetchSource: Next after Close");
  }
  return pump_.Next();
}

Status AsyncPrefetchSource::Reset() {
  if (closed_) {
    return Status::Cancelled("AsyncPrefetchSource: Reset after Close");
  }
  pump_.Stop();
  return child_->Reset();
}

Status AsyncPrefetchSource::Close() {
  if (closed_) return Status::OK();
  pump_.Stop();
  closed_ = true;
  return child_->Close();
}

// ---------------------------------------------------------------------
// AsyncPrefetchReplayableSource

AsyncPrefetchReplayableSource::AsyncPrefetchReplayableSource(
    std::unique_ptr<engine::ReplayableSource> child,
    AsyncPrefetchOptions options)
    : child_(std::move(child)), pump_(child_.get(), options) {}

AsyncPrefetchReplayableSource::~AsyncPrefetchReplayableSource() {
  (void)Close();
}

Result<std::optional<engine::Tuple>>
AsyncPrefetchReplayableSource::Next() {
  if (closed_) {
    return Status::Cancelled(
        "AsyncPrefetchReplayableSource: Next after Close");
  }
  AUSDB_ASSIGN_OR_RETURN(std::optional<engine::Tuple> t, pump_.Next());
  if (t.has_value()) ++delivered_;
  return std::optional<engine::Tuple>(std::move(t));
}

Status AsyncPrefetchReplayableSource::Reset() {
  if (closed_) {
    return Status::Cancelled(
        "AsyncPrefetchReplayableSource: Reset after Close");
  }
  pump_.Stop();
  AUSDB_RETURN_NOT_OK(child_->Reset());
  delivered_ = 0;
  return Status::OK();
}

Status AsyncPrefetchReplayableSource::Close() {
  if (closed_) return Status::OK();
  pump_.Stop();
  closed_ = true;
  return child_->Close();
}

Status AsyncPrefetchReplayableSource::SeekTo(uint64_t position) {
  if (closed_) {
    return Status::Cancelled(
        "AsyncPrefetchReplayableSource: SeekTo after Close");
  }
  // Stop discards the ring's undelivered residue; the re-seek of the
  // wrapped source re-produces it, so nothing is lost or duplicated.
  pump_.Stop();
  AUSDB_RETURN_NOT_OK(child_->SeekTo(position));
  delivered_ = position;
  return Status::OK();
}

engine::OperatorPtr MakeAsyncPrefetch(engine::OperatorPtr child,
                                      AsyncPrefetchOptions options) {
  return std::make_unique<AsyncPrefetchSource>(std::move(child), options);
}

}  // namespace stream
}  // namespace ausdb
