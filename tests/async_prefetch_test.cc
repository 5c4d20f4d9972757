// Async prefetching source layer: the bounded ring buffer, producer
// thread lifecycle (shutdown, Close, destructor — all watchdogged so a
// deadlock fails fast instead of hanging the suite), prefetch
// statistics, and the fault-injection equivalence contract: a
// SupervisedScan in front of a prefetching source must retry,
// quarantine and account EXACTLY like the synchronous path.

#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/bounded_queue.h"
#include "src/common/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/serde/checkpoint.h"
#include "src/stream/async_prefetch_source.h"
#include "src/stream/replayable_source.h"
#include "src/stream/supervised_source.h"

namespace ausdb {
namespace stream {
namespace {

using engine::FieldType;
using engine::Operator;
using engine::OperatorPtr;
using engine::Schema;
using engine::StreamScan;
using engine::Tuple;
using engine::VectorScan;

// Runs `fn` on a helper thread and fails the test if it has not
// finished within 5 seconds — a deadlocked shutdown path becomes a
// clean failure instead of a ctest timeout. (On failure the stuck
// thread is abandoned; the suite is failing anyway.)
template <typename Fn>
void RunWithWatchdog(const char* what, Fn fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> done = task.get_future();
  std::thread runner(std::move(task));
  if (done.wait_for(std::chrono::seconds(5)) ==
      std::future_status::ready) {
    runner.join();
    done.get();
    return;
  }
  runner.detach();
  FAIL() << what << ": watchdog fired after 5s (deadlock)";
}

// ---------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.Push(i).ok());
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    int v = -1;
    ASSERT_TRUE(q.Pop(&v).ok());
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, TryPushReportsBackpressure) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.TryPush(1).ok());
  ASSERT_TRUE(q.TryPush(2).ok());
  const Status full = q.TryPush(3);
  EXPECT_TRUE(full.IsBackpressure()) << full.ToString();
  int v = 0;
  ASSERT_TRUE(q.Pop(&v).ok());
  EXPECT_TRUE(q.TryPush(3).ok());
}

TEST(BoundedQueueTest, CloseDrainsThenReportsCancelled) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.Push(7).ok());
  ASSERT_TRUE(q.Push(8).ok());
  q.Close();
  EXPECT_TRUE(q.Push(9).IsInvalidArgument());
  int v = 0;
  ASSERT_TRUE(q.Pop(&v).ok());
  EXPECT_EQ(v, 7);
  ASSERT_TRUE(q.Pop(&v).ok());
  EXPECT_EQ(v, 8);
  EXPECT_TRUE(q.Pop(&v).IsCancelled());
}

TEST(BoundedQueueTest, CancelUnblocksBlockedProducer) {
  RunWithWatchdog("cancel unblocks producer", [] {
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.Push(1).ok());
    std::thread producer([&q] {
      const Status st = q.Push(2);  // blocks: queue is full
      EXPECT_TRUE(st.IsCancelled()) << st.ToString();
    });
    // Give the producer time to block, then cancel from the consumer.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Cancel();
    producer.join();
    EXPECT_GE(q.push_waits(), 1u);
  });
}

TEST(BoundedQueueTest, CancelUnblocksBlockedConsumer) {
  RunWithWatchdog("cancel unblocks consumer", [] {
    BoundedQueue<int> q(1);
    std::thread consumer([&q] {
      int v = 0;
      const Status st = q.Pop(&v);  // blocks: queue is empty
      EXPECT_TRUE(st.IsCancelled()) << st.ToString();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Cancel();
    consumer.join();
    EXPECT_GE(q.pop_waits(), 1u);
  });
}

TEST(BoundedQueueTest, TryPushOnClosedAndCancelledRings) {
  // A closed ring refuses TryPush the same way it refuses Push — the
  // stream has ended, backpressure is not the reason.
  BoundedQueue<int> closed(2);
  closed.Close();
  EXPECT_TRUE(closed.TryPush(1).IsInvalidArgument());
  EXPECT_EQ(closed.try_push_rejections(), 0u)
      << "a closed ring is not a backpressure event";

  // A cancelled ring fails fast with kCancelled, even when full.
  BoundedQueue<int> cancelled(1);
  ASSERT_TRUE(cancelled.TryPush(1).ok());
  cancelled.Cancel();
  EXPECT_TRUE(cancelled.TryPush(2).IsCancelled());
  EXPECT_EQ(cancelled.try_push_rejections(), 0u);
}

TEST(BoundedQueueTest, TryPushRejectionCountAndMetricsMirror) {
  obs::MetricRegistry registry;
  obs::Gauge* depth = registry.GetGauge("q_depth");
  obs::Counter* rejections = registry.GetCounter("q_try_rejections");
  BoundedQueue<int> q(2);
  q.BindMetrics(depth, nullptr, nullptr, rejections);
  ASSERT_TRUE(q.TryPush(1).ok());
  ASSERT_TRUE(q.TryPush(2).ok());
  EXPECT_TRUE(q.TryPush(3).IsBackpressure());
  EXPECT_TRUE(q.TryPush(4).IsBackpressure());
  EXPECT_EQ(q.try_push_rejections(), 2u);
  EXPECT_EQ(rejections->Value(), 2u)
      << "the shed signal must be visible to the governor's obs reader";
  EXPECT_EQ(depth->Value(), 2);
  int v = 0;
  ASSERT_TRUE(q.Pop(&v).ok());
  EXPECT_EQ(depth->Value(), 1);
  // Refusals are non-destructive: the ring still carries exactly what
  // was accepted, in order.
  EXPECT_TRUE(q.TryPush(5).ok());
  ASSERT_TRUE(q.Pop(&v).ok());
  EXPECT_EQ(v, 2);
  ASSERT_TRUE(q.Pop(&v).ok());
  EXPECT_EQ(v, 5);
}

TEST(BoundedQueueTest, TryPushInterleavedWithBlockingPush) {
  RunWithWatchdog("trypush vs blocked push", [] {
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.Push(1).ok());  // ring now full
    std::thread producer([&q] {
      EXPECT_TRUE(q.Push(2).ok());  // blocks until the consumer drains
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // The non-blocking producer is refused while the blocking one
    // waits — TryPush must not jump the queue or wedge the waiter.
    EXPECT_TRUE(q.TryPush(99).IsBackpressure());
    EXPECT_GE(q.try_push_rejections(), 1u);
    int v = 0;
    ASSERT_TRUE(q.Pop(&v).ok());
    EXPECT_EQ(v, 1);
    producer.join();  // the blocked Push completed after the drain
    ASSERT_TRUE(q.Pop(&v).ok());
    EXPECT_EQ(v, 2) << "the blocked producer's item, not the refused one";
    EXPECT_EQ(q.size(), 0u);
  });
}

// ---------------------------------------------------------------------
// Test sources

Schema KeyValueSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"key", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"value", FieldType::kUncertain}).ok());
  return s;
}

Tuple DeterministicTuple(size_t i) {
  const double mean = static_cast<double>(i);
  const double variance = 1.0 + static_cast<double>(i % 3);
  return Tuple({expr::Value(std::string("k").append(std::to_string(i % 4))),
                expr::Value(dist::RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, variance),
                    10))});
}

// Bounded source of `count` deterministic tuples; an optional per-tuple
// stall models source I/O latency (timing only — the tuples are a pure
// function of the index).
OperatorPtr MakeCountingSource(size_t count,
                               std::chrono::microseconds stall =
                                   std::chrono::microseconds(0)) {
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<StreamScan>(
      KeyValueSchema(),
      [produced, count, stall]() -> Result<std::optional<Tuple>> {
        if (*produced >= count) return std::optional<Tuple>(std::nullopt);
        if (stall.count() > 0) std::this_thread::sleep_for(stall);
        return std::optional<Tuple>(DeterministicTuple((*produced)++));
      });
}

// Unbounded variant for lifecycle tests.
OperatorPtr MakeInfiniteSource(std::chrono::microseconds stall =
                                   std::chrono::microseconds(0)) {
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<StreamScan>(
      KeyValueSchema(), [produced, stall]() -> Result<std::optional<Tuple>> {
        if (stall.count() > 0) std::this_thread::sleep_for(stall);
        return std::optional<Tuple>(DeterministicTuple((*produced)++));
      });
}

// Bit-exact fingerprint of a key/uncertain tuple.
std::string Fingerprint(const Tuple& t) {
  serde::CheckpointWriter w;
  w.Bytes(*t.value(0).string_value());
  auto rv = t.value(1).random_var();
  EXPECT_TRUE(rv.ok());
  w.Double(rv->Mean());
  w.Double(rv->Variance());
  w.Uint(rv->sample_size());
  w.Uint(t.sequence());
  return std::move(w).Finish();
}

// ---------------------------------------------------------------------
// Prefetch semantics

TEST(AsyncPrefetchSourceTest, DeliversIdenticalStreamAtEveryDepth) {
  std::vector<std::string> golden;
  {
    auto sync = MakeCountingSource(100);
    auto rows = engine::Collect(*sync);
    ASSERT_TRUE(rows.ok());
    for (const auto& t : *rows) golden.push_back(Fingerprint(t));
  }
  ASSERT_EQ(golden.size(), 100u);

  for (size_t depth : {1u, 2u, 7u, 64u, 1024u}) {
    AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    AsyncPrefetchSource source(MakeCountingSource(100), opts);
    auto rows = engine::Collect(source);
    ASSERT_TRUE(rows.ok()) << "depth " << depth;
    ASSERT_EQ(rows->size(), golden.size()) << "depth " << depth;
    for (size_t i = 0; i < golden.size(); ++i) {
      ASSERT_EQ(Fingerprint((*rows)[i]), golden[i])
          << "depth " << depth << " tuple " << i;
    }
    const PrefetchStats stats = source.stats();
    EXPECT_EQ(stats.produced, 100u);
    EXPECT_EQ(stats.delivered, 100u);
  }
}

TEST(AsyncPrefetchSourceTest, EndOfStreamIsSticky) {
  AsyncPrefetchSource source(MakeCountingSource(3));
  auto rows = engine::Collect(source);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto t = source.Next();
    ASSERT_TRUE(t.ok());
    EXPECT_FALSE(t->has_value());
  }
}

TEST(AsyncPrefetchSourceTest, ResetReplaysIdentically) {
  // A VectorScan supports Reset; the wrapper must stop the producer,
  // reset the child and replay the identical stream.
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 40; ++i) tuples.push_back(DeterministicTuple(i));
  AsyncPrefetchOptions opts;
  opts.queue_depth = 8;
  AsyncPrefetchSource source(
      std::make_unique<VectorScan>(KeyValueSchema(), tuples), opts);

  auto first = engine::Collect(source);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 40u);
  ASSERT_TRUE(source.Reset().ok());
  auto second = engine::Collect(source);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(Fingerprint((*second)[i]), Fingerprint((*first)[i]));
  }
  EXPECT_EQ(source.stats().starts, 2u);
}

TEST(AsyncPrefetchSourceTest, MidStreamResetDiscardsRingAndReplays) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 40; ++i) tuples.push_back(DeterministicTuple(i));
  // Synchronous golden run (VectorScan stamps delivery sequence
  // numbers, so compare against a delivered stream, not raw tuples).
  VectorScan sync(KeyValueSchema(), tuples);
  auto golden = engine::Collect(sync);
  ASSERT_TRUE(golden.ok());
  ASSERT_EQ(golden->size(), 40u);

  AsyncPrefetchSource source(
      std::make_unique<VectorScan>(KeyValueSchema(), tuples),
      AsyncPrefetchOptions{.queue_depth = 8});
  // Pull a prefix, then Reset with the ring (partially) full.
  for (int i = 0; i < 5; ++i) {
    auto t = source.Next();
    ASSERT_TRUE(t.ok() && t->has_value());
  }
  ASSERT_TRUE(source.Reset().ok());
  auto rows = engine::Collect(source);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(Fingerprint((*rows)[i]), Fingerprint((*golden)[i]));
  }
}

// ---------------------------------------------------------------------
// Lifecycle / shutdown

TEST(AsyncPrefetchLifecycleTest, DestructorWithoutAnyPull) {
  RunWithWatchdog("destruct unstarted", [] {
    AsyncPrefetchSource source(MakeInfiniteSource());
    EXPECT_EQ(source.stats().starts, 0u);
  });
}

TEST(AsyncPrefetchLifecycleTest, DestructorJoinsActiveProducer) {
  RunWithWatchdog("destruct active", [] {
    AsyncPrefetchSource source(
        MakeInfiniteSource(std::chrono::microseconds(200)));
    for (int i = 0; i < 3; ++i) {
      auto t = source.Next();
      ASSERT_TRUE(t.ok() && t->has_value());
    }
    // Destructor runs with the producer mid-pull.
  });
}

TEST(AsyncPrefetchLifecycleTest, DestructorJoinsProducerBlockedOnFullRing) {
  RunWithWatchdog("destruct blocked producer", [] {
    AsyncPrefetchOptions opts;
    opts.queue_depth = 2;
    AsyncPrefetchSource source(MakeInfiniteSource(), opts);
    auto t = source.Next();
    ASSERT_TRUE(t.ok() && t->has_value());
    // Let the fast producer fill the tiny ring and block on it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Destructor must unblock and join it.
  });
}

TEST(AsyncPrefetchLifecycleTest, CloseIsIdempotentAndTerminal) {
  RunWithWatchdog("close", [] {
    AsyncPrefetchSource source(MakeInfiniteSource(), {});
    auto t = source.Next();
    ASSERT_TRUE(t.ok() && t->has_value());
    EXPECT_TRUE(source.Close().ok());
    EXPECT_TRUE(source.Close().ok());  // idempotent
    EXPECT_TRUE(source.Next().status().IsCancelled());
    EXPECT_TRUE(source.Reset().IsCancelled());
  });
}

TEST(AsyncPrefetchLifecycleTest, CloseDuringActivePrefetchJoins) {
  RunWithWatchdog("close active", [] {
    AsyncPrefetchOptions opts;
    opts.queue_depth = 4;
    AsyncPrefetchSource source(
        MakeInfiniteSource(std::chrono::microseconds(100)), opts);
    for (int i = 0; i < 2; ++i) {
      auto t = source.Next();
      ASSERT_TRUE(t.ok() && t->has_value());
    }
    EXPECT_TRUE(source.Close().ok());
  });
}

TEST(AsyncPrefetchLifecycleTest, CloseOnReplayableWrapper) {
  RunWithWatchdog("close replayable", [] {
    KeyedGaussianSourceOptions kopts;
    kopts.count = 100000;  // big enough to still be mid-stream
    auto child = ReplayableKeyedGaussianSource::Make(kopts);
    ASSERT_TRUE(child.ok());
    AsyncPrefetchReplayableSource source(std::move(*child), {});
    for (int i = 0; i < 10; ++i) {
      auto t = source.Next();
      ASSERT_TRUE(t.ok() && t->has_value());
    }
    EXPECT_EQ(source.position(), 10u);
    EXPECT_TRUE(source.Close().ok());
    EXPECT_TRUE(source.Next().status().IsCancelled());
    EXPECT_TRUE(source.SeekTo(0).IsCancelled());
  });
}

// ---------------------------------------------------------------------
// Prefetch statistics

TEST(AsyncPrefetchStatsTest, SourceBoundPipelineWaitsOnPop) {
  // Slow producer, eager consumer: the consumer must have waited for
  // the ring at least once.
  AsyncPrefetchSource source(
      MakeCountingSource(10, std::chrono::microseconds(2000)));
  auto rows = engine::Collect(source);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
  EXPECT_GE(source.stats().pop_waits, 1u);
}

TEST(AsyncPrefetchStatsTest, ConsumerBoundPipelineWaitsOnPush) {
  // Fast producer, tiny ring, slow consumer: the producer must have hit
  // backpressure.
  AsyncPrefetchOptions opts;
  opts.queue_depth = 1;
  AsyncPrefetchSource source(MakeCountingSource(20), opts);
  for (int i = 0; i < 20; ++i) {
    auto t = source.Next();
    ASSERT_TRUE(t.ok() && t->has_value());
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_GE(source.stats().push_waits, 1u);
}

// ---------------------------------------------------------------------
// Fault-injection equivalence: SupervisedScan over a prefetching source
// must behave EXACTLY like SupervisedScan over the raw source.

struct FaultyRunResult {
  std::vector<std::string> outputs;
  Status final_status;
  SupervisionCounters counters;
  double backoff_seconds = 0.0;
};

// Source whose generator injects transient faults from a seeded
// schedule, emits an invalid (NaN-mean) tuple every 7th index and a
// zero-sample tuple every 11th, and stalls briefly every 13th — the
// full menu a supervised pipeline has to survive, deterministic by call
// count.
OperatorPtr MakeFaultySource(size_t count, FaultSpec spec) {
  auto injector = std::make_shared<FaultInjector>(spec, /*seed=*/99);
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<StreamScan>(
      KeyValueSchema(),
      [injector, produced, count]() -> Result<std::optional<Tuple>> {
        AUSDB_RETURN_NOT_OK(injector->Tick());
        if (*produced >= count) return std::optional<Tuple>(std::nullopt);
        const size_t i = (*produced)++;
        if (i % 13 == 12) {
          std::this_thread::sleep_for(std::chrono::microseconds(300));
        }
        if (i % 7 == 3) {
          return std::optional<Tuple>(
              Tuple({expr::Value(
                         std::string("k").append(std::to_string(i % 4))),
                     expr::Value(dist::RandomVar(
                         std::make_shared<dist::GaussianDist>(
                             std::numeric_limits<double>::quiet_NaN(), 1.0),
                         10))}));
        }
        if (i % 11 == 5) {
          return std::optional<Tuple>(
              Tuple({expr::Value(
                         std::string("k").append(std::to_string(i % 4))),
                     expr::Value(dist::RandomVar(
                         std::make_shared<dist::GaussianDist>(1.0, 1.0),
                         0))}));
        }
        return std::optional<Tuple>(DeterministicTuple(i));
      });
}

FaultyRunResult RunSupervised(OperatorPtr source, bool degrade) {
  SupervisedScanOptions sopts;
  sopts.retry.max_attempts = 4;
  sopts.retry.initial_backoff_seconds = 0.001;
  sopts.retry.jitter_fraction = 0.25;
  sopts.jitter_seed = 0xfeedULL;  // same seed => same backoff schedule
  if (degrade) {
    sopts.degradation = MakeWideGaussianDegradation(0.0, 100.0, 4);
  }
  SupervisedScan scan(std::move(source), sopts);

  FaultyRunResult result;
  for (;;) {
    auto t = scan.Next();
    if (!t.ok()) {
      result.final_status = t.status();
      break;
    }
    if (!t->has_value()) break;
    result.outputs.push_back(Fingerprint(**t));
  }
  result.counters = scan.counters();
  result.backoff_seconds = scan.counters().backoff_seconds;
  return result;
}

void ExpectIdenticalRuns(const FaultyRunResult& sync,
                         const FaultyRunResult& async, size_t depth) {
  EXPECT_EQ(async.final_status.code(), sync.final_status.code())
      << "depth " << depth << ": " << async.final_status.ToString()
      << " vs " << sync.final_status.ToString();
  ASSERT_EQ(async.outputs.size(), sync.outputs.size()) << "depth " << depth;
  for (size_t i = 0; i < sync.outputs.size(); ++i) {
    ASSERT_EQ(async.outputs[i], sync.outputs[i])
        << "depth " << depth << " output " << i;
  }
  EXPECT_EQ(async.counters.emitted, sync.counters.emitted)
      << "depth " << depth;
  EXPECT_EQ(async.counters.degraded, sync.counters.degraded)
      << "depth " << depth;
  EXPECT_EQ(async.counters.quarantined, sync.counters.quarantined)
      << "depth " << depth;
  EXPECT_EQ(async.counters.retries, sync.counters.retries)
      << "depth " << depth;
  EXPECT_EQ(async.counters.gave_up, sync.counters.gave_up)
      << "depth " << depth;
  EXPECT_DOUBLE_EQ(async.backoff_seconds, sync.backoff_seconds)
      << "depth " << depth;
}

TEST(AsyncFaultInjectionTest, TransientFaultsAccountIdentically) {
  FaultSpec spec;
  spec.mode = FaultMode::kEveryKth;
  spec.every_k = 9;  // recoverable: each retry schedule has < 4 failures
  for (bool degrade : {false, true}) {
    const FaultyRunResult sync =
        RunSupervised(MakeFaultySource(150, spec), degrade);
    ASSERT_TRUE(sync.final_status.ok()) << sync.final_status.ToString();
    ASSERT_GT(sync.counters.retries, 0u);
    // With degradation every invalid tuple is repaired instead of
    // quarantined; without it, they all land in quarantine.
    if (degrade) {
      ASSERT_GT(sync.counters.degraded, 0u);
      ASSERT_EQ(sync.counters.quarantined, 0u);
    } else {
      ASSERT_GT(sync.counters.quarantined, 0u);
    }
    for (size_t depth : {1u, 2u, 64u}) {
      AsyncPrefetchOptions opts;
      opts.queue_depth = depth;
      const FaultyRunResult async = RunSupervised(
          std::make_unique<AsyncPrefetchSource>(
              MakeFaultySource(150, spec), opts),
          degrade);
      ExpectIdenticalRuns(sync, async, depth);
    }
  }
}

TEST(AsyncFaultInjectionTest, ProbabilisticFaultsAccountIdentically) {
  FaultSpec spec;
  spec.mode = FaultMode::kProbability;
  spec.probability = 0.08;  // seeded => identical schedule on both paths
  const FaultyRunResult sync =
      RunSupervised(MakeFaultySource(120, spec), /*degrade=*/false);
  for (size_t depth : {1u, 2u, 64u}) {
    AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    const FaultyRunResult async = RunSupervised(
        std::make_unique<AsyncPrefetchSource>(MakeFaultySource(120, spec),
                                              opts),
        /*degrade=*/false);
    ExpectIdenticalRuns(sync, async, depth);
  }
}

TEST(AsyncFaultInjectionTest, PermanentOutageGivesUpIdentically) {
  // After 40 good pulls the source goes down for good: the supervisor
  // must exhaust its retry budget and surface the same failure at the
  // same output position on both paths.
  FaultSpec spec;
  spec.mode = FaultMode::kAfterN;
  spec.after_n = 40;
  const FaultyRunResult sync =
      RunSupervised(MakeFaultySource(150, spec), /*degrade=*/false);
  ASSERT_FALSE(sync.final_status.ok());
  ASSERT_EQ(sync.counters.gave_up, 1u);
  for (size_t depth : {1u, 2u, 64u}) {
    AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    const FaultyRunResult async = RunSupervised(
        std::make_unique<AsyncPrefetchSource>(MakeFaultySource(150, spec),
                                              opts),
        /*degrade=*/false);
    ExpectIdenticalRuns(sync, async, depth);
  }
}

TEST(AsyncFaultInjectionTest, FatalFaultPropagatesIdentically) {
  FaultSpec spec;
  spec.mode = FaultMode::kEveryKth;
  spec.every_k = 30;
  spec.code = StatusCode::kParseError;  // fatal: no retry
  const FaultyRunResult sync =
      RunSupervised(MakeFaultySource(100, spec), /*degrade=*/false);
  ASSERT_TRUE(sync.final_status.IsParseError());
  for (size_t depth : {1u, 2u, 64u}) {
    AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    const FaultyRunResult async = RunSupervised(
        std::make_unique<AsyncPrefetchSource>(MakeFaultySource(100, spec),
                                              opts),
        /*degrade=*/false);
    ExpectIdenticalRuns(sync, async, depth);
    EXPECT_TRUE(async.final_status.IsParseError());
  }
}

}  // namespace
}  // namespace stream
}  // namespace ausdb
