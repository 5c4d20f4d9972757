// Fault-tolerance layer: retry classification and backoff, deterministic
// fault injection, SupervisedScan recovery/quarantine/degradation, and
// operator checkpoint round trips.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault_injector.h"
#include "src/common/retry.h"
#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/serde/checkpoint.h"
#include "src/stream/sources.h"
#include "src/stream/supervised_source.h"

namespace ausdb {
namespace stream {
namespace {

using dist::RandomVar;
using engine::FieldType;
using engine::Operator;
using engine::OperatorPtr;
using engine::Schema;
using engine::StreamScan;
using engine::Tuple;
using engine::VectorScan;

Schema XSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

Tuple XTuple(double mean, double variance = 1.0, size_t n = 10) {
  return Tuple({expr::Value(RandomVar(
      std::make_shared<dist::GaussianDist>(mean, variance), n))});
}

// ---------------------------------------------------------------------
// RetryPolicy / classification

TEST(RetryPolicyTest, ClassifiesTransientVsFatal) {
  EXPECT_EQ(ClassifyStatus(Status::Unavailable("link down")),
            FailureClass::kTransient);
  EXPECT_EQ(ClassifyStatus(Status::Internal("sensor link dropped")),
            FailureClass::kTransient);
  EXPECT_EQ(ClassifyStatus(Status::InvalidArgument("bad plan")),
            FailureClass::kFatal);
  EXPECT_EQ(ClassifyStatus(Status::TypeError("string + 1")),
            FailureClass::kFatal);
  EXPECT_EQ(ClassifyStatus(Status::ParseError("ragged")),
            FailureClass::kFatal);
  EXPECT_EQ(ClassifyStatus(Status::NotImplemented("no")),
            FailureClass::kFatal);
  // Backpressure clears when the consumer drains; cancellation is a
  // deliberate shutdown and must never be retried.
  EXPECT_EQ(ClassifyStatus(Status::Backpressure("ring full")),
            FailureClass::kTransient);
  EXPECT_EQ(ClassifyStatus(Status::Cancelled("shutdown")),
            FailureClass::kFatal);
}

TEST(RetryPolicyTest, BackoffGrowsAndCaps) {
  RetryPolicy p;
  p.initial_backoff_seconds = 0.010;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 0.050;
  p.jitter_fraction = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(p.BackoffFor(0, rng), 0.010);
  EXPECT_DOUBLE_EQ(p.BackoffFor(1, rng), 0.020);
  EXPECT_DOUBLE_EQ(p.BackoffFor(2, rng), 0.040);
  EXPECT_DOUBLE_EQ(p.BackoffFor(3, rng), 0.050);  // capped
  EXPECT_DOUBLE_EQ(p.BackoffFor(30, rng), 0.050);
}

TEST(RetryPolicyTest, JitterIsDeterministicAndBounded) {
  RetryPolicy p;
  p.initial_backoff_seconds = 0.100;
  p.jitter_fraction = 0.25;
  Rng a(77), b(77);
  for (size_t retry = 0; retry < 5; ++retry) {
    const double da = p.BackoffFor(retry, a);
    const double db = p.BackoffFor(retry, b);
    EXPECT_DOUBLE_EQ(da, db);  // same seed, same schedule
  }
  Rng c(5);
  const double d = p.BackoffFor(0, c);
  EXPECT_GE(d, 0.100 * 0.75);
  EXPECT_LE(d, 0.100 * 1.25);
}

TEST(RetryPolicyTest, ShouldRetryHonorsBudgetAndClass) {
  RetryPolicy p;
  p.max_attempts = 3;
  EXPECT_TRUE(p.ShouldRetry(Status::Unavailable("x"), 1));
  EXPECT_TRUE(p.ShouldRetry(Status::Unavailable("x"), 2));
  EXPECT_FALSE(p.ShouldRetry(Status::Unavailable("x"), 3));
  EXPECT_FALSE(p.ShouldRetry(Status::InvalidArgument("x"), 1));
  EXPECT_FALSE(p.ShouldRetry(Status::OK(), 1));
}

TEST(RetryPolicyTest, DeadlineBoundsTotalElapsedTime) {
  RetryPolicy p;
  p.max_attempts = 100;  // attempts alone would allow many more retries
  p.max_elapsed_seconds = 1.0;
  EXPECT_TRUE(p.ShouldRetry(Status::Unavailable("x"), 1, 0.0));
  EXPECT_TRUE(p.ShouldRetry(Status::Unavailable("x"), 1, 0.999));
  EXPECT_FALSE(p.ShouldRetry(Status::Unavailable("x"), 1, 1.0));
  EXPECT_FALSE(p.ShouldRetry(Status::Unavailable("x"), 1, 5.0));
  EXPECT_FALSE(p.DeadlineExhausted(0.999));
  EXPECT_TRUE(p.DeadlineExhausted(1.0));

  // 0 disables the deadline (the default): only attempts bound retry.
  p.max_elapsed_seconds = 0.0;
  EXPECT_TRUE(p.ShouldRetry(Status::Unavailable("x"), 1, 1e9));
  EXPECT_FALSE(p.DeadlineExhausted(1e9));
}

TEST(SupervisedScanTest, DeadlineExhaustionSurfacesWithLastError) {
  // A permanently down source: every pull fails transiently. The attempt
  // budget is generous, so the elapsed-time deadline is what gives up.
  auto source = std::make_unique<StreamScan>(
      XSchema(), []() -> Result<std::optional<Tuple>> {
        return Status::Unavailable("feed is down");
      });
  SupervisedScanOptions opts;
  opts.retry.max_attempts = 1000;
  opts.retry.initial_backoff_seconds = 0.010;
  opts.retry.backoff_multiplier = 2.0;
  opts.retry.max_backoff_seconds = 0.080;
  opts.retry.jitter_fraction = 0.0;
  opts.retry.max_elapsed_seconds = 0.200;  // exhausted after a few retries
  SupervisedScan scan(std::move(source), opts);

  auto out = engine::Collect(scan);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded())
      << out.status().ToString();
  // The deadline error carries the last underlying failure.
  EXPECT_NE(out.status().message().find("feed is down"),
            std::string::npos)
      << out.status().ToString();
  EXPECT_EQ(scan.counters().gave_up, 1u);
  EXPECT_GE(scan.counters().backoff_seconds,
            opts.retry.max_elapsed_seconds);
}

TEST(SupervisedScanTest, AttemptCapStillReportsUnderlyingError) {
  // With the attempt cap binding (deadline disabled), the original
  // Status must propagate unchanged — no DeadlineExceeded rewrite.
  auto source = std::make_unique<StreamScan>(
      XSchema(), []() -> Result<std::optional<Tuple>> {
        return Status::Unavailable("feed is down");
      });
  SupervisedScanOptions opts;
  opts.retry.max_attempts = 3;
  SupervisedScan scan(std::move(source), opts);
  auto out = engine::Collect(scan);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable()) << out.status().ToString();
  EXPECT_EQ(scan.counters().gave_up, 1u);
}

TEST(RetryClassificationTest, NewCodesAreFatal) {
  // Corruption and deadline exhaustion must not be retried: retrying
  // cannot repair damaged bytes, and a deadline already includes all the
  // retrying it was willing to do.
  EXPECT_EQ(ClassifyStatus(Status::Corruption("bad checksum")),
            FailureClass::kFatal);
  EXPECT_EQ(ClassifyStatus(Status::DeadlineExceeded("budget spent")),
            FailureClass::kFatal);
}

TEST(RetryClassificationTest, OverloadCodesSplitByRecoverability) {
  // Governor admission rejections are transient: pressure relaxes, and
  // the refused pull will be admitted at a later epoch. A blown memory
  // budget is fatal to the pull: the budget does not free itself, so
  // the supervisor must surface it, not spin on it.
  EXPECT_EQ(ClassifyStatus(Status::Overloaded("admission control")),
            FailureClass::kTransient);
  EXPECT_EQ(ClassifyStatus(Status::Backpressure("ring full")),
            FailureClass::kTransient);
  EXPECT_EQ(ClassifyStatus(Status::ResourceExhausted("budget spent")),
            FailureClass::kFatal);
}

TEST(RetryPolicyTest, DeadlineExhaustedBoundariesAreExact) {
  RetryPolicy p;
  p.max_attempts = 1000;
  p.max_elapsed_seconds = 0.5;
  // The decision flips exactly at the deadline — elapsed time is
  // accumulated scheduled backoff, so the boundary is deterministic,
  // not a wall-clock race.
  EXPECT_FALSE(p.DeadlineExhausted(0.0));
  EXPECT_FALSE(p.DeadlineExhausted(std::nextafter(0.5, 0.0)));
  EXPECT_TRUE(p.DeadlineExhausted(0.5));
  EXPECT_TRUE(p.DeadlineExhausted(std::nextafter(0.5, 1.0)));
  // ShouldRetry and DeadlineExhausted agree at the boundary: whenever
  // the deadline forbids a retry of a transient error, it also claims
  // responsibility for the give-up.
  EXPECT_TRUE(p.ShouldRetry(Status::Overloaded("x"), 1,
                            std::nextafter(0.5, 0.0)));
  EXPECT_FALSE(p.ShouldRetry(Status::Overloaded("x"), 1, 0.5));
}

TEST(SupervisedScanTest, RidesOutTransientOverload) {
  // A source refusing admission a few times before each tuple: the
  // supervisor retries kOverloaded like any transient fault, and the
  // full stream arrives.
  size_t pulls = 0;
  size_t emitted = 0;
  auto source = std::make_unique<StreamScan>(
      XSchema(), [&]() -> Result<std::optional<Tuple>> {
        if (++pulls % 3 != 0) {
          return Status::Overloaded("governor admission control");
        }
        if (emitted >= 5) return std::optional<Tuple>(std::nullopt);
        return std::optional<Tuple>(XTuple(static_cast<double>(emitted++)));
      });
  SupervisedScanOptions opts;
  opts.retry.max_attempts = 10;
  opts.retry.initial_backoff_seconds = 0.0;
  opts.retry.jitter_fraction = 0.0;
  SupervisedScan scan(std::move(source), opts);
  auto out = engine::Collect(scan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 5u) << "admission control delays, never drops";
  EXPECT_GE(scan.counters().retries, 10u);
  EXPECT_EQ(scan.counters().gave_up, 0u);
}

// ---------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, EveryKth) {
  FaultInjector fi({.mode = FaultMode::kEveryKth, .every_k = 3});
  std::vector<bool> failed;
  for (int i = 0; i < 9; ++i) failed.push_back(!fi.Tick().ok());
  EXPECT_EQ(failed, (std::vector<bool>{false, false, true, false, false,
                                       true, false, false, true}));
  EXPECT_EQ(fi.calls(), 9u);
  EXPECT_EQ(fi.injected(), 3u);
}

TEST(FaultInjectorTest, AfterNWithBoundedFailures) {
  FaultSpec spec;
  spec.mode = FaultMode::kAfterN;
  spec.after_n = 2;
  spec.max_failures = 2;
  FaultInjector fi(spec);
  EXPECT_TRUE(fi.Tick().ok());
  EXPECT_TRUE(fi.Tick().ok());
  EXPECT_TRUE(fi.Tick().IsUnavailable());
  EXPECT_TRUE(fi.Tick().IsUnavailable());
  EXPECT_TRUE(fi.Tick().ok());  // glitch over: max_failures reached
}

TEST(FaultInjectorTest, ProbabilityIsSeededDeterministic) {
  FaultSpec spec;
  spec.mode = FaultMode::kProbability;
  spec.probability = 0.3;
  FaultInjector a(spec, 9), b(spec, 9);
  size_t failures = 0;
  for (int i = 0; i < 1000; ++i) {
    const bool fa = !a.Tick().ok();
    const bool fb = !b.Tick().ok();
    EXPECT_EQ(fa, fb);
    failures += fa;
  }
  EXPECT_GT(failures, 200u);
  EXPECT_LT(failures, 400u);
  a.Reset();
  EXPECT_EQ(a.calls(), 0u);
}

TEST(FaultInjectorTest, CustomStatusCode) {
  FaultSpec spec;
  spec.mode = FaultMode::kAfterN;
  spec.after_n = 0;
  spec.code = StatusCode::kInvalidArgument;
  spec.message = "poison pill";
  FaultInjector fi(spec);
  const Status s = fi.Tick();
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("poison pill"), std::string::npos);
}

// ---------------------------------------------------------------------
// SupervisedScan

/// A source that produces `total` tuples but raises a transient failure
/// on every `glitch_every`-th pull (the tuple is not consumed: a retry
/// gets it).
OperatorPtr GlitchySource(size_t total, size_t glitch_every,
                          std::shared_ptr<FaultInjector>* out_fi = nullptr) {
  FaultSpec spec;
  spec.mode = FaultMode::kEveryKth;
  spec.every_k = glitch_every;
  spec.max_failures = 0;
  auto fi = std::make_shared<FaultInjector>(spec);
  if (out_fi != nullptr) *out_fi = fi;
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<StreamScan>(
      XSchema(),
      [fi, produced, total]() -> Result<std::optional<Tuple>> {
        if (*produced >= total) return std::optional<Tuple>(std::nullopt);
        AUSDB_RETURN_NOT_OK(fi->Tick());
        ++*produced;
        return std::optional<Tuple>(XTuple(5.0));
      });
}

TEST(SupervisedScanTest, RecoversFromTransientFailures) {
  std::shared_ptr<FaultInjector> fi;
  SupervisedScan scan(GlitchySource(100, 7, &fi), {});
  auto out = engine::Collect(scan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 100u);
  EXPECT_GT(scan.counters().retries, 0u);
  EXPECT_EQ(scan.counters().retries, fi->injected());
  EXPECT_EQ(scan.counters().emitted, 100u);
  EXPECT_EQ(scan.counters().gave_up, 0u);
  EXPECT_GT(scan.counters().backoff_seconds, 0.0);
}

TEST(SupervisedScanTest, FatalErrorFailsFastWithOriginalStatus) {
  auto produced = std::make_shared<size_t>(0);
  auto source = std::make_unique<StreamScan>(
      XSchema(), [produced]() -> Result<std::optional<Tuple>> {
        if (*produced >= 3) {
          return Status::InvalidArgument("schema drift detected");
        }
        ++*produced;
        return std::optional<Tuple>(XTuple(1.0));
      });
  SupervisedScan scan(std::move(source), {});
  auto out = engine::Collect(scan);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
  EXPECT_NE(out.status().message().find("schema drift"),
            std::string::npos);
  EXPECT_EQ(scan.counters().retries, 0u);
  EXPECT_EQ(scan.counters().gave_up, 0u);
}

TEST(SupervisedScanTest, GivesUpAfterRetryBudget) {
  // Permanent outage: every pull fails transiently.
  FaultSpec spec;
  spec.mode = FaultMode::kAfterN;
  spec.after_n = 5;
  auto fi = std::make_shared<FaultInjector>(spec);
  auto source = std::make_unique<StreamScan>(
      XSchema(), [fi]() -> Result<std::optional<Tuple>> {
        AUSDB_RETURN_NOT_OK(fi->Tick());
        return std::optional<Tuple>(XTuple(1.0));
      });
  SupervisedScanOptions opts;
  opts.retry.max_attempts = 4;
  SupervisedScan scan(std::move(source), std::move(opts));
  auto out = engine::Collect(scan);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsUnavailable());
  EXPECT_EQ(scan.counters().gave_up, 1u);
  EXPECT_EQ(scan.counters().retries, 3u);  // 4 attempts = 3 retries
  EXPECT_EQ(scan.counters().emitted, 5u);
}

TEST(SupervisedScanTest, RestartCallbackInvokedOncePerSequence) {
  FaultSpec spec;
  spec.mode = FaultMode::kAfterN;
  spec.after_n = 3;
  spec.max_failures = 3;
  auto fi = std::make_shared<FaultInjector>(spec);
  auto source = std::make_unique<StreamScan>(
      XSchema(), [fi]() -> Result<std::optional<Tuple>> {
        AUSDB_RETURN_NOT_OK(fi->Tick());
        return std::optional<Tuple>(XTuple(2.0));
      });
  size_t restarted = 0;
  SupervisedScanOptions opts;
  opts.retry.max_attempts = 8;
  opts.restart = [&restarted]() {
    ++restarted;
    return Status::OK();
  };
  opts.restart_after_attempts = 2;
  SupervisedScan scan(std::move(source), std::move(opts));
  auto out = engine::Run(scan, {.limit = 6});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, 6u);
  EXPECT_EQ(restarted, 1u);
  EXPECT_EQ(scan.counters().restarts, 1u);
}

TEST(SupervisedScanTest, InvalidTuplesAreQuarantinedWithStatus) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Tuple> tuples = {XTuple(1.0), XTuple(nan), XTuple(2.0),
                               XTuple(3.0, 1.0, /*n=*/0), XTuple(4.0)};
  auto scan = std::make_unique<VectorScan>(XSchema(), std::move(tuples));
  SupervisedScan supervised(std::move(scan), {});
  auto out = engine::Collect(supervised);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 3u);
  EXPECT_EQ(supervised.counters().emitted, 3u);
  EXPECT_EQ(supervised.counters().quarantined, 2u);
  ASSERT_EQ(supervised.quarantine().size(), 2u);
  EXPECT_TRUE(
      supervised.quarantine()[0].status.IsInvalidArgument());  // NaN mean
  EXPECT_NE(supervised.quarantine()[0].status.message().find("x"),
            std::string::npos);
  EXPECT_TRUE(
      supervised.quarantine()[1].status.IsInsufficientData());  // n == 0
}

TEST(SupervisedScanTest, QuarantineIsBounded) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Tuple> tuples;
  for (int i = 0; i < 10; ++i) tuples.push_back(XTuple(nan));
  auto scan = std::make_unique<VectorScan>(XSchema(), std::move(tuples));
  SupervisedScanOptions opts;
  opts.quarantine_capacity = 4;
  SupervisedScan supervised(std::move(scan), std::move(opts));
  auto out = engine::Collect(supervised);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(supervised.counters().quarantined, 10u);  // all accounted
  EXPECT_EQ(supervised.quarantine().size(), 4u);      // buffer bounded
  // Oldest evicted: the survivors are the last four (sequences 6..9).
  EXPECT_EQ(supervised.quarantine().front().tuple.sequence(), 6u);
}

TEST(SupervisedScanTest, DegradationSubstitutesWidePrior) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Tuple> tuples = {XTuple(1.0), XTuple(nan), XTuple(2.0)};
  auto scan = std::make_unique<VectorScan>(XSchema(), std::move(tuples));
  SupervisedScanOptions opts;
  opts.degradation = MakeWideGaussianDegradation(0.0, 100.0, /*n=*/2);
  SupervisedScan supervised(std::move(scan), std::move(opts));
  auto out = engine::Collect(supervised);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 3u);  // degraded, not dropped
  EXPECT_EQ(supervised.counters().emitted, 2u);
  EXPECT_EQ(supervised.counters().degraded, 1u);
  EXPECT_EQ(supervised.counters().quarantined, 0u);
  const auto rv = *(*out)[1].value(0).random_var();
  EXPECT_DOUBLE_EQ(rv.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(rv.Variance(), 100.0);
  EXPECT_EQ(rv.sample_size(), 2u);
  EXPECT_EQ((*out)[1].sequence(), 1u);  // provenance preserved
}

TEST(SupervisedScanTest, ResetClearsCountersAndQuarantine) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Tuple> tuples = {XTuple(1.0), XTuple(nan)};
  auto scan = std::make_unique<VectorScan>(XSchema(), std::move(tuples));
  SupervisedScan supervised(std::move(scan), {});
  ASSERT_TRUE(engine::Collect(supervised).ok());
  EXPECT_EQ(supervised.counters().quarantined, 1u);
  ASSERT_TRUE(supervised.Reset().ok());
  EXPECT_EQ(supervised.counters().quarantined, 0u);
  EXPECT_TRUE(supervised.quarantine().empty());
  auto again = engine::Collect(supervised);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), 1u);
}

TEST(SupervisedScanTest, PipelineWithInjectedFaultsMatchesCleanRun) {
  // Acceptance: a windowed pipeline over a glitchy source produces
  // exactly the same results as one over a clean source.
  auto clean =
      engine::WindowAggregate::Make(GlitchySource(200, 0x7fffffff), "x",
                                    "avg", {.window_size = 16});
  ASSERT_TRUE(clean.ok());
  auto clean_out = engine::Collect(**clean);
  ASSERT_TRUE(clean_out.ok());

  std::shared_ptr<FaultInjector> fi;
  auto supervised = std::make_unique<SupervisedScan>(
      GlitchySource(200, 5, &fi), SupervisedScanOptions{});
  auto* sup = supervised.get();
  auto agg = engine::WindowAggregate::Make(std::move(supervised), "x",
                                           "avg", {.window_size = 16});
  ASSERT_TRUE(agg.ok());
  auto out = engine::Collect(**agg);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), clean_out->size());
  EXPECT_GT(sup->counters().retries, 0u);
  for (size_t i = 0; i < out->size(); ++i) {
    const auto a = *(*out)[i].value(0).random_var();
    const auto b = *(*clean_out)[i].value(0).random_var();
    EXPECT_EQ(a.Mean(), b.Mean());
    EXPECT_EQ(a.Variance(), b.Variance());
  }
}

// ---------------------------------------------------------------------
// Checkpoint serde

TEST(CheckpointSerdeTest, RoundTripsTokensAndBitExactDoubles) {
  serde::CheckpointWriter w;
  w.Token("tag.v1");
  w.Uint(12345678901234ULL);
  w.Double(0.1);  // not exactly representable: decimal would drift
  w.Double(-0.0);
  w.Double(std::numeric_limits<double>::infinity());
  w.Bytes("key with spaces\nand:colons");
  w.Bytes("");
  const std::string blob = std::move(w).Finish();

  serde::CheckpointReader r(blob);
  ASSERT_TRUE(r.ExpectToken("tag.v1").ok());
  EXPECT_EQ(*r.NextUint(), 12345678901234ULL);
  double d = *r.NextDouble();
  EXPECT_EQ(d, 0.1);
  d = *r.NextDouble();
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(std::signbit(d));
  EXPECT_TRUE(std::isinf(*r.NextDouble()));
  EXPECT_EQ(*r.NextBytes(), "key with spaces\nand:colons");
  EXPECT_EQ(*r.NextBytes(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(CheckpointSerdeTest, RejectsMalformedInput) {
  serde::CheckpointReader truncated("tag");
  ASSERT_TRUE(truncated.ExpectToken("tag").ok());
  EXPECT_TRUE(truncated.NextUint().status().IsCorruption());

  serde::CheckpointReader wrong_tag("other");
  EXPECT_TRUE(wrong_tag.ExpectToken("tag").IsCorruption());

  serde::CheckpointReader bad_int("12x4");
  EXPECT_TRUE(bad_int.NextUint().status().IsCorruption());

  serde::CheckpointReader bad_double("zz");
  EXPECT_TRUE(bad_double.NextDouble().status().IsCorruption());

  serde::CheckpointReader short_bytes("10:abc");
  EXPECT_TRUE(short_bytes.NextBytes().status().IsCorruption());
}

// ---------------------------------------------------------------------
// Operator checkpoint/restore

std::vector<Tuple> GaussianTuples(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(XTuple(rng.NextDouble(0.0, 20.0),
                         rng.NextDouble(0.5, 2.0), 10 + i % 5));
  }
  return out;
}

TEST(CheckpointTest, DefaultOperatorDoesNotSupportCheckpoints) {
  VectorScan scan(XSchema(), {});
  EXPECT_TRUE(scan.SaveCheckpoint().status().IsNotImplemented());
  EXPECT_TRUE(scan.RestoreCheckpoint("").IsNotImplemented());
}

TEST(CheckpointTest, WindowAggregateResumesMidWindowBitForBit) {
  constexpr size_t kTuples = 100;
  constexpr size_t kWindow = 16;
  constexpr size_t kKill = 37;  // mid-window: 37 outputs consumed
  const std::vector<Tuple> tuples = GaussianTuples(kTuples, 31);

  // Uninterrupted run.
  auto full = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(XSchema(), tuples), "x", "avg",
      {.window_size = kWindow});
  ASSERT_TRUE(full.ok());
  auto full_out = engine::Collect(**full);
  ASSERT_TRUE(full_out.ok());
  ASSERT_EQ(full_out->size(), kTuples - kWindow + 1);

  // Interrupted run: consume kKill outputs, checkpoint, "crash".
  auto first = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(XSchema(), tuples), "x", "avg",
      {.window_size = kWindow});
  ASSERT_TRUE(first.ok());
  std::vector<Tuple> head;
  ASSERT_TRUE(engine::Run(**first, {.limit = kKill}, &head).ok());
  ASSERT_EQ(head.size(), kKill);
  auto blob = (*first)->SaveCheckpoint();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  first->reset();  // the crash

  // Restored run: a fresh operator over the *remaining* input.
  const size_t inputs_consumed = kWindow + kKill - 1;
  std::vector<Tuple> rest(tuples.begin() + inputs_consumed, tuples.end());
  auto resumed = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(XSchema(), std::move(rest)), "x",
      "avg", {.window_size = kWindow});
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->RestoreCheckpoint(*blob).ok());
  auto tail = engine::Collect(**resumed);
  ASSERT_TRUE(tail.ok());

  ASSERT_EQ(head.size() + tail->size(), full_out->size());
  for (size_t i = 0; i < full_out->size(); ++i) {
    const Tuple& got =
        i < head.size() ? head[i] : (*tail)[i - head.size()];
    const auto a = *got.value(0).random_var();
    const auto b = *(*full_out)[i].value(0).random_var();
    // Bit-for-bit: the checkpoint preserves the accumulators' exact
    // floating-point history, not a recomputed approximation.
    EXPECT_EQ(a.Mean(), b.Mean()) << "output " << i;
    EXPECT_EQ(a.Variance(), b.Variance()) << "output " << i;
    EXPECT_EQ(a.sample_size(), b.sample_size()) << "output " << i;
  }
}

TEST(CheckpointTest, WindowAggregateRejectsMismatchedShape) {
  auto a = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(XSchema(), GaussianTuples(20, 1)), "x",
      "avg", {.window_size = 8});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(engine::Run(**a, {.limit = 5}).ok());
  auto blob = (*a)->SaveCheckpoint();
  ASSERT_TRUE(blob.ok());

  auto b = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(XSchema(), std::vector<Tuple>{}), "x",
      "avg", {.window_size = 16});  // different window size
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*b)->RestoreCheckpoint(*blob).IsInvalidArgument());
  EXPECT_TRUE((*b)->RestoreCheckpoint("garbage").IsCorruption());
}

TEST(CheckpointTest, PartitionedWindowRoundTripsAllPartitions) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"key", FieldType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"x", FieldType::kUncertain}).ok());
  std::vector<Tuple> tuples;
  Rng rng(4);
  for (size_t r = 0; r < 30; ++r) {
    for (size_t k = 0; k < 5; ++k) {
      tuples.emplace_back(std::vector<expr::Value>{
          expr::Value(std::string("k") + std::to_string(k)),
          expr::Value(RandomVar(
              std::make_shared<dist::GaussianDist>(
                  rng.NextDouble(0.0, 10.0), 1.0),
              10))});
    }
  }

  auto full = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(schema, tuples), "x", "avg",
      {.window_size = 8}, "key");
  ASSERT_TRUE(full.ok());
  auto full_out = engine::Collect(**full);
  ASSERT_TRUE(full_out.ok());

  constexpr size_t kKill = 40;
  auto first = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(schema, tuples), "x", "avg",
      {.window_size = 8}, "key");
  ASSERT_TRUE(first.ok());
  std::vector<Tuple> head;
  ASSERT_TRUE(engine::Run(**first, {.limit = kKill}, &head).ok());
  auto blob = (*first)->SaveCheckpoint();
  ASSERT_TRUE(blob.ok());

  // Inputs consumed = outputs + per-key warmup (7 per key, all 5 keys
  // warmed before the 40th output).
  const size_t inputs_consumed = kKill + 5 * 7;
  std::vector<Tuple> rest(tuples.begin() + inputs_consumed, tuples.end());
  auto resumed = engine::WindowAggregate::Make(
      std::make_unique<VectorScan>(schema, std::move(rest)), "x", "avg",
      {.window_size = 8}, "key");
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->RestoreCheckpoint(*blob).ok());
  EXPECT_EQ((*resumed)->partition_count(), 5u);
  auto tail = engine::Collect(**resumed);
  ASSERT_TRUE(tail.ok());

  ASSERT_EQ(head.size() + tail->size(), full_out->size());
  for (size_t i = 0; i < full_out->size(); ++i) {
    const Tuple& got =
        i < head.size() ? head[i] : (*tail)[i - head.size()];
    EXPECT_EQ(*got.value(0).string_value(),
              *(*full_out)[i].value(0).string_value());
    const auto a = *got.value(1).random_var();
    const auto b = *(*full_out)[i].value(1).random_var();
    EXPECT_EQ(a.Mean(), b.Mean()) << "output " << i;
    EXPECT_EQ(a.Variance(), b.Variance()) << "output " << i;
  }
}

}  // namespace
}  // namespace stream
}  // namespace ausdb
