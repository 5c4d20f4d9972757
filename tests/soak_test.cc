// Soak tests: larger volumes through full pipelines, checking invariants
// rather than point values — guards against state corruption in window
// bookkeeping, partition maps and the annotator over long runs.

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/common/fault_injector.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/window_aggregate.h"
#include "src/serde/json_writer.h"
#include "src/stream/sources.h"
#include "src/stream/supervised_source.h"

namespace ausdb {
namespace engine {
namespace {

TEST(SoakTest, LongWindowedStreamKeepsInvariants) {
  constexpr size_t kTuples = 30000;
  constexpr size_t kWindow = 500;
  auto source = stream::MakeLearnedGaussianSource("x", kTuples, 20, 10.0,
                                                  2.0, 99);
  auto agg = WindowAggregate::Make(std::move(source), "x", "avg",
                                   {.window_size = kWindow});
  ASSERT_TRUE(agg.ok());
  AccuracyAnnotatorOptions aopts;
  aopts.confidence = 0.9;
  AccuracyAnnotator annotator(std::move(*agg), aopts);

  size_t count = 0;
  for (;;) {
    auto t = annotator.Next();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    if (!t->has_value()) break;
    ++count;
    const auto rv = *(*t)->value(0).random_var();
    // The window average of N(10, 4)-learned items stays near 10 with
    // tiny variance; any drift indicates broken eviction bookkeeping.
    ASSERT_NEAR(rv.Mean(), 10.0, 1.0);
    ASSERT_GT(rv.Variance(), 0.0);
    ASSERT_LT(rv.Variance(), 4.0);
    ASSERT_EQ(rv.sample_size(), 20u);
    const auto& acc = (*t)->accuracy()[0];
    ASSERT_TRUE(acc.has_value());
    ASSERT_LE(acc->mean_ci->lo, rv.Mean());
    ASSERT_GE(acc->mean_ci->hi, rv.Mean());
  }
  EXPECT_EQ(count, kTuples - kWindow + 1);
}

TEST(SoakTest, ManyPartitionsStayIndependent) {
  // 200 keys interleaved; each key's window must only see its own data.
  constexpr size_t kKeys = 200;
  constexpr size_t kRounds = 50;
  Schema schema;
  ASSERT_TRUE(schema.AddField({"key", FieldType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"x", FieldType::kUncertain}).ok());

  std::vector<Tuple> tuples;
  tuples.reserve(kKeys * kRounds);
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t k = 0; k < kKeys; ++k) {
      // Key k's values are exactly k (zero variance): any cross-key
      // contamination shifts a mean detectably.
      tuples.emplace_back(std::vector<expr::Value>{
          expr::Value(std::string("k").append(std::to_string(k))),
          expr::Value(dist::RandomVar(
              std::make_shared<dist::GaussianDist>(
                  static_cast<double>(k), 0.0),
              10))});
    }
  }
  auto scan = std::make_unique<VectorScan>(schema, std::move(tuples));
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg",
                                   {.window_size = 8}, "key");
  ASSERT_TRUE(agg.ok());
  size_t count = 0;
  for (;;) {
    auto t = (*agg)->Next();
    ASSERT_TRUE(t.ok());
    if (!t->has_value()) break;
    ++count;
    const std::string key = *(*t)->value(0).string_value();
    const double expected = std::stod(key.substr(1));
    ASSERT_DOUBLE_EQ((*t)->value(1).random_var()->Mean(), expected);
  }
  EXPECT_EQ(count, kKeys * (kRounds - 8 + 1));
  EXPECT_EQ((*agg)->partition_count(), kKeys);
}

TEST(SoakTest, SupervisedPipelineAccountsForEveryTuple) {
  // A long run through SupervisedScan with ~1% transient pull failures
  // and a sprinkling of invalid (NaN-mean / zero-sample) tuples. The
  // invariant is exact accounting: every tuple the source fed either
  // came out, was degraded, or sits in the quarantine counters —
  // emitted + degraded + quarantined == fed, with zero silent loss.
  constexpr size_t kTuples = 50000;

  FaultSpec spec;
  spec.mode = FaultMode::kProbability;
  spec.probability = 0.01;
  auto transient = std::make_shared<FaultInjector>(spec, /*seed=*/21);

  auto rng = std::make_shared<Rng>(77);
  auto fed = std::make_shared<size_t>(0);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"x", FieldType::kUncertain}).ok());
  engine::TupleGenerator gen =
      [transient, rng, fed]() -> Result<std::optional<Tuple>> {
    if (*fed >= kTuples) return std::optional<Tuple>(std::nullopt);
    // Transient link glitch before the tuple is produced: a retry pull
    // gets the tuple, so nothing is lost.
    AUSDB_RETURN_NOT_OK(transient->Tick());
    ++*fed;
    const double roll = rng->NextDouble();
    double mean = rng->NextDouble(0.0, 20.0);
    size_t n = 10;
    if (roll < 0.005) {
      mean = std::numeric_limits<double>::quiet_NaN();  // garbage reading
    } else if (roll < 0.01) {
      n = 0;  // zero-sample distribution
    }
    return std::optional<Tuple>(Tuple({expr::Value(dist::RandomVar(
        std::make_shared<dist::GaussianDist>(mean, 1.0), n))}));
  };

  stream::SupervisedScanOptions opts;
  opts.retry.max_attempts = 10;
  auto source = std::make_unique<engine::StreamScan>(schema, std::move(gen));
  stream::SupervisedScan scan(std::move(source), std::move(opts));

  auto out = Collect(scan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& c = scan.counters();
  EXPECT_EQ(*fed, kTuples);
  EXPECT_GT(c.retries, 200u);  // ~1% of 50k pulls glitched
  EXPECT_GT(c.quarantined, 100u);
  EXPECT_EQ(c.degraded, 0u);  // no degradation policy configured
  EXPECT_EQ(c.gave_up, 0u);
  // Exact accounting, the headline invariant.
  EXPECT_EQ(c.emitted + c.degraded + c.quarantined, *fed);
  EXPECT_EQ(out->size(), c.emitted);
}

TEST(SoakTest, SupervisedDegradationKeepsAvailability) {
  // Same dirty stream, but with a degradation policy: nothing is
  // quarantined, every fed tuple reaches the query — at degraded
  // accuracy for the dirty ones.
  constexpr size_t kTuples = 20000;
  auto rng = std::make_shared<Rng>(78);
  auto fed = std::make_shared<size_t>(0);
  Schema schema;
  ASSERT_TRUE(schema.AddField({"x", FieldType::kUncertain}).ok());
  engine::TupleGenerator gen =
      [rng, fed]() -> Result<std::optional<Tuple>> {
    if (*fed >= kTuples) return std::optional<Tuple>(std::nullopt);
    ++*fed;
    const bool dirty = rng->NextDouble() < 0.01;
    const double mean =
        dirty ? std::numeric_limits<double>::quiet_NaN()
              : rng->NextDouble(0.0, 20.0);
    return std::optional<Tuple>(Tuple({expr::Value(dist::RandomVar(
        std::make_shared<dist::GaussianDist>(mean, 1.0), 10))}));
  };

  stream::SupervisedScanOptions opts;
  opts.degradation =
      stream::MakeWideGaussianDegradation(10.0, 400.0, /*n=*/2);
  stream::SupervisedScan scan(
      std::make_unique<engine::StreamScan>(schema, std::move(gen)),
      std::move(opts));
  auto out = Collect(scan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const auto& c = scan.counters();
  EXPECT_EQ(out->size(), kTuples);  // full availability
  EXPECT_GT(c.degraded, 100u);
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_EQ(c.emitted + c.degraded, *fed);
}

TEST(SoakTest, JsonExportSurvivesVolume) {
  auto source = stream::MakeLearnedGaussianSource("x", 2000, 10, 0.0, 1.0,
                                                  5);
  size_t total_bytes = 0;
  for (;;) {
    auto t = source->Next();
    ASSERT_TRUE(t.ok());
    if (!t->has_value()) break;
    const std::string json = serde::ToJson(**t, source->schema());
    ASSERT_EQ(json.front(), '{');
    ASSERT_EQ(json.back(), '}');
    total_bytes += json.size();
  }
  EXPECT_GT(total_bytes, 2000u * 40u);
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
