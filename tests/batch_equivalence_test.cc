// Deterministic-equivalence harness for columnar batch execution: every
// pipeline here runs once tuple-at-a-time (the golden run) and once
// through NextBatch at the executor's deterministic batch size — directly
// and behind AsyncPrefetchSource at queue depths {1, 2, 64} — and the
// serialized output bytes must be identical.
// Batching is an execution-strategy change, never a semantics change.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/executor.h"
#include "src/engine/limit.h"
#include "src/engine/pipeline_profiler.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/io/observation_loader.h"
#include "src/obs/metrics.h"
#include "src/query/planner.h"
#include "src/serde/json_writer.h"
#include "src/serde/table_printer.h"
#include "src/stream/async_prefetch_source.h"

namespace ausdb {
namespace {

constexpr size_t kDepths[] = {1, 2, 64};

std::string Figure1Csv() {
  std::ostringstream csv;
  csv << "road_id,delay\n";
  Rng rng(819);
  for (int i = 0; i < 3; ++i) {
    csv << "19," << 40.0 + 40.0 * rng.NextDouble() << "\n";
  }
  for (int i = 0; i < 50; ++i) {
    csv << "20," << 40.0 + 40.0 * rng.NextDouble() << "\n";
  }
  return csv.str();
}

std::string SerializeRows(const engine::Schema& schema,
                          const std::vector<engine::Tuple>& rows) {
  std::ostringstream out;
  for (const auto& t : rows) {
    out << serde::ToJson(t, schema) << "\n";
    out << "seq=" << t.sequence() << "\n";
  }
  serde::PrintTable(out, schema, rows);
  return out.str();
}

enum class Drive { kScalar, kBatch };

// Runs `sql` over `scan`, pulling either tuple-at-a-time or through
// NextBatch, and serializes every result surface into one byte string for
// exact comparison.
std::string RunQueryBytes(const std::string& sql, engine::OperatorPtr scan,
                          Drive drive) {
  auto plan = query::PlanQuery(sql, std::move(scan));
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return "<plan error>";
  std::vector<engine::Tuple> rows;
  const Status ran =
      engine::Run(**plan, {.batched = drive != Drive::kScalar}, &rows)
          .status();
  EXPECT_TRUE(ran.ok()) << sql << ": " << ran.ToString();
  if (!ran.ok()) return "<exec error>";
  return SerializeRows((*plan)->schema(), rows);
}

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = io::ParseCsv(Figure1Csv());
    ASSERT_TRUE(table.ok());
    io::ObservationLoadOptions opts;
    opts.key_column = "road_id";
    opts.value_column = "delay";
    opts.learn_as = io::LearnAs::kEmpirical;
    auto loaded = io::LoadObservations(*table, opts);
    ASSERT_TRUE(loaded.ok());
    data_ = std::move(*loaded);
  }

  engine::OperatorPtr SyncScan() const {
    return std::make_unique<engine::VectorScan>(data_.schema,
                                                data_.tuples);
  }

  engine::OperatorPtr AsyncScan(size_t depth) const {
    stream::AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    return stream::MakeAsyncPrefetch(SyncScan(), opts);
  }

  // The harness: one scalar golden run, then the batched run compared
  // byte-exactly against it, at prefetch depths {1, 2, 64}, and with an
  // instrumented plan.
  void ExpectBatchEquivalent(const std::string& sql) {
    const std::string golden =
        RunQueryBytes(sql, SyncScan(), Drive::kScalar);
    ASSERT_NE(golden.find("row(s)"), std::string::npos) << sql;

    ASSERT_EQ(RunQueryBytes(sql, SyncScan(), Drive::kBatch), golden)
        << sql << " batched";
    for (size_t depth : kDepths) {
      ASSERT_EQ(RunQueryBytes(sql, AsyncScan(depth), Drive::kBatch),
                golden)
          << sql << " batched at queue depth " << depth;
    }
    obs::MetricRegistry registry;
    engine::PipelineProfile profile(&registry);
    ASSERT_EQ(RunQueryBytes(sql,
                            engine::Profile(SyncScan(), "source", &profile,
                                            obs::SteadyClock::Instance()),
                            Drive::kBatch),
              golden)
        << sql << " batched with metrics";
  }

  io::LoadedObservations data_;
};

TEST_F(BatchEquivalenceTest, ThresholdQuery) {
  ExpectBatchEquivalent(
      "SELECT road_id FROM t WHERE delay > 50 PROB 0.5");
}

TEST_F(BatchEquivalenceTest, SignificancePredicateQuery) {
  ExpectBatchEquivalent(
      "SELECT road_id FROM t WHERE PTEST(delay > 50, 0.5, 0.05)");
}

TEST_F(BatchEquivalenceTest, AnalyticalAccuracyQuery) {
  ExpectBatchEquivalent(
      "SELECT * FROM t WITH ACCURACY ANALYTICAL CONFIDENCE 0.9");
}

TEST_F(BatchEquivalenceTest, BootstrapAccuracyQuery) {
  // Each bootstrapped field draws from its own keyed stream: batched
  // pulls must deliver the intervals the scalar path delivers.
  ExpectBatchEquivalent(
      "SELECT * FROM t WHERE delay > 50 "
      "WITH ACCURACY BOOTSTRAP CONFIDENCE 0.9");
}

TEST_F(BatchEquivalenceTest, ProbProjectionWithSort) {
  ExpectBatchEquivalent(
      "SELECT road_id, PROB(delay > 50) AS p FROM t ORDER BY p DESC");
}

TEST_F(BatchEquivalenceTest, LimitQuery) {
  ExpectBatchEquivalent("SELECT road_id FROM t LIMIT 7");
}

// Sliding-window aggregate over a deterministic double column: the
// emitted aggregates of the batched path must match the scalar path byte
// for byte.
TEST(BatchWindowEquivalenceTest, SlidingWindowOverDoubleColumn) {
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"v", engine::FieldType::kDouble}).ok());
  std::vector<engine::Tuple> tuples;
  Rng rng(4242);
  for (int i = 0; i < 3000; ++i) {
    engine::Tuple t(
        {expr::Value(100.0 * rng.NextDouble() - 50.0)});
    t.set_sequence(static_cast<uint64_t>(i));
    tuples.push_back(std::move(t));
  }

  for (const engine::WindowKind kind :
       {engine::WindowKind::kSliding, engine::WindowKind::kTumbling}) {
    engine::WindowAggregateOptions wopts;
    wopts.window_size = 64;
    wopts.kind = kind;

    auto make_plan = [&] {
      auto scan =
          std::make_unique<engine::VectorScan>(schema, tuples);
      auto agg = engine::WindowAggregate::Make(std::move(scan), "v",
                                               "avg_v", wopts);
      EXPECT_TRUE(agg.ok());
      return std::move(*agg);
    };

    auto scalar_plan = make_plan();
    auto scalar = engine::Collect(*scalar_plan);
    ASSERT_TRUE(scalar.ok());
    const std::string golden =
        SerializeRows(scalar_plan->schema(), *scalar);

    auto batch_plan = make_plan();
    std::vector<engine::Tuple> batched;
    ASSERT_TRUE(
        engine::Run(*batch_plan, {.batched = true}, &batched).ok());
    ASSERT_EQ(SerializeRows(batch_plan->schema(), batched), golden);
    ASSERT_EQ(batch_plan->input_consumed(),
              scalar_plan->input_consumed());
  }
}

TEST(BatchContractTest, ZeroBatchSizeIsInvalid) {
  engine::Schema schema;
  ASSERT_TRUE(schema.AddField({"v", engine::FieldType::kDouble}).ok());
  engine::VectorScan scan(schema, {});
  engine::TupleBatch batch;
  EXPECT_EQ(scan.NextBatch(0, batch).code(),
            StatusCode::kInvalidArgument);
  engine::Limit limit(
      std::make_unique<engine::VectorScan>(schema,
                                           std::vector<engine::Tuple>{}),
      3);
  EXPECT_EQ(limit.NextBatch(0, batch).code(),
            StatusCode::kInvalidArgument);
}

TEST(BatchContractTest, DeterministicBatchSizeIsPureAndClamped) {
  engine::Schema narrow;
  ASSERT_TRUE(narrow.AddField({"a", engine::FieldType::kDouble}).ok());
  engine::VectorScan narrow_scan(narrow, {});
  // 4096 / 1 clamps to the max.
  EXPECT_EQ(engine::DeterministicBatchSize(narrow_scan),
            engine::kMaxBatchRows);
  EXPECT_EQ(engine::DeterministicBatchSize(narrow_scan),
            engine::DeterministicBatchSize(narrow_scan));

  engine::Schema wide;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wide.AddField({std::string("f").append(std::to_string(i)),
                               engine::FieldType::kDouble})
                    .ok());
  }
  engine::VectorScan wide_scan(wide, {});
  // 4096 / 100 = 40 clamps up to the min.
  EXPECT_EQ(engine::DeterministicBatchSize(wide_scan),
            engine::kMinBatchRows);
}

}  // namespace
}  // namespace ausdb
