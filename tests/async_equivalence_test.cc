// Deterministic-equivalence harness for async prefetching: every
// end-to-end pipeline exercised by integration_test.cc is run once
// synchronously and once through AsyncPrefetchSource at queue depths
// {1, 2, 64}, and the serialized output bytes must be identical — the
// bit-identity contract that lets prefetching be enabled on any
// pipeline without re-validating its accuracy semantics.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/executor.h"
#include "src/engine/pipeline_profiler.h"
#include "src/engine/scan.h"
#include "src/io/observation_loader.h"
#include "src/obs/metrics.h"
#include "src/query/planner.h"
#include "src/serde/json_writer.h"
#include "src/serde/table_printer.h"
#include "src/stats/random_variates.h"
#include "src/stream/async_prefetch_source.h"
#include "src/workload/cartel.h"

namespace ausdb {
namespace {

constexpr size_t kDepths[] = {1, 2, 64};

// Same Figure 1 data as integration_test.cc: few observations for road
// 19, many for road 20.
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

// Runs `sql` over `scan` and serializes every result surface we ship —
// per-tuple JSON (values, accuracy annotations, probabilities) plus the
// rendered table — into one byte string for exact comparison.
std::string RunQueryBytes(const std::string& sql,
                          engine::OperatorPtr scan) {
  auto plan = query::PlanQuery(sql, std::move(scan));
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return "<plan error>";
  auto rows = engine::Collect(**plan);
  EXPECT_TRUE(rows.ok()) << sql << ": " << rows.status().ToString();
  if (!rows.ok()) return "<exec error>";
  std::ostringstream out;
  for (const auto& t : *rows) {
    out << serde::ToJson(t, (*plan)->schema()) << "\n";
    out << "seq=" << t.sequence() << "\n";
  }
  serde::PrintTable(out, (*plan)->schema(), *rows);
  return out.str();
}

class AsyncEquivalenceTest : public ::testing::Test {
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

  engine::OperatorPtr AsyncScan(size_t depth,
                                obs::MetricRegistry* registry = nullptr)
      const {
    stream::AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    opts.metrics = registry;
    return stream::MakeAsyncPrefetch(SyncScan(), opts);
  }

  // The equivalence harness: one synchronous golden run, then per queue
  // depth one plain prefetched run and one fully instrumented run (queue
  // metrics plus a registry-mirrored profile wrapper), bytes compared
  // exactly — prefetching AND observability are both invisible in the
  // output.
  void ExpectEquivalent(const std::string& sql) {
    const std::string golden = RunQueryBytes(sql, SyncScan());
    ASSERT_NE(golden.find("row(s)"), std::string::npos) << sql;
    for (size_t depth : kDepths) {
      const std::string bytes = RunQueryBytes(sql, AsyncScan(depth));
      ASSERT_EQ(bytes, golden) << sql << " at queue depth " << depth;

      obs::MetricRegistry registry;
      engine::PipelineProfile profile(&registry);
      const std::string instrumented = RunQueryBytes(
          sql, engine::Profile(AsyncScan(depth, &registry), "source",
                               &profile, obs::SteadyClock::Instance()));
      ASSERT_EQ(instrumented, golden)
          << sql << " at queue depth " << depth << " with metrics";
    }
  }

  io::LoadedObservations data_;
};

TEST_F(AsyncEquivalenceTest, ThresholdQuery) {
  ExpectEquivalent("SELECT road_id FROM t WHERE delay > 50 PROB 0.5");
}

TEST_F(AsyncEquivalenceTest, SignificancePredicateQuery) {
  ExpectEquivalent(
      "SELECT road_id FROM t WHERE PTEST(delay > 50, 0.5, 0.05)");
}

TEST_F(AsyncEquivalenceTest, BootstrapAccuracyQuery) {
  ExpectEquivalent(
      "SELECT * FROM t WHERE delay > 50 "
      "WITH ACCURACY BOOTSTRAP CONFIDENCE 0.9");
}

TEST_F(AsyncEquivalenceTest, ProbProjectionWithSort) {
  ExpectEquivalent(
      "SELECT road_id, PROB(delay > 50) AS p FROM t ORDER BY p DESC");
}

TEST(AsyncCartelEquivalenceTest, RouteComparisonPipeline) {
  // The cartel route-comparison pipeline of integration_test.cc:
  // simulator -> learned route delays -> AQL mTest. The simulation runs
  // ONCE; sync and async runs consume copies of the same tuples.
  workload::CartelOptions copts;
  copts.num_segments = 60;
  copts.observations_per_segment = 650;
  copts.route_length = 10;
  workload::CartelSimulator sim(copts);
  Rng rng(7);
  const auto pair = sim.MakeRoutePairWithRankGap(rng, 50);

  engine::Schema schema;
  ASSERT_TRUE(
      schema.AddField({"which", engine::FieldType::kString}).ok());
  ASSERT_TRUE(
      schema.AddField({"total", engine::FieldType::kUncertain}).ok());
  std::vector<engine::Tuple> tuples;
  for (const auto& [name, route] :
       {std::pair{"greater", &pair.greater}, {"lesser", &pair.lesser}}) {
    auto obs = sim.RouteDelayObservations(*route, 200, rng);
    ASSERT_TRUE(obs.ok());
    auto learned = dist::LearnGaussian(*obs);
    ASSERT_TRUE(learned.ok());
    tuples.emplace_back(std::vector<expr::Value>{
        expr::Value(std::string(name)),
        expr::Value(dist::RandomVar(*learned))});
  }

  const double threshold =
      sim.TrueRouteMean(pair.lesser) + pair.mean_gap / 2.0;
  std::ostringstream sql;
  sql << "SELECT which FROM r WHERE MTEST(total, '>', " << threshold
      << ", 0.05)";

  const std::string golden = RunQueryBytes(
      sql.str(), std::make_unique<engine::VectorScan>(schema, tuples));
  ASSERT_NE(golden.find("greater"), std::string::npos);
  for (size_t depth : kDepths) {
    stream::AsyncPrefetchOptions opts;
    opts.queue_depth = depth;
    const std::string bytes = RunQueryBytes(
        sql.str(),
        stream::MakeAsyncPrefetch(
            std::make_unique<engine::VectorScan>(schema, tuples), opts));
    ASSERT_EQ(bytes, golden) << "queue depth " << depth;
  }
}

}  // namespace
}  // namespace ausdb
