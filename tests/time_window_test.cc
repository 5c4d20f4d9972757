#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/dist/learner.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/engine/time_window_aggregate.h"

namespace ausdb {
namespace engine {
namespace {

using dist::RandomVar;

Schema TsSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

Tuple TsTuple(double ts, double mean, size_t n = 10) {
  return Tuple({expr::Value(ts),
                expr::Value(RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, 1.0), n))});
}

TEST(TimeWindowTest, EvictsByDuration) {
  // Duration 10: at ts=25 only ts in (15, 25] remains.
  std::vector<Tuple> tuples = {TsTuple(0, 10), TsTuple(9, 20),
                               TsTuple(15, 30), TsTuple(25, 40)};
  auto scan = std::make_unique<VectorScan>(TsSchema(), tuples);
  TimeWindowOptions opts;
  opts.duration = 10.0;
  auto agg =
      TimeWindowAggregate::Make(std::move(scan), "ts", "x", "avg", opts);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  // ts=0: {10} -> 10; ts=9: {10,20} -> 15; ts=15: {20(ts9),30} -> 25
  // (ts=0 evicted at cutoff 5); ts=25: {40} (cutoff 15 evicts ts<=15).
  EXPECT_DOUBLE_EQ((*out)[0].value(0).random_var()->Mean(), 10.0);
  EXPECT_DOUBLE_EQ((*out)[1].value(0).random_var()->Mean(), 15.0);
  EXPECT_DOUBLE_EQ((*out)[2].value(0).random_var()->Mean(), 25.0);
  EXPECT_DOUBLE_EQ((*out)[3].value(0).random_var()->Mean(), 40.0);
}

TEST(TimeWindowTest, DfSampleSizeTracksWindowMin) {
  std::vector<Tuple> tuples = {TsTuple(0, 1, 100), TsTuple(1, 1, 3),
                               TsTuple(20, 1, 50)};
  auto scan = std::make_unique<VectorScan>(TsSchema(), tuples);
  TimeWindowOptions opts;
  opts.duration = 5.0;
  auto agg =
      TimeWindowAggregate::Make(std::move(scan), "ts", "x", "avg", opts);
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[1].value(0).random_var()->sample_size(), 3u);
  // At ts=20 both earlier entries are evicted.
  EXPECT_EQ((*out)[2].value(0).random_var()->sample_size(), 50u);
}

TEST(TimeWindowTest, OrderedEnforcementAndOptOut) {
  std::vector<Tuple> tuples = {TsTuple(5, 1), TsTuple(3, 2)};
  auto scan = std::make_unique<VectorScan>(TsSchema(), tuples);
  auto agg = TimeWindowAggregate::Make(std::move(scan), "ts", "x", "avg",
                                       {});
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(Collect(**agg).status().IsInvalidArgument());

  auto scan2 = std::make_unique<VectorScan>(TsSchema(), tuples);
  TimeWindowOptions lax;
  lax.require_ordered = false;
  lax.duration = 10.0;
  auto agg2 = TimeWindowAggregate::Make(std::move(scan2), "ts", "x",
                                        "avg", lax);
  ASSERT_TRUE(agg2.ok());
  auto out = Collect(**agg2);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_DOUBLE_EQ((*out)[1].value(0).random_var()->Mean(), 1.5);
}

TEST(TimeWindowTest, BadOptionsAndColumns) {
  auto scan = std::make_unique<VectorScan>(TsSchema(),
                                           std::vector<Tuple>{});
  TimeWindowOptions zero;
  zero.duration = 0.0;
  EXPECT_TRUE(TimeWindowAggregate::Make(std::move(scan), "ts", "x", "o",
                                        zero)
                  .status()
                  .IsInvalidArgument());
  auto scan2 = std::make_unique<VectorScan>(TsSchema(),
                                            std::vector<Tuple>{});
  EXPECT_TRUE(TimeWindowAggregate::Make(std::move(scan2), "x", "x", "o",
                                        {})
                  .status()
                  .IsTypeError());  // uncertain timestamp
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
// Appended: RANGE-window AQL coverage.
#include "src/query/parser.h"
#include "src/query/planner.h"

namespace ausdb {
namespace engine {
namespace {

TEST(RangeWindowQueryTest, EndToEndSql) {
  std::vector<Tuple> tuples = {TsTuple(0, 10), TsTuple(5, 20),
                               TsTuple(11, 30)};
  auto scan = std::make_unique<VectorScan>(TsSchema(), tuples);
  auto plan = query::PlanQuery(
      "SELECT AVG(x) OVER (RANGE 10 ON ts) AS windowed FROM s "
      "WITH ACCURACY ANALYTICAL",
      std::move(scan));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->schema().names()[0], "windowed");
  auto out = Collect(**plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 3u);
  // At ts=11, cutoff is 1: only ts=5 and ts=11 remain.
  EXPECT_DOUBLE_EQ((*out)[2].value(0).random_var()->Mean(), 25.0);
  ASSERT_TRUE((*out)[2].accuracy()[0].has_value());
}

TEST(RangeWindowQueryTest, RendersAndReparses) {
  auto q = query::Parse(
      "SELECT SUM(x) OVER (RANGE 2.5 ON ts) FROM s LIMIT 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->window_agg->is_time_based());
  EXPECT_DOUBLE_EQ(q->window_agg->range_duration, 2.5);
  EXPECT_EQ(q->window_agg->range_column, "ts");
  auto q2 = query::Parse(q->ToString());
  ASSERT_TRUE(q2.ok()) << "rendered: " << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST(RangeWindowQueryTest, BadRangeRejected) {
  EXPECT_TRUE(query::Parse("SELECT AVG(x) OVER (RANGE 0 ON ts) FROM s")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(query::Parse("SELECT AVG(x) OVER (RANGE 5) FROM s")
                  .status()
                  .IsParseError());
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
