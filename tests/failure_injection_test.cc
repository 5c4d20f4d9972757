// Failure-injection tests: errors raised mid-stream must propagate
// cleanly (as Status, never crashes or silent truncation) through every
// operator layer.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/filter.h"
#include "src/engine/limit.h"
#include "src/engine/project.h"
#include "src/engine/scan.h"
#include "src/engine/sort.h"
#include "src/engine/time_window_aggregate.h"
#include "src/engine/window_aggregate.h"

namespace ausdb {
namespace engine {
namespace {

using dist::RandomVar;

Schema XSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

Tuple XTuple(double mean) {
  return Tuple({expr::Value(RandomVar(
      std::make_shared<dist::GaussianDist>(mean, 1.0), 10))});
}

// A source that produces `good` tuples and then fails.
OperatorPtr FailingSource(size_t good) {
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<StreamScan>(
      XSchema(),
      [produced, good]() -> Result<std::optional<Tuple>> {
        if (*produced >= good) {
          return Status::Internal("sensor link dropped");
        }
        ++*produced;
        return std::optional<Tuple>(XTuple(5.0));
      });
}

TEST(FailureInjectionTest, ScanFailurePropagatesThroughFilter) {
  Filter filter(FailingSource(3),
                expr::Gt(expr::Col("x"), expr::Lit(0.0)));
  auto out = Collect(filter);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInternal());
  EXPECT_NE(out.status().message().find("sensor link dropped"),
            std::string::npos);
}

TEST(FailureInjectionTest, ScanFailurePropagatesThroughProject) {
  std::vector<ProjectionItem> items;
  items.push_back({"y", expr::Mul(expr::Col("x"), expr::Lit(2.0))});
  auto project = Project::Make(FailingSource(2), std::move(items));
  ASSERT_TRUE(project.ok());
  EXPECT_TRUE(Collect(**project).status().IsInternal());
}

TEST(FailureInjectionTest, ScanFailurePropagatesThroughWindowAndSort) {
  auto agg = WindowAggregate::Make(FailingSource(5), "x", "avg",
                                   {.window_size = 2});
  ASSERT_TRUE(agg.ok());
  auto sort = Sort::Make(std::move(*agg), "avg");
  ASSERT_TRUE(sort.ok());
  EXPECT_TRUE(Collect(**sort).status().IsInternal());
}

TEST(FailureInjectionTest, LimitShortCircuitsBeforeFailure) {
  // The failure lies beyond the limit: Limit must stop pulling first.
  Limit limit(FailingSource(3), 3);
  auto out = Collect(limit);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->size(), 3u);
}

TEST(FailureInjectionTest, EvaluationErrorSurfacesFromProject) {
  // Division by a zero literal is an evaluation-time error.
  Schema s;
  ASSERT_TRUE(s.AddField({"d", FieldType::kDouble}).ok());
  std::vector<Tuple> tuples = {Tuple({expr::Value(1.0)})};
  auto scan = std::make_unique<VectorScan>(s, tuples);
  std::vector<ProjectionItem> items;
  items.push_back({"bad", expr::Div(expr::Col("d"), expr::Lit(0.0))});
  auto project = Project::Make(std::move(scan), std::move(items));
  ASSERT_TRUE(project.ok());
  EXPECT_TRUE(Collect(**project).status().IsInvalidArgument());
}

TEST(FailureInjectionTest, TypeErrorSurfacesFromFilter) {
  Schema s;
  ASSERT_TRUE(s.AddField({"name", FieldType::kString}).ok());
  std::vector<Tuple> tuples = {
      Tuple({expr::Value(std::string("a"))})};
  auto scan = std::make_unique<VectorScan>(s, tuples);
  // Arithmetic over a string column.
  Filter filter(std::move(scan),
                expr::Gt(expr::Add(expr::Col("name"), expr::Lit(1.0)),
                         expr::Lit(0.0)));
  EXPECT_FALSE(Collect(filter).ok());
}

TEST(FailureInjectionTest, MissingColumnSurfacesFromFilter) {
  std::vector<Tuple> tuples = {XTuple(1.0)};
  auto scan = std::make_unique<VectorScan>(XSchema(), tuples);
  Filter filter(std::move(scan),
                expr::Gt(expr::Col("missing"), expr::Lit(0.0)));
  EXPECT_TRUE(Collect(filter).status().IsNotFound());
}

TEST(FailureInjectionTest, AnnotatorRejectsTinySamples) {
  // A random variable with n = 1 cannot get analytical accuracy.
  Schema s = XSchema();
  std::vector<Tuple> tuples = {Tuple({expr::Value(RandomVar(
      std::make_shared<dist::GaussianDist>(1.0, 1.0), 1))})};
  auto scan = std::make_unique<VectorScan>(s, tuples);
  AccuracyAnnotator annotator(std::move(scan));
  EXPECT_TRUE(Collect(annotator).status().IsInsufficientData());
}

// A (key, x) source producing `good` tuples round-robin over `keys`
// keys, then failing.
OperatorPtr FailingKeyedSource(size_t good, size_t keys) {
  Schema s;
  EXPECT_TRUE(s.AddField({"key", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  auto produced = std::make_shared<size_t>(0);
  return std::make_unique<StreamScan>(
      s, [produced, good, keys]() -> Result<std::optional<Tuple>> {
        if (*produced >= good) {
          return Status::Internal("gateway feed dropped");
        }
        const size_t i = (*produced)++;
        return std::optional<Tuple>(Tuple({
            expr::Value(std::string("k").append(std::to_string(i % keys))),
            expr::Value(RandomVar(
                std::make_shared<dist::GaussianDist>(1.0, 1.0), 10)),
        }));
      });
}

TEST(FailureInjectionTest, ScanFailurePropagatesThroughPartitionedWindow) {
  auto agg = WindowAggregate::Make(FailingKeyedSource(10, 2), "x", "avg",
                                   {.window_size = 3}, "key");
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInternal());
  EXPECT_NE(out.status().message().find("gateway feed dropped"),
            std::string::npos);
}

TEST(FailureInjectionTest, ScanFailurePropagatesThroughTimeWindow) {
  Schema s;
  ASSERT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  ASSERT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  auto produced = std::make_shared<size_t>(0);
  auto source = std::make_unique<StreamScan>(
      s, [produced]() -> Result<std::optional<Tuple>> {
        if (*produced >= 4) {
          return Status::Internal("clock source lost");
        }
        const double ts = static_cast<double>((*produced)++);
        return std::optional<Tuple>(Tuple({
            expr::Value(ts),
            expr::Value(RandomVar(
                std::make_shared<dist::GaussianDist>(2.0, 1.0), 10)),
        }));
      });
  auto agg = TimeWindowAggregate::Make(std::move(source), "ts", "x",
                                       "avg", {.duration = 2.0});
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInternal());
  EXPECT_NE(out.status().message().find("clock source lost"),
            std::string::npos);
}

TEST(FailureInjectionTest, ClosedWindowsEmitThenFailureStopsCleanly) {
  // Tumbling windows of 2 over 5 good tuples: two windows close (and
  // must be retrievable), but the third is open when the source dies —
  // the failure must surface rather than the partial window being
  // silently emitted as complete.
  auto agg = WindowAggregate::Make(
      FailingSource(5), "x", "avg",
      {.window_size = 2, .kind = WindowKind::kTumbling});
  ASSERT_TRUE(agg.ok());

  auto first = (*agg)->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  auto second = (*agg)->Next();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());

  // The fifth tuple opens a third window; the source then fails before
  // it can close. No tuple may be emitted for it.
  auto third = (*agg)->Next();
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsInternal());

  // Collecting from scratch over the same shape sees exactly the two
  // closed windows before the error.
  auto whole = WindowAggregate::Make(
      FailingSource(5), "x", "avg",
      {.window_size = 2, .kind = WindowKind::kTumbling});
  ASSERT_TRUE(whole.ok());
  auto limited = engine::Run(**whole, {.limit = 2});
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(*limited, 2u);
  EXPECT_FALSE(Collect(**whole).ok());
}

TEST(FailureInjectionTest, ResetRestoresAfterPartialConsumption) {
  std::vector<Tuple> tuples = {XTuple(1.0), XTuple(2.0), XTuple(3.0)};
  auto scan = std::make_unique<VectorScan>(XSchema(), tuples);
  Filter filter(std::move(scan),
                expr::Gt(expr::Col("x"), expr::Lit(-100.0)));
  auto first = filter.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  ASSERT_TRUE(filter.Reset().ok());
  auto all = Collect(filter);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
