#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/dist/learner.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/filter.h"
#include "src/engine/project.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/stats/random_variates.h"
#include "src/stream/sources.h"

namespace ausdb {
namespace engine {
namespace {

using dist::RandomVar;

Schema RoadSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"road_id", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"delay", FieldType::kUncertain}).ok());
  return s;
}

Tuple RoadTuple(const std::string& id, double mean, double var, size_t n) {
  return Tuple({expr::Value(id),
                expr::Value(RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, var), n))});
}

TEST(SchemaTest, Basics) {
  Schema s = RoadSchema();
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_TRUE(s.Contains("delay"));
  EXPECT_FALSE(s.Contains("speed"));
  EXPECT_EQ(*s.IndexOf("delay"), 1u);
  EXPECT_TRUE(s.IndexOf("nope").status().IsNotFound());
  EXPECT_TRUE(s.AddField({"delay", FieldType::kDouble})
                  .IsAlreadyExists());
  EXPECT_EQ(s.ToString(), "(road_id:string, delay:uncertain)");
}

TEST(TupleTest, MembershipDefaults) {
  Tuple t = RoadTuple("r1", 50.0, 10.0, 20);
  EXPECT_DOUBLE_EQ(t.membership_prob(), 1.0);
  EXPECT_EQ(t.membership_df_n(), RandomVar::kCertainSampleSize);
  EXPECT_FALSE(t.membership_ci().has_value());
}

TEST(VectorScanTest, ScanAndReset) {
  std::vector<Tuple> tuples = {RoadTuple("a", 1, 1, 5),
                               RoadTuple("b", 2, 1, 5)};
  VectorScan scan(RoadSchema(), tuples);
  auto all = Collect(scan);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].sequence(), 0u);
  EXPECT_EQ((*all)[1].sequence(), 1u);
  ASSERT_TRUE(scan.Reset().ok());
  EXPECT_EQ(Collect(scan)->size(), 2u);
}

TEST(FilterTest, PossibleWorldSemantics) {
  // Two roads; predicate "delay > 50 with some probability".
  std::vector<Tuple> tuples = {
      RoadTuple("fast", 40.0, 25.0, 50),  // Pr[delay>50] = Phi(-2) = .0228
      RoadTuple("slow", 60.0, 25.0, 30),  // Pr[delay>50] = Phi(2) = .977
  };
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  Filter filter(std::move(scan),
                expr::Gt(expr::Col("delay"), expr::Lit(50.0)));
  auto out = Collect(filter);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);  // both have positive probability
  EXPECT_NEAR((*out)[0].membership_prob(), 0.0228, 1e-3);
  EXPECT_EQ((*out)[0].membership_df_n(), 50u);
  EXPECT_NEAR((*out)[1].membership_prob(), 0.977, 1e-3);
  EXPECT_EQ((*out)[1].membership_df_n(), 30u);
}

TEST(FilterTest, ProbThresholdIsBoolean) {
  std::vector<Tuple> tuples = {RoadTuple("fast", 40.0, 25.0, 50),
                               RoadTuple("slow", 60.0, 25.0, 30)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  Filter filter(std::move(scan),
                expr::ProbThreshold(
                    expr::Gt(expr::Col("delay"), expr::Lit(50.0)), 2.0 / 3));
  auto out = Collect(filter);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  // Threshold decision is boolean: membership probability unchanged.
  EXPECT_DOUBLE_EQ((*out)[0].membership_prob(), 1.0);
  // But d.f. provenance is retained for Theorem 1.
  EXPECT_EQ((*out)[0].membership_df_n(), 30u);
}

TEST(FilterTest, SignificanceFilterOutcomes) {
  std::vector<Tuple> tuples = {
      RoadTuple("clearly_above", 70.0, 4.0, 40),
      RoadTuple("clearly_below", 30.0, 4.0, 40),
      RoadTuple("borderline", 50.2, 100.0, 10),
  };
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  FilterOptions opts;
  opts.keep_unsure = true;
  Filter filter(std::move(scan),
                expr::MTest(expr::Col("delay"),
                            hypothesis::TestOp::kGreater, 50.0, 0.05, 0.05),
                opts);
  auto out = Collect(filter);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 2u);  // TRUE + kept UNSURE
  EXPECT_EQ(*(*out)[0].significance(), hypothesis::TestOutcome::kTrue);
  EXPECT_EQ(*(*out)[1].significance(), hypothesis::TestOutcome::kUnsure);
  EXPECT_EQ(filter.unsure_count(), 1u);
}

TEST(FilterTest, DropUnsureByDefault) {
  std::vector<Tuple> tuples = {RoadTuple("borderline", 50.2, 100.0, 10)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  Filter filter(std::move(scan),
                expr::MTest(expr::Col("delay"),
                            hypothesis::TestOp::kGreater, 50.0, 0.05,
                            0.05));
  auto out = Collect(filter);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(filter.unsure_count(), 1u);
}

TEST(ProjectTest, TypeInferenceAndEvaluation) {
  std::vector<Tuple> tuples = {RoadTuple("a", 10.0, 4.0, 20)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  std::vector<ProjectionItem> items;
  items.push_back({"id", expr::Col("road_id")});
  items.push_back({"double_delay",
                   expr::Mul(expr::Col("delay"), expr::Lit(2.0))});
  items.push_back(
      {"p", expr::ProbOf(expr::Gt(expr::Col("delay"), expr::Lit(10.0)))});
  auto project = Project::Make(std::move(scan), std::move(items));
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  EXPECT_EQ((*project)->schema().field(0).type, FieldType::kString);
  EXPECT_EQ((*project)->schema().field(1).type, FieldType::kUncertain);
  EXPECT_EQ((*project)->schema().field(2).type, FieldType::kDouble);

  auto out = Collect(**project);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  const Tuple& t = (*out)[0];
  EXPECT_EQ(*t.value(0).string_value(), "a");
  const RandomVar rv = *t.value(1).random_var();
  EXPECT_DOUBLE_EQ(rv.Mean(), 20.0);
  EXPECT_DOUBLE_EQ(rv.Variance(), 16.0);
  EXPECT_NEAR(*t.value(2).double_value(), 0.5, 1e-12);
}

TEST(ProjectTest, RejectsEmptyAndBadItems) {
  auto scan = std::make_unique<VectorScan>(RoadSchema(),
                                           std::vector<Tuple>{});
  EXPECT_TRUE(Project::Make(std::move(scan), {})
                  .status()
                  .IsInvalidArgument());
  auto scan2 = std::make_unique<VectorScan>(RoadSchema(),
                                            std::vector<Tuple>{});
  std::vector<ProjectionItem> items;
  items.push_back({"bad", expr::Col("not_a_column")});
  EXPECT_TRUE(
      Project::Make(std::move(scan2), std::move(items)).status().IsNotFound());
}

// The governor's rung stamp travels with the tuple, so a projection must
// keep it: the annotator downstream picks its precision from it.
TEST(ProjectTest, KeepsPrecisionRung) {
  std::vector<Tuple> tuples;
  for (uint32_t rung : {2u, 0u, 4u}) {
    tuples.push_back(RoadTuple("a", 10.0, 4.0, 20));
    tuples.back().set_precision_rung(rung);
  }
  for (bool batched : {false, true}) {
    std::vector<ProjectionItem> items;
    items.push_back({"delay", expr::Col("delay")});
    auto project = Project::Make(
        std::make_unique<VectorScan>(RoadSchema(), tuples), std::move(items));
    ASSERT_TRUE(project.ok()) << project.status().ToString();
    std::vector<Tuple> out;
    ASSERT_TRUE(engine::Run(**project, {.batched = batched}, &out).ok());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].precision_rung(), 2u) << "batched " << batched;
    EXPECT_EQ(out[1].precision_rung(), 0u) << "batched " << batched;
    EXPECT_EQ(out[2].precision_rung(), 4u) << "batched " << batched;
  }
}

TEST(WindowAggregateTest, ClosedFormAvg) {
  // Three Gaussians, window 2: AVG over the last two.
  std::vector<Tuple> tuples = {RoadTuple("a", 10.0, 4.0, 20),
                               RoadTuple("b", 20.0, 8.0, 30),
                               RoadTuple("c", 30.0, 12.0, 10)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  auto agg = WindowAggregate::Make(std::move(scan), "delay", "avg_delay",
                                   {.window_size = 2});
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // first output when window fills

  const RandomVar first = *(*out)[0].value(0).random_var();
  EXPECT_DOUBLE_EQ(first.Mean(), 15.0);
  EXPECT_DOUBLE_EQ(first.Variance(), 3.0);  // (4+8)/4
  EXPECT_EQ(first.sample_size(), 20u);      // min(20, 30)

  const RandomVar second = *(*out)[1].value(0).random_var();
  EXPECT_DOUBLE_EQ(second.Mean(), 25.0);
  EXPECT_DOUBLE_EQ(second.Variance(), 5.0);  // (8+12)/4
  EXPECT_EQ(second.sample_size(), 10u);      // min(30, 10)
}

TEST(WindowAggregateTest, MinSampleSizeTracking) {
  // Sliding min over the window must recover after the small-n tuple
  // leaves the window.
  std::vector<Tuple> tuples = {
      RoadTuple("a", 1.0, 1.0, 100), RoadTuple("b", 1.0, 1.0, 3),
      RoadTuple("c", 1.0, 1.0, 50), RoadTuple("d", 1.0, 1.0, 60)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  auto agg = WindowAggregate::Make(std::move(scan), "delay", "avg",
                                   {.window_size = 2});
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].value(0).random_var()->sample_size(), 3u);   // a,b
  EXPECT_EQ((*out)[1].value(0).random_var()->sample_size(), 3u);   // b,c
  EXPECT_EQ((*out)[2].value(0).random_var()->sample_size(), 50u);  // c,d
}

TEST(WindowAggregateTest, RejectsNonGaussianUncertain) {
  Schema schema;
  ASSERT_TRUE(schema.AddField({"x", FieldType::kUncertain}).ok());
  auto learned = dist::LearnHistogram(std::vector<double>{1, 2, 3, 4, 5},
                                      {});
  ASSERT_TRUE(learned.ok());
  std::vector<Tuple> tuples = {
      Tuple({expr::Value(RandomVar(*learned))})};
  auto scan = std::make_unique<VectorScan>(schema, tuples);
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg",
                                   {.window_size = 1});
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE((*agg)->Next().status().IsNotImplemented());
}

TEST(AccuracyAnnotatorTest, AnalyticalAnnotations) {
  std::vector<Tuple> tuples = {RoadTuple("a", 10.0, 4.0, 20)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  auto filter = std::make_unique<Filter>(
      std::move(scan), expr::Gt(expr::Col("delay"), expr::Lit(9.0)));
  AccuracyAnnotatorOptions annotate_opts;
  annotate_opts.confidence = 0.9;
  AccuracyAnnotator annotator(std::move(filter), annotate_opts);
  auto out = Collect(annotator);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  const Tuple& t = (*out)[0];
  ASSERT_GE(t.accuracy().size(), 2u);
  ASSERT_TRUE(t.accuracy()[1].has_value());
  EXPECT_TRUE(t.accuracy()[1]->mean_ci->Contains(10.0));
  // Tuple probability interval (Theorem 1): Pr[delay>9] = Phi(.5) = .69,
  // n = 20.
  ASSERT_TRUE(t.membership_ci().has_value());
  EXPECT_TRUE(t.membership_ci()->Contains(t.membership_prob()));
  EXPECT_GT(t.membership_ci()->Length(), 0.0);
}

TEST(AccuracyAnnotatorTest, BootstrapAnnotations) {
  std::vector<Tuple> tuples = {RoadTuple("a", 10.0, 4.0, 20)};
  auto scan = std::make_unique<VectorScan>(RoadSchema(), tuples);
  AccuracyAnnotatorOptions opts;
  opts.method = accuracy::AccuracyMethod::kBootstrap;
  opts.confidence = 0.9;
  opts.bootstrap_resamples = 30;
  AccuracyAnnotator annotator(std::move(scan), opts);
  auto out = Collect(annotator);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const Tuple& t = (*out)[0];
  ASSERT_TRUE(t.accuracy()[1].has_value());
  EXPECT_EQ(t.accuracy()[1]->method, accuracy::AccuracyMethod::kBootstrap);
  EXPECT_TRUE(t.accuracy()[1]->mean_ci.has_value());
}

TEST(StreamSourceTest, LearnedGaussianSource) {
  auto source =
      stream::MakeLearnedGaussianSource("x", 50, 20, 5.0, 2.0, 42);
  auto out = Collect(*source);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 50u);
  for (const Tuple& t : *out) {
    const RandomVar rv = *t.value(0).random_var();
    EXPECT_EQ(rv.sample_size(), 20u);
    EXPECT_NEAR(rv.Mean(), 5.0, 3.0);
  }
}

TEST(ExecutorTest, DrainAndCollectLimit) {
  auto source =
      stream::MakeLearnedGaussianSource("x", 30, 10, 0.0, 1.0, 7);
  std::vector<Tuple> limited;
  auto pulled = engine::Run(*source, {.limit = 10}, &limited);
  ASSERT_TRUE(pulled.ok());
  EXPECT_EQ(*pulled, 10u);
  EXPECT_EQ(limited.size(), 10u);
  auto remaining = engine::Run(*source);
  ASSERT_TRUE(remaining.ok());
  EXPECT_EQ(*remaining, 20u);
}

// A leaf of `rows` one-field tuples that records every NextBatch size it
// is asked for, and fails once `fail_after` rows are out.
class RecordingLeaf final : public Operator {
 public:
  RecordingLeaf(size_t rows, size_t fail_after)
      : rows_(rows), fail_after_(fail_after) {
    EXPECT_TRUE(schema_.AddField({"x", FieldType::kDouble}).ok());
  }

  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override {
    if (emitted_ >= fail_after_) return Status::Unavailable("leaf failed");
    if (emitted_ == rows_) return std::optional<Tuple>();
    ++emitted_;
    return std::optional<Tuple>(Tuple({expr::Value(1.0)}));
  }
  Status NextBatch(size_t max_n, TupleBatch& out) override {
    asked_.push_back(max_n);
    return Operator::NextBatch(max_n, out);
  }

  size_t emitted() const { return emitted_; }
  const std::vector<size_t>& asked() const { return asked_; }

 private:
  Schema schema_;
  size_t rows_;
  size_t fail_after_;
  size_t emitted_ = 0;
  std::vector<size_t> asked_;
};

TEST(ExecutorTest, BatchedLimitNeverAsksForMoreThanRemains) {
  RecordingLeaf leaf(5000, SIZE_MAX);
  const size_t batch = DeterministicBatchSize(leaf);
  ASSERT_EQ(batch, kMaxBatchRows);
  auto pulled = engine::Run(leaf, {.batched = true, .limit = batch + 100});
  ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
  EXPECT_EQ(*pulled, batch + 100);
  EXPECT_EQ(leaf.emitted(), batch + 100);
  EXPECT_EQ(leaf.asked(), (std::vector<size_t>{batch, 100}));

  RecordingLeaf small(5000, SIZE_MAX);
  std::vector<Tuple> rows;
  ASSERT_TRUE(engine::Run(small, {.batched = true, .limit = 7}, &rows).ok());
  EXPECT_EQ(rows.size(), 7u);
  EXPECT_EQ(small.asked(), (std::vector<size_t>{7}));

  RecordingLeaf none(5000, SIZE_MAX);
  auto zero = engine::Run(none, {.batched = true, .limit = 0});
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0u);
  EXPECT_TRUE(none.asked().empty());
}

// A failed batched run returns the leaf's error; the batches delivered
// before it stay in `rows`.
TEST(ExecutorTest, BatchedRunKeepsBatchesBeforeAFailure) {
  RecordingLeaf leaf(5000, /*fail_after=*/1500);
  std::vector<Tuple> rows;
  auto failed = engine::Run(leaf, {.batched = true}, &rows);
  EXPECT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  EXPECT_EQ(rows.size(), kMaxBatchRows);
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
