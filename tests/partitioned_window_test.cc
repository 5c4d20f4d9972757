#include "src/engine/window_aggregate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/query/parser.h"
#include "src/query/planner.h"

namespace ausdb {
namespace engine {
namespace {

using dist::RandomVar;

Schema KeyedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"road", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"delay", FieldType::kUncertain}).ok());
  return s;
}

Tuple KeyedTuple(const std::string& key, double mean, double var,
                 size_t n) {
  return Tuple({expr::Value(key),
                expr::Value(RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, var), n))});
}

TEST(PartitionedWindowTest, PerKeyWindows) {
  // Interleaved keys; window size 2 per key.
  std::vector<Tuple> tuples = {
      KeyedTuple("a", 10, 1, 20), KeyedTuple("b", 100, 4, 30),
      KeyedTuple("a", 20, 1, 10), KeyedTuple("b", 200, 4, 40),
      KeyedTuple("a", 30, 1, 50),
  };
  auto scan = std::make_unique<VectorScan>(KeyedSchema(), tuples);
  auto agg = WindowAggregate::Make(std::move(scan), "delay", "avg_delay",
                                   {.window_size = 2}, "road");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  // Emissions: a@20 (10,20), b@200 (100,200), a@30 (20,30).
  ASSERT_EQ(out->size(), 3u);

  EXPECT_EQ(*(*out)[0].value(0).string_value(), "a");
  EXPECT_DOUBLE_EQ((*out)[0].value(1).random_var()->Mean(), 15.0);
  EXPECT_EQ((*out)[0].value(1).random_var()->sample_size(), 10u);

  EXPECT_EQ(*(*out)[1].value(0).string_value(), "b");
  EXPECT_DOUBLE_EQ((*out)[1].value(1).random_var()->Mean(), 150.0);
  EXPECT_EQ((*out)[1].value(1).random_var()->sample_size(), 30u);

  EXPECT_EQ(*(*out)[2].value(0).string_value(), "a");
  EXPECT_DOUBLE_EQ((*out)[2].value(1).random_var()->Mean(), 25.0);
  EXPECT_EQ((*out)[2].value(1).random_var()->sample_size(), 10u);

  EXPECT_EQ((*agg)->partition_count(), 2u);
}

TEST(PartitionedWindowTest, TumblingResetsPerKey) {
  std::vector<Tuple> tuples = {
      KeyedTuple("a", 10, 0, 5), KeyedTuple("a", 20, 0, 5),
      KeyedTuple("a", 30, 0, 5), KeyedTuple("a", 40, 0, 5),
  };
  auto scan = std::make_unique<VectorScan>(KeyedSchema(), tuples);
  WindowAggregateOptions opts;
  opts.window_size = 2;
  opts.kind = WindowKind::kTumbling;
  auto agg =
      WindowAggregate::Make(std::move(scan), "delay", "avg", opts, "road");
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // (10,20) and (30,40)
  EXPECT_DOUBLE_EQ((*out)[0].value(1).random_var()->Mean(), 15.0);
  EXPECT_DOUBLE_EQ((*out)[1].value(1).random_var()->Mean(), 35.0);
}

TEST(PartitionedWindowTest, RejectsBadColumns) {
  auto scan = std::make_unique<VectorScan>(KeyedSchema(),
                                           std::vector<Tuple>{});
  EXPECT_TRUE(WindowAggregate::Make(std::move(scan), "delay", "o", {},
                                    "delay")
                  .status()
                  .IsTypeError());  // uncertain key
  auto scan2 = std::make_unique<VectorScan>(KeyedSchema(),
                                            std::vector<Tuple>{});
  EXPECT_TRUE(WindowAggregate::Make(std::move(scan2), "road", "o", {},
                                    "road")
                  .status()
                  .IsTypeError());  // string aggregate
}

TEST(WindowKindTest, TumblingUnpartitioned) {
  Schema s;
  ASSERT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  std::vector<Tuple> tuples;
  for (int i = 1; i <= 6; ++i) {
    tuples.emplace_back(std::vector<expr::Value>{expr::Value(RandomVar(
        std::make_shared<dist::GaussianDist>(i * 10.0, 0.0), 5))});
  }
  auto scan = std::make_unique<VectorScan>(s, tuples);
  WindowAggregateOptions opts;
  opts.window_size = 3;
  opts.kind = WindowKind::kTumbling;
  auto agg = WindowAggregate::Make(std::move(scan), "x", "avg", opts);
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);
  EXPECT_DOUBLE_EQ((*out)[0].value(0).random_var()->Mean(), 20.0);
  EXPECT_DOUBLE_EQ((*out)[1].value(0).random_var()->Mean(), 50.0);
}

// Lemma 3 under repeated source sequences: two feeds concatenated, each
// numbering its tuples from 0. Every emission's d.f. must be the minimum
// over its window; a min-d.f. deque that evicted by source sequence
// instead of by window position reported 7, 9, 9, 9 for outputs 2-5 of
// the ungrouped case below, where the window minimum is 5, 5, 5, 7.
using KeyedDf = std::pair<std::string, size_t>;

// A scan that delivers its tuples with the sequence numbers they carry
// (VectorScan would renumber them).
class SequencePreservingScan final : public Operator {
 public:
  explicit SequencePreservingScan(std::vector<Tuple> tuples)
      : schema_(KeyedSchema()), tuples_(std::move(tuples)) {}
  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override {
    if (pos_ >= tuples_.size()) return std::optional<Tuple>(std::nullopt);
    return std::optional<Tuple>(tuples_[pos_++]);
  }

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

// One scan serving `first` then `second`, each numbered from 0.
OperatorPtr RepeatedSequenceScan(const std::vector<KeyedDf>& first,
                                 const std::vector<KeyedDf>& second) {
  std::vector<Tuple> tuples;
  for (const auto* part : {&first, &second}) {
    uint64_t sequence = 0;
    for (const auto& [key, df] : *part) {
      tuples.push_back(KeyedTuple(key, 1.0, 1.0, df));
      tuples.back().set_sequence(sequence++);
    }
  }
  return std::make_unique<SequencePreservingScan>(std::move(tuples));
}

// The d.f. of every emission of per-key sliding windows of `w` rows
// (one window when `grouped` is false), by brute force.
std::vector<size_t> BruteForceMinDf(const std::vector<KeyedDf>& input,
                                    size_t w, bool grouped) {
  std::map<std::string, std::vector<size_t>> windows;
  std::vector<size_t> out;
  for (const auto& [key, df] : input) {
    std::vector<size_t>& window = windows[grouped ? key : ""];
    window.push_back(df);
    if (window.size() > w) window.erase(window.begin());
    if (window.size() == w) {
      out.push_back(*std::min_element(window.begin(), window.end()));
    }
  }
  return out;
}

std::vector<size_t> EmittedDf(const std::vector<Tuple>& rows,
                              size_t agg_column) {
  std::vector<size_t> dfs;
  for (const Tuple& t : rows) {
    dfs.push_back(t.value(agg_column).random_var()->sample_size());
  }
  return dfs;
}

TEST(WindowMinDfTest, RepeatedSequencesUngrouped) {
  const std::vector<KeyedDf> first = {{"a", 10}, {"a", 10}, {"a", 10}};
  const std::vector<KeyedDf> second = {{"a", 10}, {"a", 5}, {"a", 7},
                                       {"a", 9},  {"a", 9}, {"a", 9}};
  std::vector<KeyedDf> all = first;
  all.insert(all.end(), second.begin(), second.end());
  const std::vector<size_t> expected = BruteForceMinDf(all, 4, false);
  ASSERT_EQ(expected, (std::vector<size_t>{10, 5, 5, 5, 5, 7}));

  for (bool batched : {false, true}) {
    auto agg = WindowAggregate::Make(RepeatedSequenceScan(first, second),
                                     "delay", "avg", {.window_size = 4});
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    std::vector<Tuple> out;
    auto ran = engine::Run(**agg, {.batched = batched}, &out);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_EQ(EmittedDf(out, 0), expected) << "batched " << batched;
  }
}

TEST(WindowMinDfTest, RepeatedSequencesGrouped) {
  const std::vector<KeyedDf> first = {{"a", 10}, {"b", 3}, {"a", 10},
                                      {"a", 10}};
  const std::vector<KeyedDf> second = {{"a", 10}, {"b", 8}, {"a", 5},
                                       {"a", 7},  {"b", 6}, {"a", 9},
                                       {"a", 9},  {"b", 4}, {"a", 9}};
  std::vector<KeyedDf> all = first;
  all.insert(all.end(), second.begin(), second.end());
  const std::vector<size_t> expected = BruteForceMinDf(all, 4, true);
  ASSERT_EQ(expected, (std::vector<size_t>{10, 5, 5, 5, 5, 3, 7}));

  for (bool batched : {false, true}) {
    auto agg = WindowAggregate::Make(RepeatedSequenceScan(first, second),
                                     "delay", "avg", {.window_size = 4},
                                     "road");
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    std::vector<Tuple> out;
    auto ran = engine::Run(**agg, {.batched = batched}, &out);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    EXPECT_EQ(EmittedDf(out, 1), expected) << "batched " << batched;
  }
}

Schema DoubleKeyedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"k", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kDouble}).ok());
  return s;
}

std::vector<double> EmittedSums(const std::vector<Tuple>& rows) {
  std::vector<double> sums;
  for (const Tuple& t : rows) sums.push_back(t.value(1).random_var()->Mean());
  return sums;
}

// Double keys share a window exactly when they compare equal: 0.1 and
// 0.1000001 (equal to six decimals) and 1e-7 and 0.0 stay apart, and
// -0.0 joins 0.0. A sliding window of 2 fills only for the 0.0/-0.0
// key. The windows survive a checkpoint.
TEST(PartitionedWindowTest, DoubleKeysGroupByValue) {
  const std::vector<Tuple> tuples = {
      Tuple({expr::Value(0.1), expr::Value(1.0)}),
      Tuple({expr::Value(0.1000001), expr::Value(2.0)}),
      Tuple({expr::Value(1e-7), expr::Value(3.0)}),
      Tuple({expr::Value(0.0), expr::Value(4.0)}),
      Tuple({expr::Value(-0.0), expr::Value(5.0)}),
  };
  const WindowAggregateOptions opts{.window_size = 2,
                                    .fn = WindowAggFn::kSum};
  for (bool batched : {false, true}) {
    auto agg = WindowAggregate::Make(
        std::make_unique<VectorScan>(DoubleKeyedSchema(), tuples), "x",
        "sum", opts, "k");
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    std::vector<Tuple> out;
    ASSERT_TRUE(engine::Run(**agg, {.batched = batched}, &out).ok());
    EXPECT_EQ(EmittedSums(out), (std::vector<double>{9}))
        << "batched " << batched;
    EXPECT_EQ((*agg)->partition_count(), 4u);

    auto blob = (*agg)->SaveCheckpoint();
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    const std::vector<Tuple> more = {
        Tuple({expr::Value(0.0), expr::Value(6.0)}),
        Tuple({expr::Value(0.1), expr::Value(10.0)}),
    };
    auto restored = WindowAggregate::Make(
        std::make_unique<VectorScan>(DoubleKeyedSchema(), more), "x", "sum",
        opts, "k");
    ASSERT_TRUE(restored.ok());
    ASSERT_TRUE((*restored)->RestoreCheckpoint(*blob).ok());
    EXPECT_EQ((*restored)->partition_count(), 4u);
    auto resumed = Collect(**restored);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(EmittedSums(*resumed), (std::vector<double>{11, 11}));
  }
}

TEST(PartitionedWindowTest, NanKeyRejected) {
  const std::vector<Tuple> tuples = {
      Tuple({expr::Value(1.0), expr::Value(1.0)}),
      Tuple({expr::Value(std::nan("")), expr::Value(2.0)}),
  };
  auto agg = WindowAggregate::Make(
      std::make_unique<VectorScan>(DoubleKeyedSchema(), tuples), "x", "avg",
      {.window_size = 1}, "k");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  auto out = Collect(**agg);
  EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status().ToString();
}

TEST(GroupByQueryTest, EndToEndSql) {
  std::vector<Tuple> tuples = {
      KeyedTuple("r19", 50, 4, 3),  KeyedTuple("r20", 60, 4, 50),
      KeyedTuple("r19", 54, 4, 5),  KeyedTuple("r20", 62, 4, 50),
      KeyedTuple("r19", 58, 4, 4),  KeyedTuple("r20", 64, 4, 50),
  };
  auto scan = std::make_unique<VectorScan>(KeyedSchema(), tuples);
  auto plan = query::PlanQuery(
      "SELECT AVG(delay) OVER (ROWS 2) FROM roads GROUP BY road "
      "WITH ACCURACY ANALYTICAL CONFIDENCE 0.9",
      std::move(scan));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = engine::Collect(**plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 4u);  // two emissions per key
  // First emission for r19 averages (50, 54) with df = min(3,5) = 3.
  EXPECT_EQ(*(*out)[0].value(0).string_value(), "r19");
  EXPECT_DOUBLE_EQ((*out)[0].value(1).random_var()->Mean(), 52.0);
  EXPECT_EQ((*out)[0].value(1).random_var()->sample_size(), 3u);
  // Accuracy annotation covers the uncertain column.
  ASSERT_TRUE((*out)[0].accuracy()[1].has_value());
}

TEST(GroupByQueryTest, ParserRendersGroupByAndTumble) {
  auto q = query::Parse(
      "SELECT SUM(delay) OVER (ROWS 10 TUMBLE) FROM s GROUP BY road");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by, "road");
  EXPECT_EQ(q->window_agg->kind, engine::WindowKind::kTumbling);
  auto q2 = query::Parse(q->ToString());
  ASSERT_TRUE(q2.ok()) << "rendered: " << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST(GroupByQueryTest, GroupByWithoutWindowRejected) {
  auto scan = std::make_unique<VectorScan>(KeyedSchema(),
                                           std::vector<Tuple>{});
  auto plan = query::PlanQuery("SELECT road FROM s GROUP BY road",
                               std::move(scan));
  EXPECT_TRUE(plan.status().IsNotImplemented());
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
