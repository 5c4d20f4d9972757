// The determinism contract: the grouped window produces the same bits
// whichever way it is pulled, and a checkpoint resumes it mid-stream
// bit-identically. These tests compare byte-for-byte — doubles via their IEEE-754 bit
// patterns, never via tolerances.

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/dist/learner.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/query/planner.h"

namespace ausdb {
namespace engine {
namespace {

using dist::RandomVar;

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

Schema KeyedSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"k", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

// Mixed-magnitude Gaussian inputs over a couple dozen keys: any
// reordering of the floating-point reductions would show up in the bits.
std::vector<Tuple> KeyedInput(size_t n) {
  std::vector<Tuple> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string key = "key" + std::to_string((i * 7) % 23);
    const double mean =
        (i % 2 == 0 ? 1e6 : 1e-2) * (1.0 + static_cast<double>(i % 13));
    const double var = 1.0 + static_cast<double>(i % 5);
    const size_t df = 10 + i % 50;
    tuples.push_back(Tuple(
        {expr::Value(key),
         expr::Value(RandomVar(
             std::make_shared<dist::GaussianDist>(mean, var), df))}));
  }
  return tuples;
}

void ExpectBitIdentical(const std::vector<Tuple>& a,
                        const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(*a[i].value(0).string_value(), *b[i].value(0).string_value());
    const RandomVar ra = *a[i].value(1).random_var();
    const RandomVar rb = *b[i].value(1).random_var();
    EXPECT_EQ(Bits(ra.Mean()), Bits(rb.Mean())) << "tuple " << i;
    EXPECT_EQ(Bits(ra.Variance()), Bits(rb.Variance())) << "tuple " << i;
    EXPECT_EQ(ra.sample_size(), rb.sample_size());
    EXPECT_EQ(a[i].sequence(), b[i].sequence());
    EXPECT_EQ(Bits(a[i].membership_prob()), Bits(b[i].membership_prob()));
    EXPECT_EQ(a[i].membership_df_n(), b[i].membership_df_n());
  }
}

WindowAggregateOptions WindowOpts() {
  WindowAggregateOptions opts;
  opts.window_size = 8;
  opts.fn = WindowAggFn::kAvg;
  return opts;
}

// The grouped window pulled tuple at a time.
Result<std::vector<Tuple>> RunGrouped(const std::vector<Tuple>& input) {
  auto scan = std::make_unique<VectorScan>(KeyedSchema(), input);
  AUSDB_ASSIGN_OR_RETURN(auto agg,
                         WindowAggregate::Make(std::move(scan), "x", "agg",
                                               WindowOpts(), "k"));
  return Collect(*agg);
}

TEST(ParallelDeterminismTest, ShardedWindowMatchesSerialOperatorBitwise) {
  const std::vector<Tuple> input = KeyedInput(2000);

  // The serial reference: tuple-at-a-time pulls.
  auto reference = RunGrouped(input);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->empty());

  // Batched: byte-identical to the reference.
  auto scan = std::make_unique<VectorScan>(KeyedSchema(), input);
  auto batched = WindowAggregate::Make(std::move(scan), "x", "agg",
                                       WindowOpts(), "k");
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  std::vector<Tuple> rows;
  auto ran = engine::Run(**batched, {.batched = true}, &rows);
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  ExpectBitIdentical(rows, *reference);
}

// An AQL GROUP BY window planned through PlanQuery: tuple-at-a-time and
// batched pulls deliver the same bits, for sliding and tumbling windows.
TEST(AqlGroupByParallelTest, PlannedWindowBitIdenticalAcrossPullModes) {
  const std::vector<Tuple> input = KeyedInput(3000);
  for (const char* kind : {"", " TUMBLE"}) {
    const std::string sql = std::string("SELECT AVG(x) OVER (ROWS 8") +
                            kind + ") AS a FROM s GROUP BY k";
    const auto plan = [&]() {
      auto p = query::PlanQuery(
          sql, std::make_unique<VectorScan>(KeyedSchema(), input));
      EXPECT_TRUE(p.ok()) << sql << ": " << p.status().ToString();
      return std::move(*p);
    };
    auto reference = Collect(*plan());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_GT(reference->size(), 100u) << sql;

    std::vector<Tuple> batched;
    auto ran = engine::Run(*plan(), {.batched = true}, &batched);
    ASSERT_TRUE(ran.ok()) << ran.status().ToString();
    ExpectBitIdentical(batched, *reference);
  }
}

// A row the window cannot aggregate (a histogram) in the middle of a
// batch: the rows before it are stepped, emitted and counted exactly as
// a tuple-at-a-time pull steps them, so a checkpoint taken after the
// error resumes at the right input.
TEST(ParallelDeterminismTest, FailingRowLeavesEarlierRowsStepped) {
  std::vector<Tuple> input = KeyedInput(300);
  auto histogram = dist::LearnHistogram(
      std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8}, {});
  ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
  const size_t bad_row = 200;
  input[bad_row] = Tuple({expr::Value("key0"),
                          expr::Value(RandomVar(*histogram))});

  for (bool grouped : {false, true}) {
    const auto make = [&]() {
      auto agg = WindowAggregate::Make(
          std::make_unique<VectorScan>(KeyedSchema(), input), "x", "agg",
          WindowOpts(),
          grouped ? std::optional<std::string>("k") : std::nullopt);
      EXPECT_TRUE(agg.ok()) << agg.status().ToString();
      return std::move(*agg);
    };

    // Reference: tuple-at-a-time pulls up to the failing row.
    auto serial = make();
    std::vector<Tuple> reference;
    Status failure;
    for (;;) {
      auto t = serial->Next();
      if (!t.ok()) {
        failure = t.status();
        break;
      }
      ASSERT_TRUE(t->has_value()) << "stream ended before the bad row";
      reference.push_back(std::move(**t));
    }
    ASSERT_TRUE(failure.IsNotImplemented()) << failure.ToString();
    EXPECT_EQ(serial->input_consumed(), bad_row + 1);
    auto reference_blob = serial->SaveCheckpoint();
    ASSERT_TRUE(reference_blob.ok());

    auto batched = make();
    TupleBatch out;
    // One batch covers the whole input, so the bad row fails it.
    const Status st = batched->NextBatch(input.size(), out);
    ASSERT_TRUE(st.IsNotImplemented()) << st.ToString();
    if (grouped) {
      ExpectBitIdentical(out.rows(), reference);
    } else {
      ASSERT_EQ(out.size(), reference.size());
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(Bits(out.rows()[i].value(0).random_var()->Mean()),
                  Bits(reference[i].value(0).random_var()->Mean()));
      }
    }
    EXPECT_EQ(batched->input_consumed(), bad_row + 1);
    auto blob = batched->SaveCheckpoint();
    ASSERT_TRUE(blob.ok());
    EXPECT_EQ(*blob, *reference_blob)
        << (grouped ? "grouped" : "ungrouped");
  }
}

// A scan that serves a shared input vector starting at an offset with
// globally consistent sequence numbers — the "re-seeked source" of the
// checkpoint/restore protocol.
class SuffixScan final : public Operator {
 public:
  SuffixScan(Schema schema, std::vector<Tuple> tuples, size_t offset)
      : schema_(std::move(schema)),
        tuples_(std::move(tuples)),
        pos_(offset) {
    for (size_t i = 0; i < tuples_.size(); ++i) {
      tuples_[i].set_sequence(i);
    }
  }

  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override {
    if (pos_ >= tuples_.size()) return std::optional<Tuple>(std::nullopt);
    return std::optional<Tuple>(tuples_[pos_++]);
  }

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
  size_t pos_;
};

TEST(ParallelDeterminismTest, ShardedCheckpointRestoreResumesMidStream) {
  const std::vector<Tuple> input = KeyedInput(1500);

  // Reference: one uninterrupted serial run.
  auto reference = RunGrouped(input);
  ASSERT_TRUE(reference.ok());
  ASSERT_GT(reference->size(), 400u);

  // Interrupted run: pull 150 emissions, checkpoint mid-stream.
  auto scan = std::make_unique<VectorScan>(KeyedSchema(), input);
  auto agg = WindowAggregate::Make(std::move(scan), "x", "agg", WindowOpts(),
                                   "k");
  ASSERT_TRUE(agg.ok());
  std::vector<Tuple> before;
  for (size_t i = 0; i < 150; ++i) {
    auto next = (*agg)->Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next->has_value());
    before.push_back(std::move(**next));
  }
  auto blob = (*agg)->SaveCheckpoint();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  const uint64_t consumed = (*agg)->input_consumed();
  ASSERT_GT(consumed, 150u);
  ASSERT_LT(consumed, input.size());

  // Restore into a fresh operator over a re-seeked source and resume in
  // batches.
  auto restored = WindowAggregate::Make(
      std::make_unique<SuffixScan>(KeyedSchema(), input, consumed), "x",
      "agg", WindowOpts(), "k");
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->RestoreCheckpoint(*blob).ok());
  std::vector<Tuple> stitched = std::move(before);
  auto after = engine::Run(**restored, {.batched = true}, &stitched);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectBitIdentical(stitched, *reference);
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
