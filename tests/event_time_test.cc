// Event-time robustness: the WatermarkPolicy, the bounded-lateness
// ReorderBuffer, late-tuple revision in the time-based window aggregate
// (with checkpoint round trips), the disordered event-time source, and
// the AQL WITHIN/LATENESS surface.

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/memory_budget.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/govern/ladder.h"
#include "src/engine/executor.h"
#include "src/engine/reorder_buffer.h"
#include "src/engine/scan.h"
#include "src/engine/time_window_aggregate.h"
#include "src/obs/metrics.h"
#include "src/query/parser.h"
#include "src/query/planner.h"
#include "src/serde/checkpoint.h"
#include "src/serde/json_writer.h"
#include "src/stream/replayable_source.h"
#include "src/stream/watermark.h"

namespace ausdb {
namespace {

using engine::Collect;
using engine::FieldType;
using engine::OperatorPtr;
using engine::ReorderBuffer;
using engine::ReorderBufferOptions;
using engine::Schema;
using engine::TimeWindowAggregate;
using engine::TimeWindowOptions;
using engine::Tuple;
using engine::VectorScan;

constexpr double kInf = std::numeric_limits<double>::infinity();

Schema TsSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

// Timestamped tuple whose sequence is its event-order index.
Tuple TsTuple(double ts, double mean, uint64_t seq, size_t n = 10) {
  Tuple t({expr::Value(ts),
           expr::Value(dist::RandomVar(
               std::make_shared<dist::GaussianDist>(mean, 1.0), n))});
  t.set_sequence(seq);
  return t;
}

// Event-ordered stream ts = 0, 1, ..., count-1 with value mean 10*ts.
std::vector<Tuple> OrderedStream(size_t count) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < count; ++i) {
    tuples.push_back(TsTuple(static_cast<double>(i), 10.0 * i, i));
  }
  return tuples;
}

// Deterministic bounded disorder: blocks of `block` tuples are rotated
// left by one, so displacement is at most block-1 positions.
std::vector<Tuple> RotateBlocks(std::vector<Tuple> tuples, size_t block) {
  for (size_t start = 0; start + block <= tuples.size(); start += block) {
    std::rotate(tuples.begin() + start, tuples.begin() + start + 1,
                tuples.begin() + start + block);
  }
  return tuples;
}

std::unique_ptr<VectorScan> Scan(std::vector<Tuple> tuples) {
  return std::make_unique<VectorScan>(TsSchema(), std::move(tuples));
}

// VectorScan stamps delivery-order sequences over its tuples; this scan
// preserves the sequences already set, which is the identity the
// sequence-disorder tests manipulate.
class PreservingScan final : public engine::Operator {
 public:
  PreservingScan(Schema schema, std::vector<Tuple> tuples)
      : schema_(std::move(schema)), tuples_(std::move(tuples)) {}
  const Schema& schema() const override { return schema_; }
  Result<std::optional<Tuple>> Next() override {
    if (pos_ >= tuples_.size()) return std::optional<Tuple>(std::nullopt);
    return std::optional<Tuple>(tuples_[pos_++]);
  }
  Status Reset() override {
    pos_ = 0;
    return Status::OK();
  }

 private:
  Schema schema_;
  std::vector<Tuple> tuples_;
  size_t pos_ = 0;
};

double TsOf(const Tuple& t) { return *t.value(0).double_value(); }

// ---------------------------------------------------------------------
// WatermarkPolicy

TEST(WatermarkPolicyTest, PureFunctionOfObservedTimestamps) {
  stream::WatermarkPolicy wm(stream::WatermarkPolicyOptions{5.0});
  EXPECT_EQ(wm.watermark(), -kInf);
  EXPECT_FALSE(wm.has_observation());
  EXPECT_FALSE(wm.IsLate(-1e300));  // nothing is late before data

  EXPECT_TRUE(wm.Observe(10.0));
  EXPECT_DOUBLE_EQ(wm.watermark(), 5.0);
  EXPECT_DOUBLE_EQ(wm.max_timestamp(), 10.0);
  EXPECT_TRUE(wm.IsLate(5.0));    // at the watermark = late
  EXPECT_FALSE(wm.IsLate(5.5));   // strictly above = in bound

  // Non-advancing and non-finite observations change nothing.
  EXPECT_FALSE(wm.Observe(8.0));
  EXPECT_FALSE(wm.Observe(std::nan("")));
  EXPECT_FALSE(wm.Observe(kInf));
  EXPECT_DOUBLE_EQ(wm.watermark(), 5.0);

  wm.RestoreFromMaxTimestamp(20.0);
  EXPECT_DOUBLE_EQ(wm.watermark(), 15.0);
  wm.Reset();
  EXPECT_EQ(wm.watermark(), -kInf);
}

// ---------------------------------------------------------------------
// ReorderBuffer

TEST(ReorderBufferTest, RestoresEventTimeOrderWithinBound) {
  // Displacement <= 2 positions (step 1): bound 3 covers it strictly.
  auto disordered = RotateBlocks(OrderedStream(9), 3);
  ReorderBufferOptions opts;
  opts.lateness_bound = 3.0;
  auto rb = ReorderBuffer::Make(Scan(disordered), "ts", opts);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  auto out = Collect(**rb);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 9u);
  for (size_t i = 0; i < out->size(); ++i) {
    EXPECT_DOUBLE_EQ(TsOf((*out)[i]), static_cast<double>(i));
  }
  EXPECT_EQ((*rb)->stats().admitted, 9u);
  EXPECT_EQ((*rb)->stats().late, 0u);
}

TEST(ReorderBufferTest, ZeroBoundDegeneratesToPassThrough) {
  auto disordered = RotateBlocks(OrderedStream(6), 3);
  auto rb = ReorderBuffer::Make(Scan(disordered), "ts", {});
  ASSERT_TRUE(rb.ok());
  auto out = Collect(**rb);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 6u);
  // Arrival order preserved; the out-of-order tuples are counted late.
  for (size_t i = 0; i < out->size(); ++i) {
    EXPECT_DOUBLE_EQ(TsOf((*out)[i]), TsOf(disordered[i]));
  }
  EXPECT_GT((*rb)->stats().late, 0u);
}

TEST(ReorderBufferTest, BeyondBoundStragglerPassesThroughCountedLate) {
  std::vector<Tuple> tuples = {TsTuple(0, 0, 0), TsTuple(10, 100, 1),
                               TsTuple(2, 20, 2)};
  ReorderBufferOptions opts;
  opts.lateness_bound = 1.0;
  auto rb = ReorderBuffer::Make(Scan(tuples), "ts", opts);
  ASSERT_TRUE(rb.ok());
  auto out = Collect(**rb);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  // ts=2 arrives below the watermark (9): it cannot be reordered and is
  // handed through for the downstream lateness horizon to deal with.
  EXPECT_DOUBLE_EQ(TsOf((*out)[0]), 0.0);
  EXPECT_DOUBLE_EQ(TsOf((*out)[1]), 2.0);
  EXPECT_DOUBLE_EQ(TsOf((*out)[2]), 10.0);
  EXPECT_EQ((*rb)->stats().late, 1u);
}

TEST(ReorderBufferTest, BlockOverflowForcesEarlyReleaseNeverDrops) {
  ReorderBufferOptions opts;
  opts.lateness_bound = 100.0;
  opts.capacity = 2;
  auto rb = ReorderBuffer::Make(Scan(OrderedStream(5)), "ts", opts);
  ASSERT_TRUE(rb.ok());
  auto out = Collect(**rb);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 5u);
  for (size_t i = 0; i < out->size(); ++i) {
    EXPECT_DOUBLE_EQ(TsOf((*out)[i]), static_cast<double>(i));
  }
  EXPECT_EQ((*rb)->stats().forced_releases, 3u);
}

// Pulls the buffer dry one tuple at a time, asserting the conservation
// law at every step: every admitted tuple is delivered, still buffered,
// or awaiting delivery.
void DrainCheckingAccounting(ReorderBuffer& rb, size_t expect_delivered) {
  size_t delivered = 0;
  for (;;) {
    auto t = rb.Next();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    if (!t->has_value()) break;
    ++delivered;
    const engine::ReorderStats& s = rb.stats();
    ASSERT_EQ(s.admitted, delivered + rb.buffered_count() +
                              rb.pending_release_count())
        << "accounting broke after tuple " << delivered << " (late=" << s.late
        << " forced=" << s.forced_releases << ")";
  }
  EXPECT_EQ(delivered, expect_delivered);
}

TEST(ReorderBufferTest, AccountingClosesUnderSustainedBlockOverflow) {
  ReorderBufferOptions opts;
  opts.lateness_bound = 1000.0;
  opts.capacity = 3;
  auto rb = ReorderBuffer::Make(Scan(OrderedStream(30)), "ts", opts);
  ASSERT_TRUE(rb.ok());
  DrainCheckingAccounting(**rb, /*expect_delivered=*/30);
  EXPECT_EQ((*rb)->stats().admitted, 30u);
  EXPECT_EQ((*rb)->stats().forced_releases, 27u);
}

TEST(ReorderBufferTest, GovernedRungShortensHoldHorizon) {
  // Rung-stamped tuples shrink the hold horizon (deepest default rung:
  // half the bound). Releases happen before the true watermark —
  // counted early — but every tuple still arrives.
  auto ladder = std::make_shared<const govern::LadderPolicy>(
      govern::LadderPolicy::Default());
  std::vector<Tuple> tuples = RotateBlocks(OrderedStream(12), 3);
  for (Tuple& t : tuples) {
    t.set_precision_rung(
        static_cast<uint32_t>(ladder->rungs.size() - 1));
  }
  ReorderBufferOptions opts;
  opts.lateness_bound = 4.0;
  opts.ladder = ladder;
  auto rb = ReorderBuffer::Make(
      std::make_unique<PreservingScan>(TsSchema(), tuples), "ts", opts);
  ASSERT_TRUE(rb.ok());
  auto out = Collect(**rb);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 12u) << "a shortened horizon drops nothing";
  EXPECT_GT((*rb)->stats().early_releases, 0u);
}

TEST(ReorderBufferTest, UngovernedTrafficIgnoresTheLadder) {
  // Rung-0 tuples through a ladder-bound buffer must behave exactly as
  // if no ladder were configured — byte for byte.
  const auto disordered = RotateBlocks(OrderedStream(12), 3);
  ReorderBufferOptions plain;
  plain.lateness_bound = 3.0;
  auto rb1 = ReorderBuffer::Make(Scan(disordered), "ts", plain);
  ASSERT_TRUE(rb1.ok());
  auto out1 = Collect(**rb1);
  ASSERT_TRUE(out1.ok());

  ReorderBufferOptions governed = plain;
  governed.ladder = std::make_shared<const govern::LadderPolicy>(
      govern::LadderPolicy::Default());
  auto rb2 = ReorderBuffer::Make(Scan(disordered), "ts", governed);
  ASSERT_TRUE(rb2.ok());
  auto out2 = Collect(**rb2);
  ASSERT_TRUE(out2.ok());

  ASSERT_EQ(out1->size(), out2->size());
  const Schema& schema = (*rb1)->schema();
  for (size_t i = 0; i < out1->size(); ++i) {
    EXPECT_EQ(serde::ToJson((*out1)[i], schema),
              serde::ToJson((*out2)[i], schema));
  }
  EXPECT_EQ((*rb2)->stats().early_releases, 0u);
}

TEST(ReorderBufferTest, ChargesHeldTuplesAgainstMemoryBudget) {
  // An ample budget: every held tuple is charged while buffered and
  // every charge is handed back by end of stream.
  MemoryBudget budget(1 << 20);
  ReorderBufferOptions opts;
  opts.lateness_bound = 3.0;
  opts.memory_budget = &budget;
  auto rb = ReorderBuffer::Make(Scan(RotateBlocks(OrderedStream(9), 3)),
                                "ts", opts);
  ASSERT_TRUE(rb.ok());
  auto first = (*rb)->Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_GT(budget.used(), 0u) << "held tuples must be charged";
  auto rest = Collect(**rb);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(rest->size(), 8u);
  EXPECT_EQ(budget.used(), 0u)
      << "every buffer exit must release its charge";
  EXPECT_EQ(budget.rejections(), 0u);
}

TEST(ReorderBufferTest, BudgetExhaustionIsLoudNotSilent) {
  // A budget too small for even one held tuple: the buffer refuses with
  // kResourceExhausted instead of growing past its allowance.
  MemoryBudget budget(8);
  ReorderBufferOptions opts;
  opts.lateness_bound = 100.0;  // everything would be held
  opts.memory_budget = &budget;
  auto rb = ReorderBuffer::Make(Scan(OrderedStream(5)), "ts", opts);
  ASSERT_TRUE(rb.ok());
  auto t = (*rb)->Next();
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsResourceExhausted()) << t.status().ToString();
  EXPECT_GE(budget.rejections(), 1u);
  EXPECT_EQ(budget.used(), 0u) << "a refused reservation charges nothing";
}

TEST(ReorderBufferTest, OutputIdenticalWithMetricsOn) {
  auto disordered = RotateBlocks(OrderedStream(12), 3);
  ReorderBufferOptions plain;
  plain.lateness_bound = 3.0;
  auto rb1 = ReorderBuffer::Make(Scan(disordered), "ts", plain);
  ASSERT_TRUE(rb1.ok());
  auto out1 = Collect(**rb1);
  ASSERT_TRUE(out1.ok());

  obs::MetricRegistry registry;
  ReorderBufferOptions instrumented = plain;
  instrumented.metrics = &registry;
  auto rb2 = ReorderBuffer::Make(Scan(disordered), "ts", instrumented);
  ASSERT_TRUE(rb2.ok());
  auto out2 = Collect(**rb2);
  ASSERT_TRUE(out2.ok());

  ASSERT_EQ(out1->size(), out2->size());
  const Schema& schema = (*rb1)->schema();
  for (size_t i = 0; i < out1->size(); ++i) {
    EXPECT_EQ(serde::ToJson((*out1)[i], schema),
              serde::ToJson((*out2)[i], schema));
  }
}

TEST(ReorderBufferTest, CheckpointRoundTripMidDisorder) {
  const auto disordered = RotateBlocks(OrderedStream(9), 3);
  ReorderBufferOptions opts;
  opts.lateness_bound = 3.0;

  // Golden uninterrupted run.
  auto golden_rb = ReorderBuffer::Make(Scan(disordered), "ts", opts);
  ASSERT_TRUE(golden_rb.ok());
  auto golden = Collect(**golden_rb);
  ASSERT_TRUE(golden.ok());
  ASSERT_EQ(golden->size(), 9u);

  // Pull two tuples, snapshot mid-disorder with a non-empty buffer.
  auto rb1 = ReorderBuffer::Make(Scan(disordered), "ts", opts);
  ASSERT_TRUE(rb1.ok());
  std::vector<Tuple> head;
  for (int i = 0; i < 2; ++i) {
    auto t = (*rb1)->Next();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->has_value());
    head.push_back(**t);
  }
  ASSERT_GT((*rb1)->buffered_count(), 0u);
  auto blob = (*rb1)->SaveCheckpoint();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();

  // Resume: a fresh buffer over the unconsumed input suffix.
  const size_t consumed = (*rb1)->stats().admitted;
  std::vector<Tuple> rest(disordered.begin() + consumed,
                          disordered.end());
  auto rb2 = ReorderBuffer::Make(Scan(std::move(rest)), "ts", opts);
  ASSERT_TRUE(rb2.ok());

  // One format: records in the retired layouts are refused before
  // anything is restored: the ungoverned "rob.v1" (no early releases, no
  // horizon floor) and "rob.v2" (shed and duplicate counts, dedupe
  // seen-set).
  serde::CheckpointWriter v1;
  v1.Token("rob.v1");
  v1.Double(0.0);  // max timestamp
  for (int i = 0; i < 6; ++i) v1.Uint(0);  // exhausted + five stats
  for (int i = 0; i < 3; ++i) v1.Uint(0);  // buffered, ready, seen
  const Status v1_status =
      (*rb2)->RestoreCheckpoint(std::move(v1).Finish());
  EXPECT_TRUE(v1_status.IsCorruption()) << v1_status.ToString();
  serde::CheckpointWriter v2;
  v2.Token("rob.v2");
  v2.Double(0.0);  // max timestamp
  for (int i = 0; i < 8; ++i) v2.Uint(0);  // exhausted, six stats, floor set
  v2.Double(0.0);  // horizon floor
  for (int i = 0; i < 3; ++i) v2.Uint(0);  // buffered, ready, seen
  const Status v2_status =
      (*rb2)->RestoreCheckpoint(std::move(v2).Finish());
  EXPECT_TRUE(v2_status.IsCorruption()) << v2_status.ToString();

  ASSERT_TRUE((*rb2)->RestoreCheckpoint(*blob).ok());
  auto tail = Collect(**rb2);
  ASSERT_TRUE(tail.ok());

  std::vector<Tuple> resumed = head;
  resumed.insert(resumed.end(), tail->begin(), tail->end());
  ASSERT_EQ(resumed.size(), golden->size());
  const Schema& schema = (*golden_rb)->schema();
  for (size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(serde::ToJson(resumed[i], schema),
              serde::ToJson((*golden)[i], schema))
        << "tuple " << i;
  }
}

TEST(ReorderBufferTest, RejectsBadConfig) {
  EXPECT_FALSE(ReorderBuffer::Make(Scan({}), "no_such_column", {}).ok());
  ReorderBufferOptions negative;
  negative.lateness_bound = -1.0;
  EXPECT_FALSE(ReorderBuffer::Make(Scan({}), "ts", negative).ok());
}

// ---------------------------------------------------------------------
// TimeWindowAggregate: non-finite timestamps (S1) and the existing
// out-of-order eviction path (S2)

TEST(TimeWindowGuardTest, RejectsNonFiniteTimestampOrdered) {
  for (double bad : {std::nan(""), kInf, -kInf}) {
    std::vector<Tuple> tuples = {TsTuple(0, 1, 0), TsTuple(bad, 2, 1)};
    auto agg = TimeWindowAggregate::Make(Scan(tuples), "ts", "x", "a", {});
    ASSERT_TRUE(agg.ok());
    EXPECT_TRUE(Collect(**agg).status().IsInvalidArgument())
        << "timestamp " << bad;
  }
}

TEST(TimeWindowGuardTest, RejectsNonFiniteTimestampUnordered) {
  TimeWindowOptions lax;
  lax.require_ordered = false;
  for (double bad : {std::nan(""), kInf, -kInf}) {
    std::vector<Tuple> tuples = {TsTuple(5, 1, 0), TsTuple(bad, 2, 1)};
    auto agg =
        TimeWindowAggregate::Make(Scan(tuples), "ts", "x", "a", lax);
    ASSERT_TRUE(agg.ok());
    EXPECT_TRUE(Collect(**agg).status().IsInvalidArgument())
        << "timestamp " << bad;
  }
}

TEST(TimeWindowGuardTest, RejectsNonFiniteTimestampRevising) {
  TimeWindowOptions rev;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 10.0;
  std::vector<Tuple> tuples = {TsTuple(5, 1, 0), TsTuple(std::nan(""), 2, 1)};
  auto agg = TimeWindowAggregate::Make(Scan(tuples), "ts", "x", "a", rev);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(Collect(**agg).status().IsInvalidArgument());
}

TEST(TimeWindowBoundaryTest, OutOfOrderEvictionByValue) {
  // require_ordered=false: the straggler joins the window it belongs
  // to; later watermark advance evicts by value, not arrival order.
  TimeWindowOptions lax;
  lax.require_ordered = false;
  lax.duration = 4.0;
  std::vector<Tuple> tuples = {TsTuple(5, 10, 0), TsTuple(3, 20, 1),
                               TsTuple(12, 30, 2)};
  auto agg = TimeWindowAggregate::Make(Scan(tuples), "ts", "x", "a", lax);
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 3u);
  // ts=5: {10}; ts=3 joins (1,5]: {10,20}; ts=12 evicts both: {30}.
  EXPECT_DOUBLE_EQ((*out)[0].value(0).random_var()->Mean(), 10.0);
  EXPECT_DOUBLE_EQ((*out)[1].value(0).random_var()->Mean(), 15.0);
  EXPECT_DOUBLE_EQ((*out)[2].value(0).random_var()->Mean(), 30.0);
}

TEST(TimeWindowBoundaryTest, HalfOpenIntervalAtExactDuplicates) {
  // Window is (t - duration, t]: the tuple exactly at t - duration is
  // excluded, and exact-duplicate timestamps all belong to the window.
  TimeWindowOptions opts;
  opts.duration = 10.0;
  std::vector<Tuple> tuples = {TsTuple(0, 100, 0), TsTuple(5, 10, 1),
                               TsTuple(5, 20, 2), TsTuple(10, 30, 3)};
  auto agg = TimeWindowAggregate::Make(Scan(tuples), "ts", "x", "a", opts);
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  // At the duplicate ts=5 both entries and ts=0 are in (-5, 5].
  EXPECT_DOUBLE_EQ((*out)[2].value(0).random_var()->Mean(), 130.0 / 3.0);
  // At ts=10 the boundary tuple ts=0 is excluded from (0, 10].
  EXPECT_DOUBLE_EQ((*out)[3].value(0).random_var()->Mean(), 20.0);
}

// ---------------------------------------------------------------------
// TimeWindowAggregate revision mode

// Folds a revision-mode output stream by window end, keeping the last
// value JSON per end — the downstream consumer contract.
std::map<double, std::string> FoldByWindowEnd(
    const std::vector<Tuple>& outputs) {
  std::map<double, std::string> fold;
  for (const Tuple& t : outputs) {
    fold[*t.value(1).double_value()] = serde::ToJson(t.value(0));
  }
  return fold;
}

TEST(TimeWindowRevisionTest, RevisionFoldMatchesInOrderDelivery) {
  const auto ordered = OrderedStream(20);
  const auto disordered = RotateBlocks(ordered, 3);

  TimeWindowOptions rev;
  rev.duration = 5.0;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 5.0;

  auto agg_a = TimeWindowAggregate::Make(Scan(ordered), "ts", "x", "a", rev);
  ASSERT_TRUE(agg_a.ok()) << agg_a.status().ToString();
  auto out_a = Collect(**agg_a);
  ASSERT_TRUE(out_a.ok());
  for (const Tuple& t : *out_a) {
    EXPECT_FALSE(*t.value(2).bool_value()) << "in-order run revised";
  }

  auto agg_b =
      TimeWindowAggregate::Make(Scan(disordered), "ts", "x", "a", rev);
  ASSERT_TRUE(agg_b.ok());
  auto out_b = Collect(**agg_b);
  ASSERT_TRUE(out_b.ok());
  EXPECT_EQ((*agg_b)->shed_late(), 0u);
  bool any_revision = false;
  for (const Tuple& t : *out_b) {
    any_revision = any_revision || *t.value(2).bool_value();
  }
  EXPECT_TRUE(any_revision) << "disorder produced no revisions";

  const auto fold_a = FoldByWindowEnd(*out_a);
  const auto fold_b = FoldByWindowEnd(*out_b);
  ASSERT_EQ(fold_a.size(), fold_b.size());
  for (const auto& [end, json] : fold_a) {
    auto it = fold_b.find(end);
    ASSERT_NE(it, fold_b.end()) << "window end " << end << " missing";
    EXPECT_EQ(it->second, json) << "window end " << end;
  }
}

TEST(TimeWindowRevisionTest, BeyondHorizonStragglerIsShed) {
  TimeWindowOptions rev;
  rev.duration = 2.0;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 3.0;
  // ts=1 arrives 9 behind the max timestamp: beyond the horizon.
  std::vector<Tuple> tuples = {TsTuple(0, 0, 0), TsTuple(10, 100, 1),
                               TsTuple(1, 10, 2)};
  auto agg = TimeWindowAggregate::Make(Scan(tuples), "ts", "x", "a", rev);
  ASSERT_TRUE(agg.ok());
  auto out = Collect(**agg);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // no revision for the shed straggler
  EXPECT_EQ((*agg)->shed_late(), 1u);
}

TEST(TimeWindowRevisionTest, RequiresSlidingSemanticsConfig) {
  TimeWindowOptions rev;
  rev.emit_revisions = true;
  rev.require_ordered = true;  // contradiction: revisions imply disorder
  EXPECT_FALSE(
      TimeWindowAggregate::Make(Scan({}), "ts", "x", "a", rev).ok());
  TimeWindowOptions bad_lateness;
  bad_lateness.require_ordered = false;
  bad_lateness.emit_revisions = true;
  bad_lateness.allowed_lateness = -1.0;
  EXPECT_FALSE(
      TimeWindowAggregate::Make(Scan({}), "ts", "x", "a", bad_lateness)
          .ok());
}

TEST(TimeWindowRevisionTest, CheckpointResumesMidRevision) {
  const auto disordered = RotateBlocks(OrderedStream(18), 3);
  TimeWindowOptions rev;
  rev.duration = 5.0;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 5.0;

  auto golden_agg =
      TimeWindowAggregate::Make(Scan(disordered), "ts", "x", "a", rev);
  ASSERT_TRUE(golden_agg.ok());
  auto golden = Collect(**golden_agg);
  ASSERT_TRUE(golden.ok());

  auto agg1 =
      TimeWindowAggregate::Make(Scan(disordered), "ts", "x", "a", rev);
  ASSERT_TRUE(agg1.ok());
  std::vector<Tuple> head;
  for (int i = 0; i < 7; ++i) {
    auto t = (*agg1)->Next();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->has_value());
    head.push_back(**t);
  }
  auto blob = (*agg1)->SaveCheckpoint();
  ASSERT_TRUE(blob.ok());

  const size_t consumed = (*agg1)->input_consumed();
  std::vector<Tuple> rest(disordered.begin() + consumed,
                          disordered.end());
  auto agg2 =
      TimeWindowAggregate::Make(Scan(std::move(rest)), "ts", "x", "a", rev);
  ASSERT_TRUE(agg2.ok());
  ASSERT_TRUE((*agg2)->RestoreCheckpoint(*blob).ok());
  auto tail = Collect(**agg2);
  ASSERT_TRUE(tail.ok());

  std::vector<Tuple> resumed = head;
  resumed.insert(resumed.end(), tail->begin(), tail->end());
  ASSERT_EQ(resumed.size(), golden->size());
  const Schema& schema = (*golden_agg)->schema();
  for (size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(serde::ToJson(resumed[i], schema),
              serde::ToJson((*golden)[i], schema))
        << "output " << i;
  }

  // A checkpoint from a differently configured aggregate is rejected.
  TimeWindowOptions other = rev;
  other.allowed_lateness = 7.0;
  auto agg3 = TimeWindowAggregate::Make(Scan({}), "ts", "x", "a", other);
  ASSERT_TRUE(agg3.ok());
  EXPECT_TRUE((*agg3)->RestoreCheckpoint(*blob).IsInvalidArgument());
}

// ---------------------------------------------------------------------
// TimeWindowAggregate: one core for strict, lax and revising windows

TEST(TimeWindowCoreTest, TiesFoldInSequenceOrderInEveryMode) {
  // Timestamp-ordered input whose tied tuples arrive against sequence
  // order. Summed in (timestamp, sequence) order the +-1e16 pair cancels
  // before 1.0 is added (mean 1/3); summed in arrival order 1.0 would be
  // absorbed into 1e16 (mean 0). Every mode must give the same bits.
  const std::vector<Tuple> tuples = {TsTuple(1, 1e16, 5), TsTuple(2, 1.0, 4),
                                     TsTuple(2, -1e16, 3)};
  TimeWindowOptions strict;
  strict.duration = 10.0;
  TimeWindowOptions lax = strict;
  lax.require_ordered = false;
  TimeWindowOptions revising = lax;
  revising.emit_revisions = true;
  revising.allowed_lateness = 5.0;

  std::vector<dist::RandomVar> at_end_2;
  for (const TimeWindowOptions& opts : {strict, lax, revising}) {
    auto agg = TimeWindowAggregate::Make(
        std::make_unique<PreservingScan>(TsSchema(), tuples), "ts", "x", "a",
        opts);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    auto out = Collect(**agg);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->size(), 3u);
    // The last output is the window ending at 2 holding all three tuples.
    at_end_2.push_back(*out->back().value(0).random_var());
  }
  EXPECT_EQ(at_end_2[0].Mean(), 1.0 / 3.0);
  for (const dist::RandomVar& rv : at_end_2) {
    EXPECT_EQ(std::bit_cast<uint64_t>(rv.Mean()),
              std::bit_cast<uint64_t>(at_end_2[0].Mean()));
    EXPECT_EQ(std::bit_cast<uint64_t>(rv.Variance()),
              std::bit_cast<uint64_t>(at_end_2[0].Variance()));
    EXPECT_EQ(rv.sample_size(), at_end_2[0].sample_size());
  }
}

TEST(TimeWindowCoreTest, BeyondHorizonUnsupportedValueFailsLoudly) {
  // A value the window cannot aggregate (non-Gaussian)
  // fails with NotImplemented in order; a straggler carrying it beyond
  // the lateness horizon must fail the same way, not vanish as shed.
  auto histogram = dist::HistogramDist::Make({0.0, 1.0, 2.0}, {0.5, 0.5});
  ASSERT_TRUE(histogram.ok());
  Tuple bad({expr::Value(1.0),
             expr::Value(dist::RandomVar(
                 std::make_shared<dist::HistogramDist>(*histogram), 10))});
  bad.set_sequence(2);
  TimeWindowOptions rev;
  rev.duration = 2.0;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 3.0;

  Tuple in_order = bad;
  in_order.values()[0] = expr::Value(20.0);
  for (const Tuple& last : {in_order, bad}) {
    // ts=1 arrives 9 behind the max timestamp: beyond the horizon.
    std::vector<Tuple> tuples = {TsTuple(0, 0, 0), TsTuple(10, 100, 1), last};
    auto agg = TimeWindowAggregate::Make(
        std::make_unique<PreservingScan>(TsSchema(), std::move(tuples)), "ts",
        "x", "a", rev);
    ASSERT_TRUE(agg.ok());
    auto out = Collect(**agg);
    EXPECT_TRUE(out.status().IsNotImplemented()) << out.status().ToString();
    EXPECT_EQ((*agg)->shed_late(), 0u);
  }
}

// ---------------------------------------------------------------------
// The disordered event-time source

TEST(SourceWatermarkTest, EventTimeSourceHasBoundedDisorder) {
  stream::EventTimeSourceOptions opts;
  opts.count = 64;
  opts.max_displacement = 3;
  auto source = stream::ReplayableEventTimeSource::Make(opts);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  auto out = Collect(**source);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 64u);
  bool any_disorder = false;
  for (size_t i = 0; i < out->size(); ++i) {
    const Tuple& t = (*out)[i];
    // Timestamp is monotone in sequence and displacement is bounded.
    EXPECT_DOUBLE_EQ(TsOf(t), static_cast<double>(t.sequence()));
    const double displacement =
        std::abs(static_cast<double>(i) -
                 static_cast<double>(t.sequence()));
    EXPECT_LE(displacement, 3.0) << "delivery position " << i;
    any_disorder = any_disorder || t.sequence() != i;
  }
  EXPECT_TRUE(any_disorder);

  // Replay from the start is bit-identical (same baked ordering).
  ASSERT_TRUE((*source)->SeekTo(0).ok());
  auto replay = Collect(**source);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->size(), out->size());
  const Schema& schema = (*source)->schema();
  for (size_t i = 0; i < out->size(); ++i) {
    EXPECT_EQ(serde::ToJson((*replay)[i], schema),
              serde::ToJson((*out)[i], schema));
    EXPECT_EQ((*replay)[i].sequence(), (*out)[i].sequence());
  }
}

// ---------------------------------------------------------------------
// AQL surface: WITHIN ... LATENESS ...

TEST(QueryEventTimeTest, ParsesWithinAndLateness) {
  auto q = query::Parse(
      "SELECT AVG(x) OVER (RANGE 10 ON ts WITHIN 5 LATENESS 20) AS a "
      "FROM s");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(q->window_agg.has_value());
  EXPECT_DOUBLE_EQ(q->window_agg->range_duration, 10.0);
  EXPECT_EQ(q->window_agg->range_column, "ts");
  EXPECT_DOUBLE_EQ(q->window_agg->within_bound, 5.0);
  EXPECT_DOUBLE_EQ(q->window_agg->lateness, 20.0);

  const std::string rendered = q->ToString();
  EXPECT_NE(rendered.find("WITHIN 5"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("LATENESS 20"), std::string::npos) << rendered;
  // The rendering reparses to the same spec.
  auto q2 = query::Parse(rendered);
  ASSERT_TRUE(q2.ok()) << rendered;
  EXPECT_DOUBLE_EQ(q2->window_agg->within_bound, 5.0);
  EXPECT_DOUBLE_EQ(q2->window_agg->lateness, 20.0);

  // Each clause is independently optional.
  auto only_within =
      query::Parse("SELECT AVG(x) OVER (RANGE 10 ON ts WITHIN 5) AS a "
                   "FROM s");
  ASSERT_TRUE(only_within.ok());
  EXPECT_DOUBLE_EQ(only_within->window_agg->lateness, 0.0);

  EXPECT_FALSE(query::Parse(
                   "SELECT AVG(x) OVER (RANGE 10 ON ts WITHIN 0) AS a "
                   "FROM s")
                   .ok());
  EXPECT_FALSE(query::Parse(
                   "SELECT AVG(x) OVER (RANGE 10 ON ts LATENESS 0) AS a "
                   "FROM s")
                   .ok());
}

TEST(QueryEventTimeTest, WithinClauseAbsorbsInBoundDisorder) {
  const auto ordered = OrderedStream(16);
  const auto disordered = RotateBlocks(ordered, 3);

  auto golden_plan = query::PlanQuery(
      "SELECT AVG(x) OVER (RANGE 4 ON ts) AS a FROM s", Scan(ordered));
  ASSERT_TRUE(golden_plan.ok()) << golden_plan.status().ToString();
  auto golden = Collect(**golden_plan);
  ASSERT_TRUE(golden.ok());

  auto plan = query::PlanQuery(
      "SELECT AVG(x) OVER (RANGE 4 ON ts WITHIN 3) AS a FROM s",
      Scan(disordered));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = Collect(**plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  ASSERT_EQ(out->size(), golden->size());
  const Schema& schema = (*golden_plan)->schema();
  for (size_t i = 0; i < out->size(); ++i) {
    EXPECT_EQ(serde::ToJson((*out)[i], schema),
              serde::ToJson((*golden)[i], schema))
        << "output " << i;
  }
}

TEST(QueryEventTimeTest, LatenessClauseRevisesStragglers) {
  const auto ordered = OrderedStream(16);
  const auto disordered = RotateBlocks(ordered, 3);
  const std::string sql =
      "SELECT AVG(x) OVER (RANGE 4 ON ts WITHIN 1 LATENESS 6) AS a "
      "FROM s";

  auto golden_plan = query::PlanQuery(sql, Scan(ordered));
  ASSERT_TRUE(golden_plan.ok()) << golden_plan.status().ToString();
  auto golden = Collect(**golden_plan);
  ASSERT_TRUE(golden.ok());

  auto plan = query::PlanQuery(sql, Scan(disordered));
  ASSERT_TRUE(plan.ok());
  auto out = Collect(**plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  // WITHIN 1 cannot absorb displacement 2, so stragglers reach the
  // window late and the LATENESS horizon revises them: the folds agree.
  bool any_revision = false;
  for (const Tuple& t : *out) {
    any_revision = any_revision || *t.value(2).bool_value();
  }
  EXPECT_TRUE(any_revision);
  const auto fold_golden = FoldByWindowEnd(*golden);
  const auto fold_out = FoldByWindowEnd(*out);
  ASSERT_EQ(fold_golden.size(), fold_out.size());
  for (const auto& [end, json] : fold_golden) {
    auto it = fold_out.find(end);
    ASSERT_NE(it, fold_out.end()) << "window end " << end;
    EXPECT_EQ(it->second, json) << "window end " << end;
  }
}

}  // namespace
}  // namespace ausdb
