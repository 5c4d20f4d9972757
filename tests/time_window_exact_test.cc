// The RANGE window's running state against brute force. Every output of
// a planned AVG(x) OVER (RANGE ...) query, in strict, lax (WITHIN) and
// revising (LATENESS) modes, must carry the correctly rounded sums of
// its window set's means and variances (divided as AVG divides) and the
// minimum d.f. sample size of that set (Lemma 3), bit for bit. A model
// of the plan's event-time semantics gives each output's window set: the
// WITHIN reorder stage's delivery order, the window's lateness shedding
// and the entries delivered before the output's trigger. The drift runs
// push more than 1M evictions of alternating 1e12- and 1e-3-scale blocks
// through each mode, where plain-double running sums drift by orders of
// magnitude (see WindowDriftTest). A checkpoint taken at every input
// position of a disordered revising run must resume byte-identically.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/engine/scan.h"
#include "src/engine/time_window_aggregate.h"
#include "src/query/planner.h"
#include "src/serde/json_writer.h"
#include "tests/fsum_oracle.h"

namespace ausdb {
namespace {

using engine::FieldType;
using engine::Schema;
using engine::Tuple;

constexpr size_t kNoPosition = std::numeric_limits<size_t>::max();

struct Event {
  double ts;
  double mean;
  double variance;
  size_t n;
};

Schema EventSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

Tuple EventTuple(const Event& e) {
  return Tuple({expr::Value(e.ts),
                expr::Value(dist::RandomVar(
                    std::make_shared<dist::GaussianDist>(e.mean, e.variance),
                    e.n))});
}

// A scan over `events` in arrival order; StreamScan stamps each tuple's
// arrival index as its sequence.
std::unique_ptr<engine::StreamScan> EventScan(
    const std::vector<Event>& events) {
  auto next = std::make_shared<size_t>(0);
  return std::make_unique<engine::StreamScan>(
      EventSchema(), [&events, next]() -> Result<std::optional<Tuple>> {
        if (*next >= events.size()) return std::optional<Tuple>();
        return std::optional<Tuple>(EventTuple(events[(*next)++]));
      });
}

/// The aggregate a window output must carry.
struct Expected {
  double mean;
  double variance;
  size_t df;
};

/// Brute-force model of a planned RANGE window: which arrivals each
/// output's window set holds, and their exact aggregate.
class WindowOracle {
 public:
  WindowOracle(const std::vector<Event>& events, double range, double within,
               double lateness, bool avg = true)
      : events_(events),
        range_(range),
        avg_(avg),
        position_(events.size(), kNoPosition),
        shed_(events.size(), false) {
    const std::vector<size_t> order = DeliveryOrder(within);
    double max_ts = -std::numeric_limits<double>::infinity();
    for (size_t p = 0; p < order.size(); ++p) {
      const size_t a = order[p];
      const double ts = events[a].ts;
      position_[a] = p;
      shed_[a] = lateness > 0.0 && ts < max_ts && ts <= max_ts - lateness;
      if (!shed_[a]) max_ts = std::max(max_ts, ts);
      max_ts_.push_back(max_ts);
    }
    by_ts_.resize(events.size());
    for (size_t a = 0; a < events.size(); ++a) by_ts_[a] = a;
    std::stable_sort(by_ts_.begin(), by_ts_.end(), [&](size_t x, size_t y) {
      return events[x].ts < events[y].ts;
    });
    for (size_t a : by_ts_) sorted_ts_.push_back(events[a].ts);
  }

  /// The output triggered by `arrival` for the window ending at `end`
  /// (the current window when absent).
  Expected Aggregate(size_t arrival, std::optional<double> end) const {
    const size_t p = position_[arrival];
    const double w_end = end.value_or(max_ts_[p]);
    const double lower = w_end - range_;
    const auto first =
        std::upper_bound(sorted_ts_.begin(), sorted_ts_.end(), lower);
    const auto last = std::upper_bound(first, sorted_ts_.end(), w_end);
    means_.clear();
    variances_.clear();
    Expected e{0.0, 0.0, dist::RandomVar::kCertainSampleSize};
    for (auto it = first; it != last; ++it) {
      const size_t a = by_ts_[static_cast<size_t>(it - sorted_ts_.begin())];
      if (position_[a] > p || shed_[a]) continue;
      means_.push_back(events_[a].mean);
      variances_.push_back(events_[a].variance);
      e.df = std::min(e.df, events_[a].n);
    }
    e.mean = Fsum(means_, partials_);
    e.variance = Fsum(variances_, partials_);
    if (avg_ && !means_.empty()) {
      const double w = static_cast<double>(means_.size());
      e.mean /= w;
      e.variance /= w * w;
    }
    return e;
  }

 private:
  /// Arrival indices in the order the window receives them: as they
  /// arrive, or through a WITHIN reorder stage that holds each tuple
  /// until the max timestamp passes it by `within`, releases in
  /// (timestamp, sequence) order and passes tuples at or below that
  /// watermark straight through.
  std::vector<size_t> DeliveryOrder(double within) const {
    std::vector<size_t> order;
    if (within == 0.0) {
      for (size_t a = 0; a < events_.size(); ++a) order.push_back(a);
      return order;
    }
    std::set<std::pair<double, size_t>> held;
    double max_ts = -std::numeric_limits<double>::infinity();
    for (size_t a = 0; a < events_.size(); ++a) {
      const double ts = events_[a].ts;
      if (ts <= max_ts - within) {
        order.push_back(a);
        continue;
      }
      held.insert({ts, a});
      if (ts > max_ts) {
        max_ts = ts;
        while (!held.empty() && held.begin()->first <= max_ts - within) {
          order.push_back(held.begin()->second);
          held.erase(held.begin());
        }
      }
    }
    for (const auto& h : held) order.push_back(h.second);
    return order;
  }

  const std::vector<Event>& events_;
  double range_;
  bool avg_;
  std::vector<size_t> position_;
  std::vector<bool> shed_;
  std::vector<double> max_ts_;
  std::vector<size_t> by_ts_;  // arrival indices in timestamp order
  std::vector<double> sorted_ts_;  // their timestamps
  // Scratch for Aggregate, which runs once per output of a 1M-event run:
  // reused, so the oracle allocates nothing per output.
  mutable std::vector<double> means_, variances_, partials_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Plans `sql` over `events`, drains it tuple at a time and checks every
/// output against the oracle; returns the number of outputs.
size_t ExpectEveryOutputExact(const std::string& sql,
                              const std::vector<Event>& events,
                              const WindowOracle& oracle) {
  auto plan = query::PlanQuery(sql, EventScan(events));
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return 0;
  const bool revising = (*plan)->schema().num_fields() == 3;
  size_t outputs = 0, mismatches = 0;
  for (;;) {
    auto next = (*plan)->Next();
    EXPECT_TRUE(next.ok()) << sql << ": " << next.status().ToString();
    if (!next.ok() || !next->has_value()) break;
    const Tuple& t = **next;
    std::optional<double> end;
    if (revising) end = *t.value(1).double_value();
    const Expected want = oracle.Aggregate(t.sequence(), end);
    const dist::RandomVar rv = *t.value(0).random_var();
    if (Bits(rv.Mean()) != Bits(want.mean) ||
        Bits(rv.Variance()) != Bits(std::max(0.0, want.variance)) ||
        rv.sample_size() != want.df) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << sql << ": output " << outputs << " (trigger "
                      << t.sequence() << ") mean " << rv.Mean() << " want "
                      << want.mean << ", variance " << rv.Variance()
                      << " want " << want.variance << ", d.f. "
                      << rv.sample_size() << " want " << want.df;
      }
    }
    ++outputs;
  }
  EXPECT_EQ(mismatches, 0u) << sql << ": of " << outputs << " outputs";
  return outputs;
}

// ---------------------------------------------------------------------
// Drift: >1M evictions of mixed-magnitude blocks in every mode.

constexpr size_t kDriftEvents = 1000016;
constexpr size_t kBlock = 8;

// Blocks of kBlock alternate ~1e12- and ~1e-3-scale means (as in
// WindowDriftTest), and blocks of 5 ~1e6- and ~1e-7-scale variances,
// with a hash-modulated mantissa so no two values are equal.
Event DriftEvent(size_t i) {
  uint64_t h = i * 2654435761ULL;
  h ^= h >> 16;
  const double u = static_cast<double>(h % 1024) / 1024.0;
  return {static_cast<double>(i),
          ((i / kBlock) % 2 == 0) ? (1.0 + u) * 1e12 : (1.0 + u) * 1e-3,
          ((i / 5) % 2 == 0) ? (1.0 + u) * 1e6 : (1.0 + u) * 1e-7,
          5 + (7 * i) % 23};
}

// Event times 0..N-1 in order, or with the first three of every block of
// 12 arriving after the other nine.
std::vector<Event> DriftEvents(bool disordered) {
  std::vector<Event> events;
  events.reserve(kDriftEvents);
  for (size_t a = 0; a < kDriftEvents; ++a) {
    const size_t start = a / 12 * 12, k = a % 12;
    const bool rotate = disordered && start + 12 <= kDriftEvents;
    events.push_back(DriftEvent(rotate ? start + (k < 9 ? k + 3 : k - 9) : a));
  }
  return events;
}

TEST(TimeWindowDriftTest, StrictOutputsAreExactAfterMillionEvictions) {
  const std::vector<Event> events = DriftEvents(false);
  const WindowOracle oracle(events, 8.0, 0.0, 0.0);
  const size_t outputs = ExpectEveryOutputExact(
      "SELECT AVG(x) OVER (RANGE 8 ON ts) AS a FROM s", events, oracle);
  EXPECT_EQ(outputs, kDriftEvents);
  ASSERT_GE(kDriftEvents - 8, size_t{1000000}) << "need >= 1e6 evictions";
}

TEST(TimeWindowDriftTest, LaxOutputsAreExactAfterMillionEvictions) {
  // Displaced by 9 arrivals, a straggler passes the WITHIN 2 stage late;
  // the lax window folds it into the current window or drops it.
  const std::vector<Event> events = DriftEvents(true);
  const WindowOracle oracle(events, 8.0, 2.0, 0.0);
  const size_t outputs = ExpectEveryOutputExact(
      "SELECT AVG(x) OVER (RANGE 8 ON ts WITHIN 2) AS a FROM s", events,
      oracle);
  EXPECT_EQ(outputs, kDriftEvents);
}

TEST(TimeWindowDriftTest, RevisingOutputsAreExactAfterMillionEvictions) {
  const std::vector<Event> events = DriftEvents(true);
  const WindowOracle oracle(events, 8.0, 0.0, 16.0);
  const size_t outputs = ExpectEveryOutputExact(
      "SELECT AVG(x) OVER (RANGE 8 ON ts LATENESS 16) AS a FROM s", events,
      oracle);
  EXPECT_GT(outputs, kDriftEvents) << "disorder produced no revisions";
}

// ---------------------------------------------------------------------
// Lemma 3: the window-minimum d.f. leaves, and stragglers revise it.

std::vector<Event> Lemma3Events() {
  // Window (W - 5, W]. The minimum d.f. (4, at t=1) leaves at W = 6; a
  // tie at the next minimum (9, at t=3 and t=7) keeps 9 after t=3
  // leaves; the straggler at t=5.5 with d.f. 2 arrives after t=10 and
  // revises windows 5.5 through 10; a later straggler with a large d.f.
  // revises without moving the minimum; one beyond the lateness horizon
  // is shed.
  std::vector<Event> events;
  const std::vector<std::pair<double, size_t>> arrivals = {
      {0, 30}, {1, 4},  {2, 20},   {3, 9},  {4, 22}, {5, 28},  {6, 26},
      {7, 9},  {8, 24}, {9, 27},   {10, 25}, {5.5, 2}, {11, 21}, {12, 23},
      {9.5, 40}, {13, 29}, {14, 31}, {15, 33}, {1.5, 1}, {16, 35},
      {17, 36}, {18, 37}};
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const auto& [ts, n] = arrivals[i];
    events.push_back({ts, 10.0 * ts + 0.1 * static_cast<double>(i),
                      0.5 + 0.25 * static_cast<double>(i % 3), n});
  }
  return events;
}

TEST(TimeWindowLemma3Test, EveryOutputCarriesItsWindowMinimumDf) {
  const std::vector<Event> events = Lemma3Events();
  const WindowOracle revising(events, 5.0, 0.0, 8.0);
  const size_t outputs = ExpectEveryOutputExact(
      "SELECT AVG(x) OVER (RANGE 5 ON ts LATENESS 8) AS a FROM s", events,
      revising);
  EXPECT_GT(outputs, events.size());
  const WindowOracle lax(events, 5.0, 1.0, 0.0, /*avg=*/false);
  ExpectEveryOutputExact(
      "SELECT SUM(x) OVER (RANGE 5 ON ts WITHIN 1) AS a FROM s", events, lax);

  std::vector<Event> ordered = events;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });
  const WindowOracle strict(ordered, 5.0, 0.0, 0.0);
  ExpectEveryOutputExact("SELECT AVG(x) OVER (RANGE 5 ON ts) AS a FROM s",
                         ordered, strict);
}

TEST(TimeWindowLemma3Test, StragglerRevisionsCarryItsSmallerDf) {
  const std::vector<Event> events = Lemma3Events();
  auto plan = query::PlanQuery(
      "SELECT AVG(x) OVER (RANGE 5 ON ts LATENESS 8) AS a FROM s",
      EventScan(events));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::vector<double> revised_ends;
  for (;;) {
    auto next = (*plan)->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    const Tuple& t = **next;
    if (t.sequence() == 11) {  // the t=5.5 straggler, d.f. 2
      EXPECT_TRUE(*t.value(2).bool_value());
      EXPECT_EQ(t.value(0).random_var()->sample_size(), 2u);
      revised_ends.push_back(*t.value(1).double_value());
    }
  }
  EXPECT_EQ(revised_ends,
            (std::vector<double>{5.5, 6, 7, 8, 9, 10}));
}

// ---------------------------------------------------------------------
// Checkpoint resume at every input position of a disordered revising run.

// Replays its tuples with the sequences already set, so a resumed run
// sees the identities the uninterrupted one saw.
class SequencedScan final : public engine::Operator {
 public:
  explicit SequencedScan(std::vector<Tuple> tuples)
      : schema_(EventSchema()), tuples_(std::move(tuples)) {}
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

std::string Render(const Tuple& t, const Schema& schema) {
  return std::to_string(t.sequence()) + " " + serde::ToJson(t, schema);
}

TEST(TimeWindowCheckpointSweepTest, ResumesAtEveryInputPosition) {
  // Mixed magnitudes, timestamp ties and stragglers up to 5 behind,
  // inside the lateness horizon of 6, so every input emits.
  std::vector<Tuple> input;
  for (size_t a = 0; a < 160; ++a) {
    const size_t start = a / 8 * 8, k = a % 8;
    const size_t e = start + 8 <= 160 ? start + (k < 5 ? k + 3 : k - 5) : a;
    const Event ev = DriftEvent(e);
    Tuple t = EventTuple({0.5 * static_cast<double>(e / 2 * 2), ev.mean,
                          ev.variance, ev.n});
    t.set_sequence(a);
    input.push_back(std::move(t));
  }
  engine::TimeWindowOptions rev;
  rev.duration = 6.0;
  rev.require_ordered = false;
  rev.emit_revisions = true;
  rev.allowed_lateness = 6.0;
  const auto make = [&](std::vector<Tuple> tuples) {
    auto agg = engine::TimeWindowAggregate::Make(
        std::make_unique<SequencedScan>(std::move(tuples)), "ts", "x", "a",
        rev);
    EXPECT_TRUE(agg.ok()) << agg.status().ToString();
    return std::move(*agg);
  };

  auto golden_agg = make(input);
  const Schema schema = golden_agg->schema();
  std::vector<std::string> golden;
  for (;;) {
    auto t = golden_agg->Next();
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    if (!t->has_value()) break;
    golden.push_back(Render(**t, schema));
  }
  EXPECT_EQ(golden_agg->shed_late(), 0u);
  ASSERT_GT(golden.size(), input.size()) << "no revisions";

  std::set<uint64_t> positions;
  for (size_t head = 0; head <= golden.size(); ++head) {
    auto first = make(input);
    std::vector<std::string> resumed;
    for (size_t i = 0; i < head; ++i) {
      auto t = first->Next();
      ASSERT_TRUE(t.ok() && t->has_value());
      resumed.push_back(Render(**t, schema));
    }
    auto blob = first->SaveCheckpoint();
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    const uint64_t consumed = first->input_consumed();
    positions.insert(consumed);
    auto second = make(std::vector<Tuple>(input.begin() + consumed,
                                          input.end()));
    ASSERT_TRUE(second->RestoreCheckpoint(*blob).ok());
    for (;;) {
      auto t = second->Next();
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      if (!t->has_value()) break;
      resumed.push_back(Render(**t, schema));
    }
    ASSERT_EQ(resumed, golden) << "checkpoint after " << head << " outputs";
  }
  // Every input position was a checkpoint site.
  EXPECT_EQ(positions.size(), input.size() + 1);
}

}  // namespace
}  // namespace ausdb
