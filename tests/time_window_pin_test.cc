// Byte pins for RANGE windows planned through PlanQuery: the IEEE bits of
// every output's mean, variance and d.f. sample size (and, for revising
// windows, its window end and revision flag) are folded into one FNV-1a
// digest per run and compared with a recorded constant, for
// tuple-at-a-time and batched pulls alike. The input mixes 1e12- and
// 1e-3-scale means (and 1e6- and 1e-7-scale variances) and ties every
// timestamp, so any change to the window arithmetic or to the window set
// an output covers moves a digest. Strict, lax and revising windows over
// the in-order input give one digest, and the by-window-end fold of a
// disordered revising run gives the fold of the in-order run.

#include <bit>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/query/planner.h"

namespace ausdb {
namespace {

using engine::FieldType;
using engine::Schema;
using engine::Tuple;

constexpr size_t kInputs = 3000;

Schema PinSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

// Event i at timestamp i / 2 (every timestamp tied), with deterministic
// mixed-magnitude Gaussian moments.
Tuple PinTuple(size_t i) {
  const double mean = i % 3 == 0 ? 1e12 * (1.0 + 0.125 * (i % 7))
                                 : 1e-3 * (1.0 + 0.37 * (i % 11));
  const double variance =
      i % 5 == 0 ? 1e6 * (1.0 + i % 4) : 1e-7 * (1.0 + i % 9);
  const size_t n = 5 + (7 * i) % 23;
  return Tuple({expr::Value(static_cast<double>(i / 2)),
                expr::Value(dist::RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, variance),
                    n))});
}

// In event order, or with the first four of every 24 events arriving 20
// places late: 10 timestamp units, past WITHIN 4 and inside LATENESS 16.
std::vector<Tuple> PinInput(bool disordered) {
  std::vector<Tuple> tuples;
  for (size_t a = 0; a < kInputs; ++a) {
    const size_t start = a / 24 * 24, k = a % 24;
    tuples.push_back(
        PinTuple(disordered ? start + (k < 20 ? k + 4 : k - 20) : a));
  }
  return tuples;
}

void Mix(uint64_t& h, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

void MixAggregate(uint64_t& h, const Tuple& t) {
  const dist::RandomVar rv = *t.value(0).random_var();
  Mix(h, std::bit_cast<uint64_t>(rv.Mean()));
  Mix(h, std::bit_cast<uint64_t>(rv.Variance()));
  Mix(h, rv.sample_size());
}

struct Pin {
  size_t rows = 0;
  /// The aggregate bits of every output.
  uint64_t aggregates = 0xcbf29ce484222325ull;
  /// Revising windows: the aggregates with each window end and revision
  /// flag.
  uint64_t stream = 0xcbf29ce484222325ull;
  /// Revising windows: the last output per window end, in window-end
  /// order.
  uint64_t fold = 0xcbf29ce484222325ull;
};

Pin RunPin(const std::string& sql, bool disordered, bool batched) {
  Pin pin;
  auto plan = query::PlanQuery(
      sql,
      std::make_unique<engine::VectorScan>(PinSchema(), PinInput(disordered)));
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return pin;
  std::vector<Tuple> rows;
  const Status ran = engine::Run(**plan, {.batched = batched}, &rows).status();
  EXPECT_TRUE(ran.ok()) << sql << ": " << ran.ToString();
  const bool revising = (*plan)->schema().num_fields() == 3;
  std::map<double, const Tuple*> last_by_end;
  for (const Tuple& t : rows) {
    MixAggregate(pin.aggregates, t);
    if (!revising) continue;
    const double end = *t.value(1).double_value();
    MixAggregate(pin.stream, t);
    Mix(pin.stream, std::bit_cast<uint64_t>(end));
    Mix(pin.stream, *t.value(2).bool_value() ? 1 : 0);
    last_by_end[end] = &t;
  }
  for (const auto& [end, t] : last_by_end) {
    Mix(pin.fold, std::bit_cast<uint64_t>(end));
    MixAggregate(pin.fold, *t);
  }
  pin.rows = rows.size();
  return pin;
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char kStrict[] = "SELECT AVG(x) OVER (RANGE 40 ON ts) AS a FROM s";
const char kLax[] = "SELECT AVG(x) OVER (RANGE 40 ON ts WITHIN 4) AS a FROM s";
const char kRevising[] =
    "SELECT AVG(x) OVER (RANGE 40 ON ts WITHIN 4 LATENESS 16) AS a FROM s";

// The aggregates of every in-order run (strict, lax and revising); the
// by-end fold of the revising runs, in order or not; the lax disordered
// aggregates; the revising disordered output stream.
constexpr uint64_t kInOrderDigest = 0x40ff8e1acb06804eull;
constexpr uint64_t kFoldDigest = 0x7aa1d252cf106a45ull;
constexpr uint64_t kLaxDisorderedDigest = 0xfd0d285fc9fa44faull;
constexpr uint64_t kRevisingDisorderedDigest = 0x6054eb13e36641a1ull;

// Runs `sql` scalar and batched; `check` compares each run's pins.
template <typename Check>
void ForBothPulls(const char* sql, bool disordered, Check check) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(std::string(sql) + (disordered ? " disordered" : " in order") +
                 (batched ? " batched" : " scalar"));
    check(RunPin(sql, disordered, batched));
  }
}

TEST(TimeWindowBytePinTest, InOrderRunsShareOneDigest) {
  for (const char* sql : {kStrict, kLax, kRevising}) {
    ForBothPulls(sql, false, [](const Pin& pin) {
      EXPECT_EQ(pin.rows, kInputs);
      EXPECT_EQ(Hex(pin.aggregates), Hex(kInOrderDigest));
    });
  }
}

TEST(TimeWindowBytePinTest, LaxDisordered) {
  ForBothPulls(kLax, true, [](const Pin& pin) {
    EXPECT_EQ(pin.rows, kInputs);
    EXPECT_EQ(Hex(pin.aggregates), Hex(kLaxDisorderedDigest));
  });
}

TEST(TimeWindowBytePinTest, RevisionFoldMatchesInOrderFold) {
  ForBothPulls(kRevising, false, [](const Pin& pin) {
    EXPECT_EQ(Hex(pin.fold), Hex(kFoldDigest));
  });
  ForBothPulls(kRevising, true, [](const Pin& pin) {
    EXPECT_GT(pin.rows, kInputs) << "disorder produced no revisions";
    EXPECT_EQ(Hex(pin.stream), Hex(kRevisingDisorderedDigest));
    EXPECT_EQ(Hex(pin.fold), Hex(kFoldDigest));
  });
}

}  // namespace
}  // namespace ausdb
