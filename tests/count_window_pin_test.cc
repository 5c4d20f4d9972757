// Byte pins for count windows planned through PlanQuery: the IEEE bits of
// every output's mean, variance and d.f. sample size are folded into one
// FNV-1a digest per query and compared with a recorded constant, for
// tuple-at-a-time and batched pulls alike. The input mixes 1e12- and
// 1e-3-scale means (and 1e6- and 1e-7-scale variances), where the
// window's Neumaier-compensated running sums and plain-double sums part
// ways in the low bits within a few evictions, so any change to the
// window arithmetic moves a digest.

#include <bit>
#include <cstdint>
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

constexpr size_t kInputs = 4000;

Schema PinSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"k", FieldType::kString}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

// Deterministic mixed-magnitude Gaussians over three unevenly loaded keys.
std::vector<Tuple> PinInput() {
  std::vector<Tuple> tuples;
  tuples.reserve(kInputs);
  for (size_t i = 0; i < kInputs; ++i) {
    const double mean = i % 3 == 0 ? 1e12 * (1.0 + 0.125 * (i % 7))
                                   : 1e-3 * (1.0 + 0.37 * (i % 11));
    const double variance =
        i % 5 == 0 ? 1e6 * (1.0 + i % 4) : 1e-7 * (1.0 + i % 9);
    const size_t n = 5 + (7 * i) % 23;
    tuples.push_back(
        Tuple({expr::Value(std::string("k") + std::to_string((i % 7) % 3)),
               expr::Value(dist::RandomVar(
                   std::make_shared<dist::GaussianDist>(mean, variance),
                   n))}));
  }
  return tuples;
}

void Mix(uint64_t& h, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    h ^= (word >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

struct Pin {
  size_t rows = 0;
  uint64_t digest = 0xcbf29ce484222325ull;
};

// Plans `sql` over the pin input, drains it scalar or batched, and
// digests the aggregate column (and the group key, when there is one).
Pin RunPin(const std::string& sql, bool batched) {
  Pin pin;
  auto plan = query::PlanQuery(
      sql, std::make_unique<engine::VectorScan>(PinSchema(), PinInput()));
  EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  if (!plan.ok()) return pin;
  std::vector<Tuple> rows;
  const Status ran = engine::Run(**plan, {.batched = batched}, &rows).status();
  EXPECT_TRUE(ran.ok()) << sql << ": " << ran.ToString();
  const size_t agg_index = (*plan)->schema().num_fields() - 1;
  for (const Tuple& t : rows) {
    if (agg_index > 0) {
      const std::string key = *t.value(0).string_value();
      for (char c : key) Mix(pin.digest, static_cast<unsigned char>(c));
    }
    const dist::RandomVar rv = *t.value(agg_index).random_var();
    Mix(pin.digest, std::bit_cast<uint64_t>(rv.Mean()));
    Mix(pin.digest, std::bit_cast<uint64_t>(rv.Variance()));
    Mix(pin.digest, rv.sample_size());
  }
  pin.rows = rows.size();
  return pin;
}

void ExpectPinned(const std::string& sql, size_t rows, uint64_t digest) {
  for (const bool batched : {false, true}) {
    const Pin pin = RunPin(sql, batched);
    EXPECT_EQ(pin.rows, rows) << sql << (batched ? " batched" : " scalar");
    EXPECT_EQ(pin.digest, digest)
        << sql << (batched ? " batched" : " scalar") << ": digest 0x"
        << std::hex << pin.digest;
  }
}

TEST(CountWindowBytePinTest, SlidingMixedMagnitudes) {
  ExpectPinned("SELECT AVG(x) OVER (ROWS 100) FROM s", kInputs - 99,
               0x273df2f15552f9cbull);
}

TEST(CountWindowBytePinTest, Tumbling) {
  ExpectPinned("SELECT SUM(x) OVER (ROWS 100 TUMBLE) FROM s", kInputs / 100,
               0xb084292e5ac9b5d5ull);
}

TEST(CountWindowBytePinTest, GroupBy) {
  // Each of the three keys fills its window at its 50th input.
  ExpectPinned("SELECT AVG(x) OVER (ROWS 50) AS a FROM s GROUP BY k",
               kInputs - 3 * 49, 0x469e633b5f736254ull);
}

}  // namespace
}  // namespace ausdb
