// Regression tests for the evict-subtract drift bug: sliding-window
// running sums kept as plain doubles drift on long streams whose values
// mix magnitudes (a value absorbed into a large running sum at push time
// is subtracted at a different accumulator magnitude at evict time, so
// the rounding no longer cancels). The fix keeps the sums
// Neumaier-compensated; these tests drive >1e6 evictions of adversarial
// alternating ~1e12 / ~1e-3 blocks through the real operators and
// compare the final emission against a fresh recompute of the window.

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/dist/learner.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/serde/checkpoint.h"

namespace ausdb {
namespace engine {
namespace {

constexpr size_t kWindow = 8;

// Blocks of kWindow values alternate between ~1e12 and ~1e-3 scale, with
// a hash-modulated mantissa so no two values are equal. While a mixed
// window holds ~8e12, pushed 1e-3-scale values are rounded away; by the
// time they are evicted the large block has left and the accumulator
// magnitude differs, so the subtraction reintroduces the rounding error
// instead of cancelling it. The worst naive relative error on this
// sequence is ~9 (measured); the compensated sums stay below 1e-12.
double AdversarialValue(size_t i) {
  uint64_t h = i * 2654435761ULL;
  h ^= h >> 16;
  const double u = static_cast<double>(h % 1024) / 1024.0;
  return ((i / kWindow) % 2 == 0) ? (1.0 + u) * 1e12 : (1.0 + u) * 1e-3;
}

// Fresh Neumaier recompute of sum(values[begin..end)) — the ground truth
// an unbounded-drift accumulator is compared against.
double FreshSum(size_t begin, size_t end,
                const std::function<double(size_t)>& value) {
  KahanSum s;
  for (size_t i = begin; i < end; ++i) s.Add(value(i));
  return s.Get();
}

Schema DoubleSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"x", FieldType::kDouble}).ok());
  return s;
}

// The sequence length is chosen so the final window lies entirely in a
// small-magnitude block (where any retained large-block residue is
// catastrophic relative to the true sum).
constexpr size_t kStreamLength = 1000016;

TEST(WindowDriftTest, SlidingSumMatchesFreshRecomputeAfterMillionEvictions) {
  size_t produced = 0;
  StreamScan scan(DoubleSchema(), [&]() -> Result<std::optional<Tuple>> {
    if (produced >= kStreamLength) return std::optional<Tuple>();
    return std::optional<Tuple>(
        Tuple({expr::Value(AdversarialValue(produced++))}));
  });

  WindowAggregateOptions opts;
  opts.window_size = kWindow;
  opts.fn = WindowAggFn::kSum;
  auto agg = WindowAggregate::Make(
      std::make_unique<StreamScan>(std::move(scan)), "x", "sum", opts);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();

  std::optional<Tuple> last;
  size_t emissions = 0;
  while (true) {
    auto next = (*agg)->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    last = std::move(**next);
    ++emissions;
  }
  ASSERT_EQ(emissions, kStreamLength - kWindow + 1);
  ASSERT_GE(emissions - 1, size_t{1000000}) << "need >= 1e6 evictions";

  const double expected =
      FreshSum(kStreamLength - kWindow, kStreamLength, AdversarialValue);
  const double got = (*last->value(0).random_var()).Mean();
  EXPECT_LT(std::abs(got - expected) / expected, 1e-9)
      << "got " << got << " expected " << expected;
}

TEST(WindowDriftTest, PartitionedSumMatchesFreshRecomputePerKey) {
  // Two interleaved keys, each fed the full adversarial sequence; >1e6
  // evictions in total across the partitions.
  constexpr size_t kPerKey = 500016;
  Schema schema;
  ASSERT_TRUE(schema.AddField({"k", FieldType::kString}).ok());
  ASSERT_TRUE(schema.AddField({"x", FieldType::kDouble}).ok());

  size_t produced = 0;
  StreamScan scan(schema, [&]() -> Result<std::optional<Tuple>> {
    if (produced >= 2 * kPerKey) return std::optional<Tuple>();
    const std::string key = (produced % 2 == 0) ? "even" : "odd";
    const double v = AdversarialValue(produced / 2);
    ++produced;
    return std::optional<Tuple>(Tuple({expr::Value(key), expr::Value(v)}));
  });

  WindowAggregateOptions opts;
  opts.window_size = kWindow;
  opts.fn = WindowAggFn::kSum;
  auto agg = WindowAggregate::Make(
      std::make_unique<StreamScan>(std::move(scan)), "x", "sum", opts, "k");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();

  double last_even = 0.0, last_odd = 0.0;
  size_t emissions = 0;
  while (true) {
    auto next = (*agg)->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next->has_value()) break;
    const Tuple& t = **next;
    const double mean = (*t.value(1).random_var()).Mean();
    if (*t.value(0).string_value() == "even") last_even = mean;
    else last_odd = mean;
    ++emissions;
  }
  ASSERT_GE(emissions, 2 * (kPerKey - kWindow + 1));

  // Both keys saw the identical per-key sequence.
  const double expected = FreshSum(kPerKey - kWindow, kPerKey,
                                   AdversarialValue);
  EXPECT_LT(std::abs(last_even - expected) / expected, 1e-9);
  EXPECT_LT(std::abs(last_odd - expected) / expected, 1e-9);
}

TEST(WindowDriftTest, NaiveEvictSubtractFailsOnThisSequence) {
  // Documents that the sequence above discriminates: the pre-fix plain
  // double evict-subtract accumulator ends orders of magnitude off while
  // the compensated sum tracks the fresh recompute. If this stops
  // failing for the naive sum, the regression tests above have lost
  // their teeth and the sequence needs re-calibration.
  double naive = 0.0;
  KahanSum kahan;
  std::vector<double> window;
  double worst_naive = 0.0, worst_kahan = 0.0;
  for (size_t i = 0; i < kStreamLength; ++i) {
    const double v = AdversarialValue(i);
    window.push_back(v);
    naive += v;
    kahan.Add(v);
    if (window.size() > kWindow) {
      naive -= window.front();
      kahan.Subtract(window.front());
      window.erase(window.begin());
    }
    // Compare on all-small windows, where drift is relatively largest.
    if (window.size() == kWindow && (i / kWindow) % 2 == 1 &&
        i % kWindow == kWindow - 1) {
      const double exact = FreshSum(i + 1 - kWindow, i + 1,
                                    AdversarialValue);
      worst_naive =
          std::max(worst_naive, std::abs(naive - exact) / exact);
      worst_kahan =
          std::max(worst_kahan, std::abs(kahan.Get() - exact) / exact);
    }
  }
  EXPECT_GT(worst_naive, 1e-2);   // measured ~9 — unambiguous failure
  EXPECT_LT(worst_kahan, 1e-9);   // measured ~3e-13
}

TEST(WindowDriftTest, RejectsUnknownCheckpointVersion) {
  // wagg.v7 is the one checkpoint format; retired versions of the window
  // operators (wagg.v6 carried revision-mode bookkeeping) and unknown
  // ones are all refused as corrupt.
  Schema keyed;
  ASSERT_TRUE(keyed.AddField({"k", FieldType::kString}).ok());
  ASSERT_TRUE(keyed.AddField({"x", FieldType::kDouble}).ok());
  for (const char* version :
       {"wagg.v99", "wagg.v6", "wagg.v5", "wagg.v4", "wagg.v1", "pwagg.v4",
        "spwagg.v2"}) {
    serde::CheckpointWriter w;
    w.Token(version);
    const std::string blob = std::move(w).Finish();
    auto agg = WindowAggregate::Make(
        std::make_unique<VectorScan>(DoubleSchema(), std::vector<Tuple>{}),
        "x", "sum", {});
    ASSERT_TRUE(agg.ok());
    EXPECT_TRUE((*agg)->RestoreCheckpoint(blob).IsCorruption()) << version;
    auto grouped = WindowAggregate::Make(
        std::make_unique<VectorScan>(keyed, std::vector<Tuple>{}), "x",
        "sum", {}, "k");
    ASSERT_TRUE(grouped.ok());
    EXPECT_TRUE((*grouped)->RestoreCheckpoint(blob).IsCorruption())
        << version;
  }
}

}  // namespace
}  // namespace engine
}  // namespace ausdb
