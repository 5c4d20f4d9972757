// Event-time overhead bench: what does the bounded-lateness
// ReorderBuffer cost on top of a revising time-window pipeline, as a
// function of how disordered the stream actually is?
//
// For each disorder fraction in {0, 1%, 10%} the same seeded stream
// (ReplayableEventTimeSource -> DisorderInjector) is drained twice —
// once straight into the window, once through a ReorderBuffer sized to
// absorb the injected displacement — in back-to-back paired runs, so
// machine drift hits both arms of every pair.
//
// The acceptance bar is the 0%-disorder row: a reorder stage on an
// already-ordered stream must cost at most 5% throughput (every tuple
// is releasable as soon as the next one advances the watermark, so the
// buffer never grows past a handful of entries). Pass `--max-ratio=<r>`
// to move the bar; exits non-zero when it is exceeded, so CI gates on
// it. Results are also written to BENCH_eventtime.json (override the
// path with `--out=<path>`).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/engine/executor.h"
#include "src/engine/reorder_buffer.h"
#include "src/engine/time_window_aggregate.h"
#include "src/stream/disorder_injector.h"
#include "src/stream/sources.h"

using namespace ausdb;

namespace {

constexpr size_t kTuples = 60000;
constexpr size_t kPointsPerItem = 20;
constexpr double kWindowDuration = 1000.0;
constexpr size_t kMaxDisplacement = 16;
constexpr int kReps = 5;

/// Prepends a deterministic event-time column (ts = arrival index at
/// unit step) to a child stream, preserving sequence numbers — turns
/// the Section V-C learned-Gaussian stream into a timestamped one
/// without materializing it up front, so the per-tuple inference cost
/// stays inside the measured loop like in the figure benches.
class TsStamp final : public engine::Operator {
 public:
  explicit TsStamp(engine::OperatorPtr child) : child_(std::move(child)) {
    AUSDB_CHECK(
        schema_.AddField({"ts", engine::FieldType::kDouble}).ok());
    for (size_t i = 0; i < child_->schema().num_fields(); ++i) {
      AUSDB_CHECK(schema_.AddField(child_->schema().field(i)).ok());
    }
  }
  const engine::Schema& schema() const override { return schema_; }
  Result<std::optional<engine::Tuple>> Next() override {
    AUSDB_ASSIGN_OR_RETURN(std::optional<engine::Tuple> t,
                           child_->Next());
    if (!t.has_value()) return std::optional<engine::Tuple>(std::nullopt);
    std::vector<expr::Value> values;
    values.reserve(t->num_values() + 1);
    values.emplace_back(static_cast<double>(next_ts_));
    for (size_t i = 0; i < t->num_values(); ++i) {
      values.push_back(t->value(i));
    }
    engine::Tuple out(std::move(values));
    out.set_sequence(next_ts_);
    ++next_ts_;
    return std::optional<engine::Tuple>(std::move(out));
  }
  Status Reset() override {
    next_ts_ = 0;
    return child_->Reset();
  }
  Status Close() override { return child_->Close(); }

 private:
  engine::OperatorPtr child_;
  engine::Schema schema_;
  uint64_t next_ts_ = 0;
};

/// The event-time pipeline: the Section V-C learned-Gaussian stream
/// (distributions inferred lazily, kPointsPerItem draws per tuple),
/// timestamped, run through a seeded disorder injector shuffling
/// `disorder_fraction` of the tuples within kMaxDisplacement positions,
/// into a revising sliding time window. With `with_reorder` a
/// ReorderBuffer sized one past the displacement bound restores
/// event-time order in between.
engine::OperatorPtr MakePipeline(double disorder_fraction,
                                 bool with_reorder) {
  auto source = stream::MakeLearnedGaussianSource(
      "x", kTuples, kPointsPerItem, 10.0, 2.0, /*seed=*/71);
  engine::OperatorPtr plan =
      std::make_unique<TsStamp>(std::move(source));

  stream::DisorderSpec spec;
  spec.max_displacement = disorder_fraction > 0.0 ? kMaxDisplacement : 0;
  spec.shuffle_probability = disorder_fraction;
  spec.seed = 0xbe7c;
  plan = std::make_unique<stream::DisorderInjector>(std::move(plan), spec);

  if (with_reorder) {
    engine::ReorderBufferOptions ro;
    // Displacement <= kMaxDisplacement positions at time step 1 means
    // event-time lag <= kMaxDisplacement; IsLate is inclusive, so the
    // bound must strictly exceed it.
    ro.lateness_bound = static_cast<double>(kMaxDisplacement) + 1.0;
    auto rb = engine::ReorderBuffer::Make(std::move(plan), "ts", ro);
    AUSDB_CHECK(rb.ok()) << rb.status().ToString();
    plan = std::move(*rb);
  }

  engine::TimeWindowOptions two;
  two.duration = kWindowDuration;
  two.require_ordered = false;
  two.emit_revisions = true;
  two.allowed_lateness = 2.0 * kMaxDisplacement;
  auto agg = engine::TimeWindowAggregate::Make(std::move(plan), "ts", "x",
                                               "avg", two);
  AUSDB_CHECK(agg.ok()) << agg.status().ToString();
  return std::move(*agg);
}

/// Input tuples per second, not output: the two arms emit different
/// revision counts under disorder, so draining throughput would compare
/// unequal output volumes.
double MeasureInputTuplesPerSecond(engine::Operator& plan) {
  stream::ThroughputMeter meter;
  meter.Start();
  auto count = engine::Run(plan);
  AUSDB_CHECK(count.ok()) << count.status().ToString();
  meter.Count(kTuples);
  meter.Stop();
  return meter.TuplesPerSecond();
}

}  // namespace

int main(int argc, char** argv) {
  double max_ratio = 1.05;
  std::string out_path = "BENCH_eventtime.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-ratio=", 12) == 0) {
      max_ratio = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  bench::Banner("Event-time overhead",
                "ReorderBuffer cost by disorder fraction");
  bench::PrintRow({"disorder", "plain t/s", "reorder t/s", "ratio"}, 16);

  bench::JsonResultsWriter results("eventtime");
  double ordered_ratio = 1e9;
  for (double fraction : {0.0, 0.01, 0.10}) {
    // Paired back-to-back runs; the smallest per-pair ratio is the
    // honest overhead bound (same idiom as bench_obs_overhead).
    double plain_best = 0.0, reorder_best = 0.0, best_ratio = 1e9;
    for (int rep = 0; rep < kReps; ++rep) {
      auto plain_plan = MakePipeline(fraction, /*with_reorder=*/false);
      const double plain = MeasureInputTuplesPerSecond(*plain_plan);
      auto reorder_plan = MakePipeline(fraction, /*with_reorder=*/true);
      const double reorder = MeasureInputTuplesPerSecond(*reorder_plan);
      plain_best = std::max(plain_best, plain);
      reorder_best = std::max(reorder_best, reorder);
      best_ratio = std::min(best_ratio, plain / reorder);
    }
    if (fraction == 0.0) ordered_ratio = best_ratio;

    bench::PrintRow({bench::Fmt(fraction, 2), bench::FmtInt(plain_best),
                     bench::FmtInt(reorder_best),
                     bench::Fmt(best_ratio, 3)},
                    16);
    results.AddRow({{"disorder_fraction", fraction},
                    {"plain_tuples_per_sec", plain_best},
                    {"reorder_tuples_per_sec", reorder_best},
                    {"overhead_ratio", best_ratio}});
  }

  if (!results.WriteFile(out_path)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", out_path.c_str());
  std::printf("ordered-stream reorder overhead: %.2f%% (bar: %.2f%%)\n",
              (ordered_ratio - 1.0) * 100.0, (max_ratio - 1.0) * 100.0);

  if (ordered_ratio > max_ratio) {
    std::fprintf(stderr,
                 "FAIL: reorder overhead ratio %.3f at 0%% disorder "
                 "exceeds %.3f\n",
                 ordered_ratio, max_ratio);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
