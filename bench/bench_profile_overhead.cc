// Observability overhead gate: a pipeline wrapped stage-by-stage in
// ProfiledOperator must cost at most 5% throughput over the same
// pipeline unwrapped, in two configurations:
//  - "profile on": pull-count counters only, no clock — what EXPLAIN
//    ANALYZE always pays;
//  - "profile mirrored": every stage profiled, the profile mirrored into
//    a MetricRegistry, and SteadyClock latency sampling — full
//    instrumentation.
// The promise is that "run it under EXPLAIN ANALYZE" or "turn metrics
// on" is cheap enough to be the default, not a special occasion, and
// that a disabled profile costs nothing at all (Profile(nullptr)
// returns the child unchanged).
//
// Run with no arguments for the default 1.05x bar; `--max-ratio=<r>`
// moves it, `--out=<path>` moves the JSON results file
// (BENCH_profile.json by default). Exits non-zero when either
// configuration's ratio exceeds the bar, so CI can gate on it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "bench/figure_common.h"
#include "src/engine/executor.h"
#include "src/engine/pipeline_profiler.h"
#include "src/engine/window_aggregate.h"
#include "src/obs/metrics.h"
#include "src/stream/sources.h"

using namespace ausdb;

namespace {

constexpr size_t kTuples = 150000;
constexpr size_t kPointsPerItem = 20;
constexpr size_t kWindow = 1000;
constexpr int kReps = 5;

/// The Section V-C synthetic stream through a sliding-window AVG, with
/// a profiler slot around both stages when `profile` is non-null. This
/// is the same pipeline shape the figure benches drain, so the ratio
/// reflects a realistic data path.
engine::OperatorPtr MakePipeline(engine::PipelineProfile* profile,
                                 const obs::Clock* clock) {
  auto source = stream::MakeLearnedGaussianSource(
      "x", kTuples, kPointsPerItem, 10.0, 2.0, /*seed=*/53);
  auto agg = engine::WindowAggregate::Make(
      engine::Profile(std::move(source), "source", profile, clock), "x",
      "avg_x", {.window_size = kWindow});
  AUSDB_CHECK(agg.ok()) << agg.status().ToString();
  return engine::Profile(std::move(*agg), "window", profile, clock);
}

uint64_t MirroredTuples(const obs::MetricRegistry& registry,
                        const std::string& op) {
  for (const auto& c : registry.Snapshot().counters) {
    if (c.key.name != "ausdb_engine_tuples_total") continue;
    for (const auto& l : c.key.labels) {
      if (l.value == op) return c.value;
    }
  }
  return 0;
}

/// The profiled run must actually have profiled: every input tuple
/// through the source slot, every window result through the window
/// slot — in the profile and, when mirrored, in the registry — and wall
/// time sampled exactly when a clock was injected.
void CheckProfile(const engine::PipelineProfile& profile,
                  const obs::MetricRegistry* mirror) {
  constexpr uint64_t kWindowTuples = kTuples - kWindow + 1;
  AUSDB_CHECK(profile.operators().size() == 2);
  const engine::OperatorProfile& src = profile.operators()[0];
  const engine::OperatorProfile& win = profile.operators()[1];
  AUSDB_CHECK(src.name == "source" && src.tuples == kTuples)
      << "source slot recorded " << src.tuples << " tuples";
  AUSDB_CHECK(win.name == "window" && win.tuples == kWindowTuples)
      << "window slot recorded " << win.tuples << " tuples";
  if (mirror == nullptr) {
    AUSDB_CHECK(src.latency_samples == 0 && win.latency_samples == 0)
        << "clock-free profiling must not sample wall time";
    return;
  }
  AUSDB_CHECK(MirroredTuples(*mirror, "source") == kTuples)
      << "mirror recorded " << MirroredTuples(*mirror, "source")
      << " source tuples";
  AUSDB_CHECK(MirroredTuples(*mirror, "window") == kWindowTuples)
      << "mirror recorded " << MirroredTuples(*mirror, "window")
      << " window tuples";
  AUSDB_CHECK(src.latency_samples > 0 && win.latency_samples > 0)
      << "clocked profiling must sample wall time";
}

}  // namespace

int main(int argc, char** argv) {
  double max_ratio = 1.05;
  std::string out_path = "BENCH_profile.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-ratio=", 12) == 0) {
      max_ratio = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  bench::Banner("EXPLAIN ANALYZE overhead",
                "profiled vs unprofiled throughput");
  bench::JsonResultsWriter results("profile_overhead");

  // Back-to-back paired runs: machine drift hits both sides of each
  // pair, and the smallest per-pair ratio is the honest overhead bound.
  // Each rep pairs one unprofiled run with each profiled configuration.
  double off_best = 0.0, on_best = 0.0, mirrored_best = 0.0;
  double on_ratio = 1e9, mirrored_ratio = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    auto off_plan = MakePipeline(nullptr, nullptr);
    const double off = bench::MeasureTuplesPerSecond(*off_plan);

    engine::PipelineProfile profile;
    auto on_plan = MakePipeline(&profile, nullptr);
    const double on = bench::MeasureTuplesPerSecond(*on_plan);
    CheckProfile(profile, nullptr);

    obs::MetricRegistry registry;
    engine::PipelineProfile mirrored_profile(&registry);
    auto mirrored_plan =
        MakePipeline(&mirrored_profile, obs::SteadyClock::Instance());
    const double mirrored = bench::MeasureTuplesPerSecond(*mirrored_plan);
    CheckProfile(mirrored_profile, &registry);

    off_best = std::max(off_best, off);
    on_best = std::max(on_best, on);
    mirrored_best = std::max(mirrored_best, mirrored);
    on_ratio = std::min(on_ratio, off / on);
    mirrored_ratio = std::min(mirrored_ratio, off / mirrored);
  }

  bench::PrintRow({"configuration", "tuples/s", "ratio"}, 20);
  bench::PrintRow({"profile off", bench::FmtInt(off_best), "1.000"}, 20);
  bench::PrintRow({"profile on", bench::FmtInt(on_best),
                   bench::Fmt(on_ratio, 3)}, 20);
  bench::PrintRow({"profile mirrored", bench::FmtInt(mirrored_best),
                   bench::Fmt(mirrored_ratio, 3)}, 20);
  std::printf("profiling overhead: %.2f%%, mirrored: %.2f%% (bar: %.2f%%)\n",
              (on_ratio - 1.0) * 100.0, (mirrored_ratio - 1.0) * 100.0,
              (max_ratio - 1.0) * 100.0);

  // `mirrored` 0: counters only; 1: registry mirror plus SteadyClock.
  results.AddRow({{"tuples", static_cast<double>(kTuples)},
                  {"mirrored", 0.0},
                  {"profile_off_tps", off_best},
                  {"profile_on_tps", on_best},
                  {"overhead_ratio", on_ratio},
                  {"max_ratio", max_ratio}});
  results.AddRow({{"tuples", static_cast<double>(kTuples)},
                  {"mirrored", 1.0},
                  {"profile_off_tps", off_best},
                  {"profile_on_tps", mirrored_best},
                  {"overhead_ratio", mirrored_ratio},
                  {"max_ratio", max_ratio}});
  if (!results.WriteFile(out_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", out_path.c_str());

  if (std::max(on_ratio, mirrored_ratio) > max_ratio) {
    std::fprintf(stderr,
                 "FAIL: profiled-on/off ratio %.3f (mirrored %.3f) exceeds "
                 "%.3f\n",
                 on_ratio, mirrored_ratio, max_ratio);
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
