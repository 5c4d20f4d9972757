// Overload-governor acceptance bench, CI-gated on two promises:
//
//  1. An idle governor is (nearly) free: a GovernorGate ticking epochs
//     over a calm signal script costs at most 5% throughput against the
//     same pipeline with no gate at all.
//  2. Above the accuracy floor the governor sheds precision, never
//     data: a scripted saturation burst must escalate the ladder and
//     deliver every admitted tuple, with admission-control
//     refusals absorbed by the supervising retry layer.
//
// Run with no arguments for the default 1.05x bar, or pass
// `--max-ratio=<r>` to move it. Results are also written to
// BENCH_overload.json (override with --out=<path>). Exits non-zero when
// either gate fails, so CI can gate on it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/figure_common.h"
#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/reorder_buffer.h"
#include "src/engine/scan.h"
#include "src/engine/window_aggregate.h"
#include "src/govern/governor_gate.h"
#include "src/govern/overload_injector.h"
#include "src/stream/sources.h"
#include "src/stream/supervised_source.h"

using namespace ausdb;

namespace {

constexpr size_t kTuples = 150000;
constexpr size_t kPointsPerItem = 20;
constexpr size_t kWindow = 1000;
constexpr int kReps = 5;

constexpr size_t kGovernedTuples = 20000;

/// The Section V-C synthetic stream through a sliding-window AVG — the
/// same shape the figure benches drain — optionally with a GovernorGate
/// over the source ticking epochs against a calm script.
engine::OperatorPtr MakeOverheadPipeline(bool gated) {
  engine::OperatorPtr source = stream::MakeLearnedGaussianSource(
      "x", kTuples, kPointsPerItem, 10.0, 2.0, /*seed=*/53);
  if (gated) {
    auto gate = govern::GovernorGate::Make(
        std::move(source),
        std::make_unique<govern::OverloadInjector>(
            govern::OverloadInjector::CalmScript(4)),
        govern::GovernorOptions{});
    AUSDB_CHECK(gate.ok()) << gate.status().ToString();
    source = std::move(*gate);
  }
  auto agg = engine::WindowAggregate::Make(std::move(source), "x", "avg_x",
                                           {.window_size = kWindow});
  AUSDB_CHECK(agg.ok()) << agg.status().ToString();
  return std::move(*agg);
}

engine::Schema TsSchema() {
  engine::Schema s;
  AUSDB_CHECK(s.AddField({"ts", engine::FieldType::kDouble}).ok());
  AUSDB_CHECK(s.AddField({"x", engine::FieldType::kUncertain}).ok());
  return s;
}

std::vector<engine::Tuple> TsStream(size_t count) {
  std::vector<engine::Tuple> tuples;
  tuples.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    tuples.push_back(engine::Tuple(
        {expr::Value(static_cast<double>(i)),
         expr::Value(dist::RandomVar(
             std::make_shared<dist::GaussianDist>(10.0 * i, 1.0), 50))}));
  }
  // Bounded disorder so the governed reorder horizon has work to do.
  for (size_t start = 0; start + 3 <= tuples.size(); start += 3) {
    std::rotate(tuples.begin() + start, tuples.begin() + start + 1,
                tuples.begin() + start + 3);
  }
  return tuples;
}

}  // namespace

int main(int argc, char** argv) {
  double max_ratio = 1.05;
  std::string out_path = "BENCH_overload.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--max-ratio=", 12) == 0) {
      max_ratio = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  bench::Banner("Overload governor",
                "idle overhead and precision-not-data shedding");
  bench::JsonResultsWriter results("overload");

  // -- Gate 1: governor-idle overhead ---------------------------------
  // Back-to-back paired runs: machine drift hits both sides of each
  // pair, and the smallest per-pair ratio is the honest overhead bound.
  double bare_best = 0.0, gated_best = 0.0, best_ratio = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    auto bare = MakeOverheadPipeline(/*gated=*/false);
    const double off = bench::MeasureTuplesPerSecond(*bare);
    auto gated = MakeOverheadPipeline(/*gated=*/true);
    const double on = bench::MeasureTuplesPerSecond(*gated);
    bare_best = std::max(bare_best, off);
    gated_best = std::max(gated_best, on);
    best_ratio = std::min(best_ratio, off / on);
  }

  bench::PrintRow({"configuration", "tuples/s", "ratio"}, 20);
  bench::PrintRow({"no gate", bench::FmtInt(bare_best), "1.000"}, 20);
  bench::PrintRow(
      {"idle gate", bench::FmtInt(gated_best), bench::Fmt(best_ratio, 3)},
      20);
  std::printf("governor-idle overhead: %.2f%% (bar: %.2f%%)\n",
              (best_ratio - 1.0) * 100.0, (max_ratio - 1.0) * 100.0);
  results.AddRow({{"bare_tps", bare_best},
                  {"gated_tps", gated_best},
                  {"idle_ratio", best_ratio}});

  // -- Gate 2: saturation sheds precision, never data -----------------
  // A saturation burst inside a calm stream. The gate escalates to the
  // deepest floor-permitted rung, refuses admission while pinned past
  // it (absorbed by the supervising retry layer), and every admitted
  // tuple still comes out of the governed reorder stage.
  govern::GovernorOptions gopts;
  gopts.epoch_interval = 64;
  gopts.ladder.dwell_epochs = 1;
  auto ladder = std::make_shared<const govern::LadderPolicy>(gopts.ladder);
  std::vector<govern::OverloadPhase> script;
  for (const auto& phase : govern::OverloadInjector::CalmScript(8)) {
    script.push_back(phase);
  }
  for (const auto& phase :
       govern::OverloadInjector::SaturationScript(40)) {
    script.push_back(phase);
  }
  for (const auto& phase : govern::OverloadInjector::CalmScript(8)) {
    script.push_back(phase);
  }
  auto gate = govern::GovernorGate::Make(
      std::make_unique<engine::VectorScan>(TsSchema(),
                                           TsStream(kGovernedTuples)),
      std::make_unique<govern::OverloadInjector>(std::move(script)), gopts);
  AUSDB_CHECK(gate.ok()) << gate.status().ToString();
  const govern::GovernorGate* gate_view = gate->get();

  stream::SupervisedScanOptions sopts;
  sopts.retry.max_attempts = 100000;
  sopts.retry.initial_backoff_seconds = 0.0;
  sopts.retry.jitter_fraction = 0.0;
  auto supervised = std::make_unique<stream::SupervisedScan>(
      std::move(*gate), sopts);
  const stream::SupervisedScan* supervised_view = supervised.get();

  engine::ReorderBufferOptions ropts;
  ropts.lateness_bound = 4.0;
  ropts.ladder = ladder;
  auto rb =
      engine::ReorderBuffer::Make(std::move(supervised), "ts", ropts);
  AUSDB_CHECK(rb.ok()) << rb.status().ToString();

  auto delivered = engine::Run(**rb);
  AUSDB_CHECK(delivered.ok()) << delivered.status().ToString();

  const auto& gstats = gate_view->governor().stats();
  const auto& rstats = (*rb)->stats();
  std::printf(
      "saturation burst: delivered=%zu/%zu early_releases=%zu "
      "escalations=%zu refusal_epochs=%zu retries=%zu\n",
      *delivered, kGovernedTuples, rstats.early_releases,
      gstats.escalations, gstats.refusal_epochs,
      supervised_view->counters().retries);
  results.AddRow(
      {{"delivered", static_cast<double>(*delivered)},
       {"admitted", static_cast<double>(kGovernedTuples)},
       {"early_releases", static_cast<double>(rstats.early_releases)},
       {"escalations", static_cast<double>(gstats.escalations)},
       {"refusal_epochs", static_cast<double>(gstats.refusal_epochs)},
       {"retries",
        static_cast<double>(supervised_view->counters().retries)}});

  if (!results.WriteFile(out_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", out_path.c_str());

  bool failed = false;
  if (best_ratio > max_ratio) {
    std::fprintf(stderr, "FAIL: governor-idle ratio %.3f exceeds %.3f\n",
                 best_ratio, max_ratio);
    failed = true;
  }
  if (*delivered != kGovernedTuples) {
    std::fprintf(stderr,
                 "FAIL: saturation dropped data (delivered %zu of %zu)\n",
                 *delivered, kGovernedTuples);
    failed = true;
  }
  if (gstats.escalations == 0) {
    std::fprintf(stderr,
                 "FAIL: saturation burst never escalated the ladder\n");
    failed = true;
  }
  if (failed) return 1;
  std::printf("PASS\n");
  return 0;
}
