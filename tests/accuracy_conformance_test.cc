// Statistical conformance harness for the accuracy-target cost model:
// for EVERY configuration the chooser can put in force
// (MethodChooser::SelectableSpecs), the empirical coverage of the
// intervals the real AccuracyAnnotator produces must meet the stated
// confidence within a pre-registered tolerance. This is what makes the
// cost model's accuracy predictions trustworthy rather than plausible:
// a new candidate cannot enter the lattice without passing this gate.
//
// Pre-registered experiment design (fixed before results were read):
//   * kTrials independent trials per configuration, each an
//     independently learned distribution from a fresh seeded sample;
//   * coverage must satisfy  coverage >= confidence - kTolerance,
//     with kTolerance = 0.04 ~ two binomial standard errors at
//     kTrials = 400 (SE ~ 0.015) plus model slack;
//   * seeds are fixed constants — the harness is fully deterministic.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/accuracy/accuracy_info.h"
#include "src/common/rng.h"
#include "src/dist/histogram.h"
#include "src/dist/learner.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/govern/cost_model.h"
#include "src/govern/precision.h"
#include "src/query/planner.h"
#include "src/stream/sources.h"

namespace ausdb {
namespace govern {
namespace {

using engine::Collect;
using engine::Tuple;
using engine::VectorScan;

constexpr size_t kTrials = 400;
constexpr double kTolerance = 0.04;
constexpr double kConfidence = 0.9;
// Small-sample regime (n < 30): the Student-t / bootstrap-quantile
// corrections are actually load-bearing, not vestigial.
constexpr size_t kPointsPerItem = 24;
constexpr double kMu = 5.0;
constexpr double kSigma = 2.0;

/// Runs kTrials independently learned Gaussian fields through the real
/// AccuracyAnnotator configured as `spec` prescribes, and returns the
/// fraction of trials whose mean interval covers the true mean.
double MeanCoverage(const MethodSpec& spec, uint64_t seed) {
  engine::AccuracyAnnotatorOptions options;
  options.confidence = kConfidence;
  options.method = spec.method;
  if (spec.is_bootstrap()) {
    options.bootstrap_resamples = spec.bootstrap_resamples;
  }
  options.seed = seed ^ 0xC0FFEEull;
  engine::AccuracyAnnotator annotator(
      stream::MakeLearnedGaussianSource("x", kTrials, kPointsPerItem, kMu,
                                        kSigma, seed),
      options);
  auto out = Collect(annotator);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  size_t covered = 0, total = 0;
  for (const Tuple& t : *out) {
    const auto& info = t.accuracy()[0];
    EXPECT_TRUE(info.has_value());
    if (!info.has_value() || !info->mean_ci.has_value()) continue;
    ++total;
    if (info->mean_ci->Contains(kMu)) ++covered;
  }
  EXPECT_EQ(total, kTrials);
  return total == 0 ? 0.0 : static_cast<double>(covered) /
                                static_cast<double>(total);
}

TEST(AccuracyConformanceTest, EverySelectableSpecMeetsMeanCoverage) {
  AccuracyTarget target;
  target.epsilon = 0.5;
  target.confidence = kConfidence;
  const std::vector<MethodSpec> selectable =
      MethodChooser::SelectableSpecs(target, ChooserOptions{});
  ASSERT_FALSE(selectable.empty());

  // The histogram_merge knob cannot affect a Gaussian field's mean
  // interval, so coverage is memoized per (method, resamples) — every
  // selectable spec is still asserted against its own result.
  std::vector<std::pair<std::pair<int, size_t>, double>> memo;
  for (const MethodSpec& spec : selectable) {
    const std::pair<int, size_t> key = {spec.is_bootstrap() ? 1 : 0,
                                        spec.bootstrap_resamples};
    double coverage = -1.0;
    for (const auto& [k, v] : memo) {
      if (k == key) coverage = v;
    }
    if (coverage < 0.0) {
      coverage = MeanCoverage(spec, /*seed=*/0x5EEDull + key.second);
      memo.push_back({key, coverage});
    }
    EXPECT_GE(coverage, kConfidence - kTolerance)
        << spec.ToString() << " undercovers: empirical " << coverage
        << " vs stated " << kConfidence;
  }
}

TEST(AccuracyConformanceTest, NonConformingResamplesStayExcluded) {
  // The complement of the harness above: the interior-quantile rule is
  // what keeps small-r bootstrap (whose percentile interval cannot hold
  // the stated confidence) out of the selectable set. If someone lowers
  // the rule, this pin fails before the coverage sweep ever would.
  AccuracyTarget target;
  target.epsilon = 0.5;
  target.confidence = 0.99;
  for (const MethodSpec& spec :
       MethodChooser::SelectableSpecs(target, ChooserOptions{})) {
    if (spec.is_bootstrap()) {
      EXPECT_GE(spec.bootstrap_resamples, MinConformingResamples(0.99))
          << spec.ToString();
    }
  }
}

// ---------------------------------------------------------------------
// Histogram workloads: per-bin (Lemma 1) coverage under coarsening

/// Draws `n` categorical samples from `true_probs` and returns the
/// empirical histogram over `edges`.
dist::HistogramDist SampleHistogram(const std::vector<double>& edges,
                                    const std::vector<double>& true_probs,
                                    size_t n, Rng& rng) {
  std::vector<double> counts(true_probs.size(), 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    double acc = 0.0;
    size_t bin = true_probs.size() - 1;
    for (size_t b = 0; b < true_probs.size(); ++b) {
      acc += true_probs[b];
      if (u < acc) {
        bin = b;
        break;
      }
    }
    counts[bin] += 1.0;
  }
  for (double& c : counts) c /= static_cast<double>(n);
  auto h = dist::HistogramDist::Make(edges, counts);
  EXPECT_TRUE(h.ok());
  return *h;
}

TEST(AccuracyConformanceTest, MergedHistogramBinCoverageConforms) {
  const std::vector<double> edges = {0, 1, 2, 3, 4, 5, 6};
  const std::vector<double> true_probs = {0.15, 0.2, 0.25, 0.2, 0.1, 0.1};
  const size_t n = 80;
  Rng rng(0xB1A5ull);

  for (size_t merge : ChooserOptions{}.merge_candidates) {
    // True masses of the coarsened bins: sums of the merged parts —
    // coarsening must stay unbiased, so coverage is checked against
    // these, not against the fine-grained masses.
    std::vector<double> true_merged;
    for (size_t i = 0; i < true_probs.size(); i += merge) {
      double mass = 0.0;
      for (size_t j = i; j < std::min(i + merge, true_probs.size()); ++j) {
        mass += true_probs[j];
      }
      true_merged.push_back(mass);
    }

    size_t covered = 0, total = 0;
    for (size_t trial = 0; trial < kTrials; ++trial) {
      const dist::HistogramDist sampled =
          SampleHistogram(edges, true_probs, n, rng);
      auto coarse = CoarsenHistogram(sampled, merge);
      ASSERT_TRUE(coarse.ok());
      auto info = accuracy::AnalyticalAccuracy(*coarse, n, kConfidence);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      ASSERT_EQ(info->bin_cis.size(), true_merged.size());
      for (size_t b = 0; b < true_merged.size(); ++b) {
        ++total;
        if (info->bin_cis[b].Contains(true_merged[b])) ++covered;
      }
    }
    const double coverage =
        static_cast<double>(covered) / static_cast<double>(total);
    EXPECT_GE(coverage, kConfidence - kTolerance)
        << "merge=" << merge << " per-bin coverage " << coverage;
  }
}

// ---------------------------------------------------------------------
// End to end: the configuration the chooser actually selects conforms

TEST(AccuracyConformanceTest, PlannedAccuracyTargetQueryHoldsCoverage) {
  // The tentpole's promise in one assertion: plan a WITH ACCURACY query,
  // let the cost model pick the configuration and recalibrate on real
  // epochs, and check the delivered intervals' empirical coverage.
  ChooserOptions copts;
  copts.epoch_interval = 64;
  auto chooser = std::make_shared<MethodChooser>(std::move(copts));
  query::PlannerOptions popts;
  popts.cost_model.instance = chooser;
  auto plan = query::PlanQuery(
      "SELECT * FROM s WITH ACCURACY 0.8 CONFIDENCE 0.9",
      stream::MakeLearnedGaussianSource("x", kTrials, kPointsPerItem, kMu,
                                        kSigma, 0xFEEDull),
      popts);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto out = Collect(**plan);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), kTrials);

  size_t covered = 0;
  for (const Tuple& t : *out) {
    const auto& info = t.accuracy()[0];
    ASSERT_TRUE(info.has_value() && info->mean_ci.has_value());
    if (info->mean_ci->Contains(kMu)) ++covered;
  }
  const double coverage =
      static_cast<double>(covered) / static_cast<double>(kTrials);
  EXPECT_GE(coverage, kConfidence - kTolerance)
      << "chooser-selected configuration " << chooser->current().ToString()
      << " undercovers: " << coverage;
  // The chooser really ran: observations arrived and epochs ticked.
  EXPECT_EQ(chooser->observed_tuples(), kTrials);
  EXPECT_GE(chooser->epochs(), kTrials / 64);
}

}  // namespace
}  // namespace govern
}  // namespace ausdb
