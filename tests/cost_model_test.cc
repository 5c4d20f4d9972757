// Steady-state accuracy-target cost model: unit pins on the accuracy
// and cost predictions, property tests of the chooser (monotonicity
// under target tightening, budget-only objective), and end-to-end
// determinism of the planner-wired chooser — byte-identical decision
// logs and delivered output across thread counts and metrics on/off,
// extending the overload_determinism_test harness pattern.

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/accuracy/mean_variance_ci.h"
#include "src/common/thread_pool.h"
#include "src/dist/gaussian.h"
#include "src/engine/executor.h"
#include "src/engine/scan.h"
#include "src/govern/cost_model.h"
#include "src/obs/metrics.h"
#include "src/query/planner.h"
#include "src/serde/json_writer.h"
#include "src/stats/quantiles.h"

namespace ausdb {
namespace govern {
namespace {

using engine::Collect;
using engine::FieldType;
using engine::Schema;
using engine::Tuple;
using engine::VectorScan;

// A small-provenance workload (n = 5 < kSmallSampleThreshold): the
// regime where the analytical t-interval is wide enough that large-r
// bootstrap percentile intervals genuinely beat it, so the method
// choice is a real tradeoff rather than a foregone conclusion.
WindowObservation SmallSampleObs() {
  WindowObservation obs;
  obs.cardinality = 5;
  obs.dispersion = 1.0;
  obs.histogram_bins = 0;
  return obs;
}

// ---------------------------------------------------------------------
// Prediction pins

TEST(CostModelTest, AnalyticalHalfWidthMatchesLemma2) {
  MethodSpec spec;  // analytical/merge1
  WindowObservation obs;
  obs.cardinality = 50;
  obs.dispersion = 2.0;
  // n >= 30: z critical value.
  const double z = stats::NormalUpperPercentile(0.05);
  EXPECT_NEAR(PredictHalfWidth(spec, obs, 0.9),
              z * 2.0 / std::sqrt(50.0), 1e-12);
  // n < 30: Student's t, strictly wider than z.
  obs.cardinality = 5;
  const double t = stats::StudentTUpperPercentile(0.05, 4.0);
  EXPECT_NEAR(PredictHalfWidth(spec, obs, 0.9),
              t * 2.0 / std::sqrt(5.0), 1e-12);
  EXPECT_GT(t, z);
}

TEST(CostModelTest, BootstrapHalfWidthShrinksWithResamplesTowardZLimit) {
  WindowObservation obs = SmallSampleObs();
  MethodSpec spec;
  spec.method = accuracy::AccuracyMethod::kBootstrap;
  const double z_limit = stats::NormalUpperPercentile(0.05) *
                         obs.dispersion / std::sqrt(5.0);
  double previous = std::numeric_limits<double>::max();
  for (size_t r : {20, 50, 100, 200, 1000}) {
    spec.bootstrap_resamples = r;
    const double half = PredictHalfWidth(spec, obs, 0.9);
    EXPECT_LT(half, previous) << "r=" << r;
    EXPECT_GT(half, z_limit) << "finite r keeps quantile noise";
    previous = half;
  }
}

TEST(CostModelTest, MergeSlackAppliesOnlyToHistogramWorkloads) {
  MethodSpec fine, coarse;
  coarse.histogram_merge = 4;
  WindowObservation gaussian;
  gaussian.cardinality = 40;
  gaussian.dispersion = 1.0;
  gaussian.histogram_bins = 0;
  EXPECT_DOUBLE_EQ(PredictHalfWidth(fine, gaussian, 0.9),
                   PredictHalfWidth(coarse, gaussian, 0.9));
  WindowObservation hist = gaussian;
  hist.histogram_bins = 12;
  EXPECT_NEAR(PredictHalfWidth(coarse, hist, 0.9) -
                  PredictHalfWidth(fine, hist, 0.9),
              1.0 * 3.0 / 12.0, 1e-12);
}

TEST(CostModelTest, CostOrderingAnalyticalCheapestAndMonotoneInEffort) {
  const CostTable table = CostTable::Default();
  WindowObservation obs = SmallSampleObs();
  obs.histogram_bins = 12;
  MethodSpec analytical;
  const double base = PredictCost(analytical, obs, table);
  MethodSpec boot;
  boot.method = accuracy::AccuracyMethod::kBootstrap;
  double previous = base;
  for (size_t r : {20, 50, 100, 200}) {
    boot.bootstrap_resamples = r;
    const double cost = PredictCost(boot, obs, table);
    EXPECT_GT(cost, previous) << "r=" << r;
    previous = cost;
  }
  // Coarsening reduces the per-bin term only.
  MethodSpec coarse = analytical;
  coarse.histogram_merge = 4;
  EXPECT_NEAR(base - PredictCost(coarse, obs, table),
              table.per_bin * (12.0 - 3.0), 1e-12);
}

TEST(CostModelTest, MinConformingResamplesKeepsTenPerTail) {
  EXPECT_EQ(MinConformingResamples(0.9), 200u);
  EXPECT_EQ(MinConformingResamples(0.95), 400u);
  EXPECT_EQ(MinConformingResamples(0.99), 2000u);
}

TEST(CostModelTest, TargetValidation) {
  AccuracyTarget t;
  t.epsilon = 0.5;
  EXPECT_TRUE(t.Validate().ok());
  t.epsilon = 0.0;
  t.cost_budget = 3.0;
  EXPECT_TRUE(t.Validate().ok());
  t.cost_budget = 0.0;
  EXPECT_FALSE(t.Validate().ok()) << "needs an epsilon or a budget";
  t.epsilon = -0.1;
  EXPECT_FALSE(t.Validate().ok());
  t.epsilon = 0.5;
  t.confidence = 1.0;
  EXPECT_FALSE(t.Validate().ok());
  t.confidence = 0.0;
  EXPECT_FALSE(t.Validate().ok());
}

// ---------------------------------------------------------------------
// Chooser decisions

TEST(CostModelTest, LooseTargetPicksAnalyticalAtFullResolution) {
  AccuracyTarget target;
  target.epsilon = 2.0;
  const MethodSpec spec =
      MethodChooser::Choose(target, SmallSampleObs(), ChooserOptions{});
  EXPECT_EQ(spec.method, accuracy::AccuracyMethod::kAnalytical);
  EXPECT_EQ(spec.histogram_merge, 1u);
  EXPECT_DOUBLE_EQ(spec.sample_scale, 1.0);
}

TEST(CostModelTest, TighteningTargetWalksUpTheBootstrapLadder) {
  const ChooserOptions options;
  const WindowObservation obs = SmallSampleObs();
  AccuracyTarget target;
  // At n=5, c=0.9: analytical ~0.953; the conforming bootstrap rungs
  // are r=200 ~0.840 and r=400 ~0.809 (sub-conforming r never enters).
  target.epsilon = 0.95;
  EXPECT_EQ(MethodChooser::Choose(target, obs, options).bootstrap_resamples,
            200u);
  target.epsilon = 0.85;
  EXPECT_EQ(MethodChooser::Choose(target, obs, options).bootstrap_resamples,
            200u);
  target.epsilon = 0.82;
  EXPECT_EQ(MethodChooser::Choose(target, obs, options).bootstrap_resamples,
            400u);
}

TEST(CostModelTest, InfeasibleTargetFallsBackToTightestCandidate) {
  AccuracyTarget target;
  target.epsilon = 0.1;  // nothing in the lattice reaches this at n=5
  const ChooserOptions options;
  const MethodSpec spec =
      MethodChooser::Choose(target, SmallSampleObs(), options);
  EXPECT_TRUE(spec.is_bootstrap());
  EXPECT_EQ(spec.bootstrap_resamples, 400u);
  EXPECT_EQ(spec.histogram_merge, 1u);
}

TEST(CostModelTest, BudgetOnlyTargetMaximizesAccuracyWithinBudget) {
  AccuracyTarget target;
  target.cost_budget = 30.0;  // affords r=200 (cost 24) but not r=400 (44)
  const ChooserOptions options;
  const WindowObservation obs = SmallSampleObs();
  const MethodSpec spec = MethodChooser::Choose(target, obs, options);
  EXPECT_EQ(spec.bootstrap_resamples, 200u);
  EXPECT_LE(PredictCost(spec, obs, options.table), 30.0);
  // An unaffordable budget overshoots by the minimum: the cheapest
  // candidate, not the tightest.
  target.cost_budget = 0.5;
  const MethodSpec cheap = MethodChooser::Choose(target, obs, options);
  EXPECT_EQ(cheap.method, accuracy::AccuracyMethod::kAnalytical);
}

// Property: tightening epsilon never selects a cheaper configuration or
// a smaller bootstrap sample budget, and never flips bootstrap back to
// analytical — the feasible set only shrinks.
TEST(CostModelTest, ChooserIsMonotoneUnderTargetTightening) {
  const ChooserOptions options;
  const WindowObservation obs = SmallSampleObs();
  double previous_cost = -1.0;
  size_t previous_budget = 0;
  bool seen_bootstrap = false;
  for (double eps = 2.0; eps >= 0.05; eps -= 0.005) {
    AccuracyTarget target;
    target.epsilon = eps;
    const MethodSpec spec = MethodChooser::Choose(target, obs, options);
    const double cost = PredictCost(spec, obs, options.table);
    const size_t budget =
        spec.is_bootstrap() ? spec.bootstrap_resamples : 0;
    EXPECT_GE(cost, previous_cost) << "eps=" << eps;
    EXPECT_GE(budget, previous_budget) << "eps=" << eps;
    if (seen_bootstrap) {
      EXPECT_TRUE(spec.is_bootstrap())
          << "eps=" << eps << ": tightening flipped back to analytical";
    }
    seen_bootstrap = seen_bootstrap || spec.is_bootstrap();
    previous_cost = cost;
    previous_budget = budget;
  }
  EXPECT_TRUE(seen_bootstrap) << "the sweep must cross the method boundary";
}

TEST(CostModelTest, ChoiceAlwaysComesFromTheSelectableSet) {
  const ChooserOptions options;
  for (double eps : {2.0, 0.95, 0.9, 0.85, 0.5, 0.1}) {
    for (double c : {0.8, 0.9, 0.95, 0.99}) {
      AccuracyTarget target;
      target.epsilon = eps;
      target.confidence = c;
      const std::vector<MethodSpec> selectable =
          MethodChooser::SelectableSpecs(target, options);
      const MethodSpec spec =
          MethodChooser::Choose(target, SmallSampleObs(), options);
      bool found = false;
      for (const MethodSpec& s : selectable) found = found || s == spec;
      EXPECT_TRUE(found) << "eps=" << eps << " c=" << c << " chose "
                         << spec.ToString();
    }
  }
}

TEST(CostModelTest, NonConformingResamplesAreNeverSelectable) {
  ChooserOptions options;
  AccuracyTarget target;
  target.epsilon = 0.5;
  target.confidence = 0.99;  // needs r >= 2000: beyond the lattice
  for (const MethodSpec& spec :
       MethodChooser::SelectableSpecs(target, options)) {
    EXPECT_FALSE(spec.is_bootstrap())
        << spec.ToString()
        << ": no lattice candidate conforms at 0.99 confidence";
  }
  // And the chooser's fallback honors the same exclusion — it serves
  // analytical rather than a wide-quantile bootstrap that would
  // undercover the stated confidence.
  const MethodSpec spec =
      MethodChooser::Choose(target, SmallSampleObs(), options);
  EXPECT_EQ(spec.method, accuracy::AccuracyMethod::kAnalytical);
}

// ---------------------------------------------------------------------
// Epoch recalibration

TEST(CostModelTest, RecalibrationTicksOnObserveCountsAndReChooses) {
  ChooserOptions options;
  options.epoch_interval = 4;
  options.prior.cardinality = 50;  // loose prior: analytical feasible
  options.prior.dispersion = 1.0;
  MethodChooser chooser(std::move(options));
  AccuracyTarget target;
  target.epsilon = 0.9;
  ASSERT_TRUE(chooser.SetTarget(target).ok());
  EXPECT_EQ(chooser.current().method, accuracy::AccuracyMethod::kAnalytical);

  // Stream n=5 observations: at the 4th Observe the estimate becomes
  // {5, 1.0, 0} and the target forces bootstrap r=200.
  WindowObservation obs = SmallSampleObs();
  for (int i = 0; i < 3; ++i) {
    chooser.Observe(obs);
    EXPECT_EQ(chooser.epochs(), 0u);
    EXPECT_EQ(chooser.current().method,
              accuracy::AccuracyMethod::kAnalytical)
        << "no re-choice before the epoch boundary";
  }
  chooser.Observe(obs);
  EXPECT_EQ(chooser.epochs(), 1u);
  EXPECT_EQ(chooser.estimate().cardinality, 5u);
  EXPECT_TRUE(chooser.current().is_bootstrap());
  EXPECT_EQ(chooser.current().bootstrap_resamples, 200u);

  // Steady workload: further epochs re-choose the same spec and the
  // decision log does not grow.
  const size_t log_size = chooser.decisions().size();
  for (int i = 0; i < 8; ++i) chooser.Observe(obs);
  EXPECT_EQ(chooser.epochs(), 3u);
  EXPECT_EQ(chooser.decisions().size(), log_size)
      << "unchanged decisions must not be re-logged";
}

TEST(CostModelTest, ChooserMirrorsDecisionsIntoMetrics) {
  obs::MetricRegistry registry;
  ChooserOptions options;
  options.epoch_interval = 2;
  options.metrics = &registry;
  options.metrics_label = "q1";
  MethodChooser chooser(std::move(options));
  AccuracyTarget target;
  target.epsilon = 0.9;
  ASSERT_TRUE(chooser.SetTarget(target).ok());
  WindowObservation obs = SmallSampleObs();
  chooser.Observe(obs);
  chooser.Observe(obs);  // epoch boundary: flips to bootstrap
  const obs::Labels labels = {{"plan", "q1"}};
  EXPECT_GE(
      registry.GetCounter("ausdb_cost_decisions_total", labels)->Value(),
      3u);
  EXPECT_EQ(
      registry.GetCounter("ausdb_cost_recalibrations_total", labels)->Value(),
      1u);
  EXPECT_EQ(
      registry.GetCounter("ausdb_cost_method_flips_total", labels)->Value(),
      1u);
  EXPECT_EQ(registry.GetGauge("ausdb_cost_selected_method", labels)->Value(),
            1);
  EXPECT_EQ(
      registry.GetGauge("ausdb_cost_selected_resamples", labels)->Value(),
      200);
}

// ---------------------------------------------------------------------
// End-to-end determinism through the planner (the PR 8 harness pattern)

Schema UncertainSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

std::vector<Tuple> SmallSampleStream(size_t count) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < count; ++i) {
    tuples.push_back(Tuple({expr::Value(dist::RandomVar(
        std::make_shared<dist::GaussianDist>(10.0 * i, 1.0), 5))}));
  }
  return tuples;
}

struct TargetedRun {
  std::vector<std::string> output;
  std::string decision_log;
};

/// Plans `SELECT * ... WITH ACCURACY 0.9 CONFIDENCE 0.9` over a stream
/// whose observed cardinality (n=5) disagrees with the chooser's prior
/// (n=50), so the first recalibration epoch genuinely flips the method
/// from analytical to bootstrap mid-stream.
TargetedRun RunTargetedPlan(size_t tuple_count, size_t threads,
                            obs::MetricRegistry* metrics) {
  ChooserOptions copts;
  copts.epoch_interval = 8;
  copts.metrics = metrics;
  auto chooser = std::make_shared<MethodChooser>(std::move(copts));

  query::PlannerOptions popts;
  popts.cost_model.instance = chooser;
  auto plan = query::PlanQuery(
      "SELECT * FROM s WITH ACCURACY 0.9 CONFIDENCE 0.9",
      std::make_unique<VectorScan>(UncertainSchema(),
                                   SmallSampleStream(tuple_count)),
      popts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();

  TargetedRun run;
  // No operator takes work from a pool inside Next(): the idle pool of
  // `threads` workers runs alongside the scalar drain and must not move
  // a byte of it.
  ThreadPool pool(threads);
  auto out = Collect(**plan);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  for (const Tuple& t : *out) {
    run.output.push_back(serde::ToJson(t, (*plan)->schema()));
  }
  run.decision_log = chooser->DecisionLogString();
  return run;
}

TEST(CostModelDeterminismTest, RecalibrationFlipsMethodMidStream) {
  const TargetedRun run = RunTargetedPlan(64, 1, nullptr);
  ASSERT_EQ(run.output.size(), 64u);
  EXPECT_EQ(run.decision_log,
            "epoch 0: analytical/merge1\n"
            "epoch 1: bootstrap(r=200)/merge1\n")
      << "the harness must witness a real recalibration flip";
}

TEST(CostModelDeterminismTest, DecisionsAreByteIdenticalAcrossRuns) {
  const TargetedRun a = RunTargetedPlan(64, 1, nullptr);
  const TargetedRun b = RunTargetedPlan(64, 1, nullptr);
  EXPECT_EQ(a.decision_log, b.decision_log);
  ASSERT_EQ(a.output.size(), b.output.size());
  for (size_t i = 0; i < a.output.size(); ++i) {
    ASSERT_EQ(a.output[i], b.output[i]) << "output " << i;
  }
}

TEST(CostModelDeterminismTest, ThreadCountDoesNotChangeDecisions) {
  const TargetedRun golden = RunTargetedPlan(64, 1, nullptr);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const TargetedRun run = RunTargetedPlan(64, threads, nullptr);
    EXPECT_EQ(run.decision_log, golden.decision_log)
        << threads << " threads changed the decision schedule";
    ASSERT_EQ(run.output.size(), golden.output.size());
    for (size_t i = 0; i < run.output.size(); ++i) {
      ASSERT_EQ(run.output[i], golden.output[i])
          << "output " << i << " at " << threads << " threads";
    }
  }
}

TEST(CostModelDeterminismTest, MetricsOnOrOffDoesNotChangeDecisions) {
  const TargetedRun bare = RunTargetedPlan(64, 1, nullptr);
  obs::MetricRegistry registry;
  const TargetedRun observed = RunTargetedPlan(64, 1, &registry);
  EXPECT_EQ(observed.decision_log, bare.decision_log);
  ASSERT_EQ(observed.output.size(), bare.output.size());
  for (size_t i = 0; i < bare.output.size(); ++i) {
    ASSERT_EQ(observed.output[i], bare.output[i]) << "output " << i;
  }
  EXPECT_GE(registry
                .GetCounter("ausdb_cost_recalibrations_total",
                            {{"plan", "plan"}})
                ->Value(),
            1u);
}

}  // namespace
}  // namespace govern
}  // namespace ausdb
