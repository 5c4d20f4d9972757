// Scripted-load equivalence harness: the governor's determinism
// contract, end to end. A governed plan driven by a scripted overload
// regime must produce identical rung-transition sequences and
// bit-identical delivered output across independent runs, across thread
// counts, and with metrics on or off — degradation decisions are pure
// functions of tuple counts and scripted signals, never wall clock.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/memory_budget.h"
#include "src/common/thread_pool.h"
#include "src/dist/gaussian.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/executor.h"
#include "src/engine/reorder_buffer.h"
#include "src/engine/scan.h"
#include "src/govern/governor.h"
#include "src/govern/governor_gate.h"
#include "src/govern/ladder.h"
#include "src/govern/overload_injector.h"
#include "src/govern/signals.h"
#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/serde/json_writer.h"

namespace ausdb {
namespace govern {
namespace {

using engine::Collect;
using engine::FieldType;
using engine::Schema;
using engine::Tuple;
using engine::VectorScan;

Schema TsSchema() {
  Schema s;
  EXPECT_TRUE(s.AddField({"ts", FieldType::kDouble}).ok());
  EXPECT_TRUE(s.AddField({"x", FieldType::kUncertain}).ok());
  return s;
}

Tuple TsTuple(double ts, double mean, size_t n = 10) {
  return Tuple({expr::Value(ts),
                expr::Value(dist::RandomVar(
                    std::make_shared<dist::GaussianDist>(mean, 1.0), n))});
}

// Event-ordered stream with deterministic bounded disorder: blocks of
// `block` tuples rotated left by one, so the reorder buffer has real
// work to do under the governed horizon.
std::vector<Tuple> DisorderedStream(size_t count, size_t block) {
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < count; ++i) {
    tuples.push_back(TsTuple(static_cast<double>(i), 10.0 * i));
  }
  for (size_t start = 0; start + block <= tuples.size(); start += block) {
    std::rotate(tuples.begin() + start, tuples.begin() + start + 1,
                tuples.begin() + start + block);
  }
  return tuples;
}

struct GovernedRun {
  std::vector<std::string> output;  ///< serde::ToJson per delivered tuple
  std::vector<RungTransition> transitions;
  engine::ReorderStats reorder;
};

/// Builds and drains the full governed plan:
///   VectorScan -> GovernorGate(scripted injector) ->
///   ReorderBuffer(governed horizon) -> AccuracyAnnotator(governed).
/// The ladder is shared across all three governed stages, as the
/// planner wires it.
GovernedRun RunGovernedPlan(size_t tuple_count, size_t threads,
                            obs::MetricRegistry* metrics) {
  auto ladder =
      std::make_shared<const LadderPolicy>(LadderPolicy::Default());

  GovernorOptions gopts;
  gopts.ladder = *ladder;
  gopts.ladder.dwell_epochs = 1;
  gopts.epoch_interval = 8;
  gopts.metrics = metrics;
  auto gate = GovernorGate::Make(
      std::make_unique<VectorScan>(TsSchema(),
                                   DisorderedStream(tuple_count, 3)),
      std::make_unique<OverloadInjector>(
          OverloadInjector::SpikeScript(2, 4, 10.0)),
      gopts);
  EXPECT_TRUE(gate.ok()) << gate.status().ToString();
  const GovernorGate* gate_view = gate->get();

  engine::ReorderBufferOptions ropts;
  ropts.lateness_bound = 4.0;
  ropts.ladder = ladder;
  ropts.metrics = metrics;
  auto rb = engine::ReorderBuffer::Make(std::move(*gate), "ts", ropts);
  EXPECT_TRUE(rb.ok()) << rb.status().ToString();
  const engine::ReorderBuffer* rb_view = rb->get();

  engine::AccuracyAnnotatorOptions aopts;
  aopts.method = accuracy::AccuracyMethod::kBootstrap;
  aopts.ladder = ladder;
  engine::AccuracyAnnotator annotator(std::move(*rb), aopts);

  GovernedRun run;
  // No operator takes work from a pool inside Next(): the idle pool of
  // `threads` workers runs alongside the scalar drain and must not move
  // a byte of it.
  ThreadPool pool(threads);
  auto out = Collect(annotator);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  for (const Tuple& t : *out) {
    run.output.push_back(serde::ToJson(t, annotator.schema()));
  }
  run.transitions = gate_view->governor().transitions();
  run.reorder = rb_view->stats();
  return run;
}

TEST(OverloadDeterminismTest, IdenticalRunsAreBitIdentical) {
  const GovernedRun a = RunGovernedPlan(64, 1, nullptr);
  const GovernedRun b = RunGovernedPlan(64, 1, nullptr);
  ASSERT_EQ(a.output.size(), 64u) << "no tuple may be dropped";
  ASSERT_FALSE(a.transitions.empty())
      << "the 10x spike must move the rung or the harness tests nothing";
  EXPECT_EQ(a.transitions, b.transitions);
  ASSERT_EQ(a.output.size(), b.output.size());
  for (size_t i = 0; i < a.output.size(); ++i) {
    ASSERT_EQ(a.output[i], b.output[i]) << "output " << i << " diverged";
  }
}

TEST(OverloadDeterminismTest, ThreadCountDoesNotChangeOutput) {
  const GovernedRun golden = RunGovernedPlan(64, 1, nullptr);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    const GovernedRun run = RunGovernedPlan(64, threads, nullptr);
    EXPECT_EQ(run.transitions, golden.transitions)
        << threads << " threads changed the rung schedule";
    ASSERT_EQ(run.output.size(), golden.output.size()) << threads;
    for (size_t i = 0; i < run.output.size(); ++i) {
      ASSERT_EQ(run.output[i], golden.output[i])
          << "output " << i << " at " << threads << " threads";
    }
  }
}

TEST(OverloadDeterminismTest, MetricsOnOrOffDoesNotChangeOutput) {
  const GovernedRun bare = RunGovernedPlan(64, 1, nullptr);
  obs::MetricRegistry registry;
  const GovernedRun observed = RunGovernedPlan(64, 1, &registry);
  EXPECT_EQ(observed.transitions, bare.transitions);
  ASSERT_EQ(observed.output.size(), bare.output.size());
  for (size_t i = 0; i < bare.output.size(); ++i) {
    ASSERT_EQ(observed.output[i], bare.output[i]) << "output " << i;
  }
  // And the metrics actually observed the run: the governor mirrored
  // rung moves, the buffer mirrored governed early releases.
  EXPECT_GE(registry
                .GetCounter("ausdb_govern_escalations_total",
                            {{"plan", "plan"}})
                ->Value(),
            1u);
}

TEST(OverloadDeterminismTest, GovernedHorizonShedsPrecisionNotData) {
  // Under the spike the deepest default rung halves the reorder
  // horizon: some releases happen before the true watermark (counted
  // early), and any straggler past the shortened horizon surfaces as a
  // late tuple — but every admitted tuple is delivered.
  const GovernedRun run = RunGovernedPlan(96, 1, nullptr);
  EXPECT_EQ(run.output.size(), 96u);
  EXPECT_EQ(run.reorder.admitted, 96u);
  EXPECT_GT(run.reorder.early_releases, 0u)
      << "the deepest rung must actually shorten the horizon";
}

// ---------------------------------------------------------------------
// LiveSignalSource under a scripted FakeClock

TEST(OverloadDeterminismTest, LiveLatencySignalIsExactUnderFakeClock) {
  obs::FakeClock clock;
  LiveSignalSource::Bindings bindings;
  bindings.latency_slo_seconds = 0.001;
  bindings.tuples_per_epoch = 10;
  LiveSignalSource source(bindings, &clock);

  // Epoch 0 has no predecessor to diff against: latency reads 0.
  SignalSnapshot s0 = source.Snapshot(0);
  EXPECT_DOUBLE_EQ(s0.sampled_latency_seconds, 0.0);

  // 20 ms over 10 tuples = 2 ms per tuple = 2x the SLO.
  clock.AdvanceSeconds(0.020);
  SignalSnapshot s1 = source.Snapshot(1);
  EXPECT_DOUBLE_EQ(s1.sampled_latency_seconds, 0.002);
  EXPECT_DOUBLE_EQ(LatencyPressure(s1), 2.0);

  // 5 ms over 10 tuples = 0.5 ms per tuple = half the SLO.
  clock.AdvanceSeconds(0.005);
  SignalSnapshot s2 = source.Snapshot(2);
  EXPECT_DOUBLE_EQ(s2.sampled_latency_seconds, 0.0005);
  EXPECT_DOUBLE_EQ(LatencyPressure(s2), 0.5);
}

TEST(OverloadDeterminismTest, LiveQueueAndBudgetSignalsReadBindings) {
  obs::MetricRegistry registry;
  obs::Gauge* depth = registry.GetGauge("test_queue_depth");
  depth->Set(750);
  MemoryBudget budget(1000);
  ASSERT_TRUE(budget.TryReserve(400, "test").ok());

  obs::FakeClock clock;
  LiveSignalSource::Bindings bindings;
  bindings.queue_depth = depth;
  bindings.queue_capacity = 1000;
  bindings.budget = &budget;
  LiveSignalSource source(bindings, &clock);

  const SignalSnapshot snap = source.Snapshot(0);
  EXPECT_EQ(snap.queue_depth, 750u);
  EXPECT_EQ(snap.queue_capacity, 1000u);
  EXPECT_EQ(snap.memory_used_bytes, 400u);
  EXPECT_EQ(snap.memory_limit_bytes, 1000u);
  EXPECT_DOUBLE_EQ(Pressure(snap), 0.75);

  // Identically scripted gauges yield identical snapshots: the live
  // source adds no hidden state beyond the clock diff.
  obs::FakeClock clock2;
  LiveSignalSource source2(bindings, &clock2);
  const SignalSnapshot again = source2.Snapshot(0);
  EXPECT_EQ(again.queue_depth, snap.queue_depth);
  EXPECT_EQ(again.memory_used_bytes, snap.memory_used_bytes);
}

}  // namespace
}  // namespace govern
}  // namespace ausdb
