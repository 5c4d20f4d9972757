#ifndef AUSDB_QUERY_PLANNER_H_
#define AUSDB_QUERY_PLANNER_H_

#include <functional>
#include <memory>
#include <string_view>

#include "src/common/memory_budget.h"
#include "src/common/result.h"
#include "src/engine/accuracy_annotator.h"
#include "src/engine/operator.h"
#include "src/engine/pipeline_profiler.h"
#include "src/govern/cost_model.h"
#include "src/govern/governor.h"
#include "src/govern/signals.h"
#include "src/obs/event_journal.h"
#include "src/query/plan.h"

namespace ausdb {
namespace query {

/// \brief Per-plan overload-governor wiring. When enabled, the planner
/// inserts a GovernorGate directly above the source (admission control
/// happens before any work is invested in a tuple) and shares one
/// degradation ladder between the gate, the WITHIN reorder stage, and
/// the accuracy annotator — the same rung stamp a tuple picks up at the
/// gate is what shortens its hold horizon and widens its intervals
/// downstream.
struct GovernorConfig {
  bool enabled = false;

  /// Ladder, epoch interval, breaker thresholds, metrics.
  govern::GovernorOptions governor;

  /// Factory for the gate's signal source — LiveSignalSource over the
  /// plan's queues/budget in production, a scripted injector in
  /// harnesses. Required when enabled (each plan needs its own
  /// instance).
  std::function<std::unique_ptr<govern::SignalSource>()> signals;

  /// Per-plan memory budget the WITHIN reorder stage charges held
  /// tuples against. Null disables charging. Must outlive the plan.
  MemoryBudget* memory_budget = nullptr;
};

/// \brief Steady-state cost-model wiring. When a query states an
/// accuracy *target* (`WITH ACCURACY <eps> [CONFIDENCE <c>]`), the
/// planner builds a govern::MethodChooser, makes the plan-time choice
/// from `chooser.prior`, configures the AccuracyAnnotator with the
/// chosen method, and hands the chooser to the annotator for
/// pull-count-epoch recalibration. Queries that pin a method
/// (ANALYTICAL / BOOTSTRAP) never involve the chooser.
struct CostModelConfig {
  /// Cost table, candidate lattice, prior workload estimate, epoch
  /// interval, metrics. When the plan is governed, the planner aligns
  /// `chooser.accuracy_floor` with the ladder's floor so both
  /// actuators honor one bound.
  govern::ChooserOptions chooser;

  /// When non-null, the planner uses (and re-targets) this instance
  /// instead of building one — harnesses inspect its decision log
  /// through the shared pointer after the run.
  std::shared_ptr<govern::MethodChooser> instance;
};

/// \brief EXPLAIN ANALYZE wiring: when `profile` is non-null the
/// planner wraps every stage it builds (bottom-up: source first) in a
/// ProfiledOperator accumulating into `profile`, so per-stage tuple
/// counts and selectivities come out of the run. A null `clock` keeps
/// the profiled run free of wall-clock reads entirely (the
/// deterministic default); a real clock adds the sampled latency annex.
/// A profile built over a MetricRegistry mirrors every stage there too.
struct ProfilerConfig {
  engine::PipelineProfile* profile = nullptr;
  const obs::Clock* clock = nullptr;
};

/// Plan-construction knobs.
struct PlannerOptions {
  engine::AccuracyAnnotatorOptions annotator;
  /// Overload governor wiring; disabled by default (plans are built
  /// exactly as before — no gate, no ladder, no budget charging).
  GovernorConfig govern;
  /// Steady-state accuracy-target cost model; only consulted when the
  /// query states a numeric accuracy target.
  CostModelConfig cost_model;
  /// When non-null, every journaling component the planner builds
  /// (governor, cost-model chooser, revision-mode window) appends its
  /// decisions here. Write-only per the obs contract.
  obs::EventJournal* journal = nullptr;
  /// Per-operator profiling (EXPLAIN ANALYZE); off by default.
  ProfilerConfig profiler;
};

/// \brief Turns a parsed query plus its input stream into an executable
/// operator tree:
///
///   source -> [Filter (WHERE)] -> [WindowAggregate] -> [Project]
///          -> [AccuracyAnnotator (WITH ACCURACY)]
///
/// SELECT * skips the projection. A window aggregate consumes the source
/// column stream and outputs a single uncertain column, so combining it
/// with other SELECT items is rejected.
Result<engine::OperatorPtr> BuildPlan(const ParsedQuery& query,
                                      engine::OperatorPtr source,
                                      const PlannerOptions& options);

/// BuildPlan with default options, built inside the library for the same
/// reason as the two-argument PlanQuery below.
Result<engine::OperatorPtr> BuildPlan(const ParsedQuery& query,
                                      engine::OperatorPtr source);

/// Parses `sql` and builds the plan over `source` in one step.
Result<engine::OperatorPtr> PlanQuery(std::string_view sql,
                                      engine::OperatorPtr source,
                                      const PlannerOptions& options);

/// PlanQuery with default options. The options are built inside the
/// library, not at each call site, where GCC's optimized sanitizer
/// builds report their inlined strings as maybe-uninitialized.
Result<engine::OperatorPtr> PlanQuery(std::string_view sql,
                                      engine::OperatorPtr source);

}  // namespace query
}  // namespace ausdb

#endif  // AUSDB_QUERY_PLANNER_H_
