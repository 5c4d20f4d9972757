#include "src/query/planner.h"

#include "src/engine/filter.h"
#include "src/engine/limit.h"
#include "src/engine/project.h"
#include "src/engine/reorder_buffer.h"
#include "src/engine/sort.h"
#include "src/engine/time_window_aggregate.h"
#include "src/engine/window_aggregate.h"
#include "src/govern/governor_gate.h"
#include "src/query/parser.h"

namespace ausdb {
namespace query {

Result<engine::OperatorPtr> BuildPlan(const ParsedQuery& query,
                                      engine::OperatorPtr source,
                                      const PlannerOptions& options) {
  if (source == nullptr) {
    return Status::InvalidArgument("plan needs a source operator");
  }
  engine::OperatorPtr plan = std::move(source);

  // EXPLAIN ANALYZE: every stage built below is wrapped bottom-up, so
  // the profile's slot order mirrors the pipeline and per-stage
  // selectivity falls out of adjacent slots.
  const auto profiled = [&options](engine::OperatorPtr op,
                                   const char* name) {
    return engine::Profile(std::move(op), name, options.profiler.profile,
                           options.profiler.clock);
  };
  plan = profiled(std::move(plan), "source");

  // One ladder instance shared by every governed stage of this plan,
  // so the rung a tuple is stamped with at the gate means the same
  // thing at the reorder horizon and in the accuracy annotation.
  std::shared_ptr<const govern::LadderPolicy> ladder;
  if (options.govern.enabled) {
    if (options.govern.signals == nullptr) {
      return Status::InvalidArgument(
          "governed plan needs a signal-source factory");
    }
    ladder = std::make_shared<const govern::LadderPolicy>(
        options.govern.governor.ladder);
    govern::GovernorOptions gov = options.govern.governor;
    if (gov.journal == nullptr) gov.journal = options.journal;
    AUSDB_ASSIGN_OR_RETURN(
        std::unique_ptr<govern::GovernorGate> gate,
        govern::GovernorGate::Make(std::move(plan),
                                   options.govern.signals(), gov));
    plan = profiled(std::move(gate), "governor_gate");
  }

  if (query.where != nullptr) {
    plan = std::make_unique<engine::Filter>(std::move(plan), query.where);
    plan = profiled(std::move(plan), "filter");
  }

  const bool star =
      query.select.size() == 1 && query.select.front().is_star;
  const bool has_items = !query.select.empty() && !star;

  if (query.window_agg.has_value()) {
    if (has_items) {
      return Status::NotImplemented(
          "a window aggregate cannot be combined with other SELECT items");
    }
    const WindowSpec& spec = *query.window_agg;
    if (spec.is_time_based()) {
      if (!query.group_by.empty()) {
        return Status::NotImplemented(
            "GROUP BY with RANGE windows is not supported yet");
      }
      // WITHIN: reorder in-bound disorder back into event-time order
      // before the window sees it.
      if (spec.within_bound > 0.0) {
        engine::ReorderBufferOptions ro;
        ro.lateness_bound = spec.within_bound;
        if (ladder != nullptr) {
          ro.ladder = ladder;
          ro.memory_budget = options.govern.memory_budget;
        }
        AUSDB_ASSIGN_OR_RETURN(
            std::unique_ptr<engine::ReorderBuffer> reorder,
            engine::ReorderBuffer::Make(std::move(plan), spec.range_column,
                                        ro));
        plan = profiled(std::move(reorder), "reorder");
      }
      engine::TimeWindowOptions two;
      two.duration = spec.range_duration;
      two.fn = spec.fn;
      two.journal = options.journal;
      if (spec.lateness > 0.0) {
        // LATENESS: accept post-watermark stragglers by re-emitting the
        // affected windows as revisions.
        two.require_ordered = false;
        two.emit_revisions = true;
        two.allowed_lateness = spec.lateness;
      } else if (spec.within_bound > 0.0) {
        // A reorder stage passes beyond-bound stragglers through
        // (counted late) rather than dropping them; value-based
        // eviction absorbs them instead of failing the query.
        two.require_ordered = false;
      }
      AUSDB_ASSIGN_OR_RETURN(
          std::unique_ptr<engine::TimeWindowAggregate> agg,
          engine::TimeWindowAggregate::Make(std::move(plan),
                                            spec.range_column, spec.column,
                                            spec.alias, two));
      plan = profiled(std::move(agg), "window");
    } else {
      engine::WindowAggregateOptions wo;
      wo.window_size = spec.rows;
      wo.fn = spec.fn;
      wo.kind = spec.kind;
      std::optional<std::string> key;
      if (!query.group_by.empty()) key = query.group_by;
      AUSDB_ASSIGN_OR_RETURN(
          std::unique_ptr<engine::WindowAggregate> agg,
          engine::WindowAggregate::Make(std::move(plan), spec.column,
                                        spec.alias, wo, std::move(key)));
      plan = profiled(std::move(agg), "window");
    }
  } else if (!query.group_by.empty()) {
    return Status::NotImplemented(
        "GROUP BY currently requires a window aggregate in the SELECT "
        "list");
  } else if (has_items) {
    std::vector<engine::ProjectionItem> items;
    items.reserve(query.select.size());
    for (const auto& item : query.select) {
      if (item.is_star) {
        return Status::NotImplemented(
            "SELECT * cannot be combined with other items");
      }
      items.push_back({item.alias, item.expression});
    }
    AUSDB_ASSIGN_OR_RETURN(
        std::unique_ptr<engine::Project> project,
        engine::Project::Make(std::move(plan), std::move(items)));
    plan = profiled(std::move(project), "project");
  }

  if (query.order_by.has_value()) {
    AUSDB_ASSIGN_OR_RETURN(
        std::unique_ptr<engine::Sort> sort,
        engine::Sort::Make(std::move(plan), query.order_by->column,
                           query.order_by->order));
    plan = profiled(std::move(sort), "sort");
  }

  if (query.limit.has_value()) {
    plan = std::make_unique<engine::Limit>(std::move(plan), *query.limit);
    plan = profiled(std::move(plan), "limit");
  }

  if (query.accuracy.has_value()) {
    engine::AccuracyAnnotatorOptions ao = options.annotator;
    ao.confidence = query.accuracy->confidence;
    if (query.accuracy->epsilon.has_value()) {
      // Accuracy-target form: the cost model chooses the method at plan
      // time from the prior workload estimate, then keeps re-choosing
      // on pull-count epochs inside the annotator. The governor still
      // overrides downward per rung stamp, and when the plan is
      // governed the chooser inherits the ladder's accuracy floor so
      // one bound limits both actuators.
      govern::AccuracyTarget target;
      target.epsilon = *query.accuracy->epsilon;
      target.confidence = query.accuracy->confidence;
      std::shared_ptr<govern::MethodChooser> chooser =
          options.cost_model.instance;
      if (chooser == nullptr) {
        govern::ChooserOptions copts = options.cost_model.chooser;
        if (ladder != nullptr) copts.accuracy_floor = ladder->accuracy_floor;
        if (copts.journal == nullptr) copts.journal = options.journal;
        chooser = std::make_shared<govern::MethodChooser>(std::move(copts));
      }
      AUSDB_RETURN_NOT_OK(chooser->SetTarget(target));
      const govern::MethodSpec& spec = chooser->current();
      ao.method = spec.method;
      if (spec.is_bootstrap()) {
        ao.bootstrap_resamples = spec.bootstrap_resamples;
      }
      ao.chooser = std::move(chooser);
    } else {
      ao.method = query.accuracy->method;
    }
    if (ladder != nullptr) ao.ladder = ladder;
    plan = std::make_unique<engine::AccuracyAnnotator>(std::move(plan), ao);
    plan = profiled(std::move(plan), "annotator");
  }
  return plan;
}

Result<engine::OperatorPtr> BuildPlan(const ParsedQuery& query,
                                      engine::OperatorPtr source) {
  return BuildPlan(query, std::move(source), PlannerOptions{});
}

Result<engine::OperatorPtr> PlanQuery(std::string_view sql,
                                      engine::OperatorPtr source,
                                      const PlannerOptions& options) {
  AUSDB_ASSIGN_OR_RETURN(ParsedQuery query, Parse(sql));
  return BuildPlan(query, std::move(source), options);
}

Result<engine::OperatorPtr> PlanQuery(std::string_view sql,
                                      engine::OperatorPtr source) {
  return PlanQuery(sql, std::move(source), PlannerOptions{});
}

}  // namespace query
}  // namespace ausdb
