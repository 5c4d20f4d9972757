#include "src/engine/accuracy_annotator.h"

#include <algorithm>

#include "src/bootstrap/bootstrap_accuracy.h"
#include "src/common/rng.h"
#include "src/dist/histogram.h"
#include "src/govern/precision.h"

namespace ausdb {
namespace engine {

namespace {

// The seed of one field's bootstrap stream: a hash of the plan seed, the
// column, the variable the interval describes and the effort spent on
// it. The interval is then a pure function of the annotated value, not
// of how many outputs were annotated before it — a revising window's
// final output for an end gets the bytes in-order delivery gives it.
uint64_t FieldSeed(uint64_t seed, size_t column, const dist::RandomVar& rv,
                   size_t resamples, size_t histogram_merge) {
  const dist::Distribution& d = *rv.distribution();
  SeedKey key(seed);
  key.Add(column)
      .Add(static_cast<uint64_t>(d.kind()))
      .AddBits(d.Mean())
      .AddBits(d.Variance());
  if (d.kind() == dist::DistributionKind::kHistogram) {
    const auto& h = static_cast<const dist::HistogramDist&>(d);
    for (double e : h.edges()) key.AddBits(e);
    for (double p : h.probs()) key.AddBits(p);
  }
  key.Add(rv.sample_size()).Add(resamples).Add(histogram_merge);
  return key.value();
}

}  // namespace

AccuracyAnnotator::AccuracyAnnotator(OperatorPtr child,
                                     AccuracyAnnotatorOptions options)
    : child_(std::move(child)), options_(std::move(options)) {
  for (size_t i = 0; i < schema().num_fields(); ++i) {
    if (schema().field(i).type == FieldType::kUncertain) {
      column_indices_.push_back(i);
    }
  }
  if (options_.metrics != nullptr) {
    const obs::Labels labels = {{"plan", options_.metrics_label}};
    m_halfwidth_ = options_.metrics->GetHistogram(
        "ausdb_accuracy_halfwidth", labels,
        obs::DefaultHalfWidthBoundaries(),
        "Delivered mean-CI half-widths, in value units (the accuracy "
        "ledger)");
    m_annotated_ = options_.metrics->GetCounter(
        "ausdb_accuracy_annotated_fields_total", labels,
        "Uncertain fields annotated with accuracy information");
    m_target_misses_ = options_.metrics->GetCounter(
        "ausdb_accuracy_target_miss_total", labels,
        "Mean intervals delivered wider than the declared WITH ACCURACY "
        "epsilon");
  }
}

const govern::RungSpec* AccuracyAnnotator::RungSpecFor(
    const Tuple& t) const {
  if (options_.ladder == nullptr || t.precision_rung() == 0) {
    return nullptr;
  }
  const auto& rungs = options_.ladder->rungs;
  if (rungs.empty()) return nullptr;
  const govern::RungSpec& spec =
      rungs[std::min<size_t>(t.precision_rung(), rungs.size() - 1)];
  return spec.IsNeutral() ? nullptr : &spec;
}

Result<accuracy::AccuracyInfo> AccuracyAnnotator::Annotate(
    const dist::RandomVar& rv, size_t column, const govern::RungSpec* spec,
    const govern::MethodSpec* chosen) {
  // Baseline method: the cost model's choice when a chooser is wired,
  // the fixed option otherwise. A force_analytical rung swaps bootstrap
  // for the Lemma 1-3 closed forms either way — the ladder's cheap-math
  // escape hatch under overload always overrides downward.
  const accuracy::AccuracyMethod base_method =
      chosen != nullptr ? chosen->method : options_.method;
  const bool analytical =
      base_method == accuracy::AccuracyMethod::kAnalytical ||
      (spec != nullptr && spec->force_analytical);
  if (analytical) {
    return accuracy::AnalyticalAccuracy(rv, options_.confidence);
  }

  // Bootstrap path. Histogram fields get per-bin intervals over their own
  // bin edges.
  std::span<const double> edges;
  if (rv.distribution()->kind() == dist::DistributionKind::kHistogram) {
    edges = static_cast<const dist::HistogramDist&>(*rv.distribution())
                .edges();
  }
  const size_t n = rv.sample_size();
  if (n == dist::RandomVar::kCertainSampleSize) {
    return Status::InsufficientData(
        "cannot bootstrap a deterministic field");
  }
  const size_t base_resamples =
      chosen != nullptr && chosen->is_bootstrap()
          ? chosen->bootstrap_resamples
          : options_.bootstrap_resamples;
  const size_t resamples =
      spec == nullptr ? base_resamples
                      : govern::EffectiveResamples(base_resamples,
                                                   spec->sample_scale);
  const auto& raw = rv.raw_sample();
  if (raw != nullptr && raw->size() >= 2 * n) {
    // The evaluator retained the Monte Carlo value sequence: feed it to
    // the algorithm directly (Section III-B, first category). Under a
    // degraded rung only a prefix covering the effective resamples is
    // examined — that is the work actually shed.
    std::span<const double> values(*raw);
    if (spec != nullptr) {
      values = values.first(
          std::min(values.size(), std::max(2 * n, n * resamples)));
    }
    return bootstrap::BootstrapAccuracyInfo(values, n, options_.confidence,
                                            edges);
  }
  // Second category: sample from the distribution, on the field's own
  // keyed stream.
  Rng rng(FieldSeed(options_.seed, column, rv, resamples,
                    chosen != nullptr ? chosen->histogram_merge : 1));
  return bootstrap::BootstrapAccuracyFromDistribution(
      *rv.distribution(), n, resamples, options_.confidence, rng, edges);
}

Status AccuracyAnnotator::AnnotateTuple(Tuple& t) {
  const govern::RungSpec* spec = RungSpecFor(t);
  // Snapshot the chooser's spec once per tuple so an epoch boundary
  // crossed mid-tuple cannot split one tuple across two configurations.
  govern::MethodSpec chosen;
  const bool has_chooser = options_.chooser != nullptr;
  if (has_chooser) chosen = options_.chooser->current();
  // Workload feedback accumulated from the variables actually
  // annotated: de facto provenance is the minimum over fields (the
  // Lemma 3 combination rule), dispersion and bin count the maximum
  // (conservative — the widest field dominates the target check).
  govern::WindowObservation obs;
  bool observed = false;
  for (size_t idx : column_indices_) {
    const expr::Value& v = t.value(idx);
    if (!v.is_random_var()) continue;
    AUSDB_ASSIGN_OR_RETURN(dist::RandomVar rv, v.random_var());
    if (rv.is_certain()) continue;
    if (has_chooser && chosen.histogram_merge > 1) {
      // The chooser's coarsening is applied exactly like a rung's: the
      // merged histogram is written back so the tuple carries the
      // representation its per-bin intervals describe.
      govern::RungSpec merge_only;
      merge_only.histogram_merge = chosen.histogram_merge;
      AUSDB_ASSIGN_OR_RETURN(rv, govern::DegradeRandomVar(rv, merge_only));
      t.values()[idx] = expr::Value(rv);
    }
    if (spec != nullptr) {
      // Degrade first, then write back: the tuple must carry exactly
      // the (coarsened, provenance-reduced) variable its intervals are
      // derived from — never a full-precision claim on shed work.
      AUSDB_ASSIGN_OR_RETURN(rv, govern::DegradeRandomVar(rv, *spec));
      t.values()[idx] = expr::Value(rv);
    }
    const size_t n = rv.sample_size();
    if (n != dist::RandomVar::kCertainSampleSize) {
      obs.cardinality = observed ? std::min(obs.cardinality, n) : n;
      obs.dispersion =
          observed ? std::max(obs.dispersion, rv.StdDev()) : rv.StdDev();
      if (!observed) obs.histogram_bins = 0;
      if (rv.distribution()->kind() == dist::DistributionKind::kHistogram) {
        obs.histogram_bins = std::max(
            obs.histogram_bins,
            static_cast<const dist::HistogramDist&>(*rv.distribution())
                .bin_count());
      }
      observed = true;
    }
    AUSDB_ASSIGN_OR_RETURN(
        accuracy::AccuracyInfo info,
        Annotate(rv, idx, spec, has_chooser ? &chosen : nullptr));
    if (m_annotated_ != nullptr) {
      m_annotated_->Increment();
      if (info.mean_ci.has_value()) {
        const double half = info.mean_ci->Length() / 2.0;
        m_halfwidth_->Record(half);
        // The ledger's promise check: a delivered interval wider than
        // the declared epsilon is a target miss. Budget-only targets
        // (epsilon 0) promise no width; the chooser's default
        // (no SetTarget yet) epsilon is unbounded and never misses.
        const double eps =
            has_chooser ? options_.chooser->target().epsilon : 0.0;
        if (eps > 0.0 && half > eps) {
          m_target_misses_->Increment();
        }
      }
    }
    t.set_accuracy(idx, std::move(info));
  }
  if (has_chooser && observed) {
    // Content-derived feedback only (cardinality, dispersion, bins) —
    // never wall time — so recalibration epochs tick identically across
    // threads, metrics settings, and repetitions.
    options_.chooser->Observe(obs);
  }

  if (t.membership_df_n() != dist::RandomVar::kCertainSampleSize) {
    // Rung-scaled membership provenance widens the tuple-probability
    // interval the same way it widens the field intervals.
    size_t membership_n = t.membership_df_n();
    if (spec != nullptr) {
      membership_n =
          govern::EffectiveSampleSize(membership_n, spec->sample_scale);
      t.set_membership_df_n(membership_n);
    }
    AUSDB_ASSIGN_OR_RETURN(
        accuracy::ConfidenceInterval ci,
        accuracy::TupleProbabilityInterval(
            t.membership_prob(), membership_n, options_.confidence));
    t.set_membership_ci(ci);
  }
  return Status::OK();
}

Result<std::optional<Tuple>> AccuracyAnnotator::Next() {
  AUSDB_ASSIGN_OR_RETURN(std::optional<Tuple> t, child_->Next());
  if (!t.has_value()) return std::optional<Tuple>(std::nullopt);
  AUSDB_RETURN_NOT_OK(AnnotateTuple(*t));
  return t;
}

Status AccuracyAnnotator::NextBatch(size_t max_n, TupleBatch& out) {
  out.Clear();
  if (max_n == 0) {
    return Status::InvalidArgument("batch size must be >= 1");
  }
  AUSDB_RETURN_NOT_OK(child_->NextBatch(max_n, out));
  // Rows are annotated in arrival order: the chooser's observation
  // feedback is sequential, so its epochs tick as on the scalar path.
  for (Tuple& t : out.rows()) {
    AUSDB_RETURN_NOT_OK(AnnotateTuple(t));
  }
  return Status::OK();
}

Status AccuracyAnnotator::Reset() { return child_->Reset(); }

}  // namespace engine
}  // namespace ausdb
