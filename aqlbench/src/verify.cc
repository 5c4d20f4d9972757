#include "verify.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/dist/learner.h"
#include "src/hypothesis/coupled_tests.h"
#include "src/hypothesis/significance_predicates.h"

namespace aqlbench {

using namespace ausdb;

namespace {

double SampleMean(const std::vector<double>& readings, size_t i) {
  double sum = 0.0;
  for (size_t r = 0; r < kReadings; ++r) sum += readings[i * kReadings + r];
  return sum / static_cast<double>(kReadings);
}

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
}

int IndexOf(const engine::Schema& schema, const char* name) {
  Result<size_t> i = schema.IndexOf(name);
  return i.ok() ? static_cast<int>(*i) : -1;
}

}  // namespace

Result<Reference> BuildReference(const WorkloadSpec& spec,
                                 const Inputs& inputs) {
  Reference ref;
  const size_t n = inputs.n;
  std::vector<double> means(n);
  for (size_t i = 0; i < n; ++i) means[i] = SampleMean(inputs.x, i);

  if (spec.range > 0.0) {
    // Event e's window holds events (e - range, e].
    std::vector<long double> prefix(n + 1, 0.0L);
    std::vector<double> by_event(n);
    for (size_t i = 0; i < n; ++i) {
      by_event[static_cast<size_t>(inputs.ts[i])] = means[i];
    }
    for (size_t e = 0; e < n; ++e) prefix[e + 1] = prefix[e] + by_event[e];
    const size_t span = static_cast<size_t>(spec.range);
    ref.window_mean_by_end.resize(n);
    for (size_t e = 0; e < n; ++e) {
      const size_t lo = e + 1 >= span ? e + 1 - span : 0;
      ref.window_mean_by_end[e] = static_cast<double>(
          (prefix[e + 1] - prefix[lo]) / static_cast<long double>(e + 1 - lo));
    }
    return ref;
  }

  std::vector<uint8_t> kept(n, 1);
  if (spec.grouped) {
    ref.v_stats.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      AUSDB_ASSIGN_OR_RETURN(
          dist::LearnedDistribution learned,
          dist::LearnGaussian(std::span<const double>(
              inputs.v.data() + i * kReadings, kReadings)));
      AUSDB_ASSIGN_OR_RETURN(
          hypothesis::SampleStatistics s,
          hypothesis::StatisticsOf(dist::RandomVar(learned)));
      const auto test = [&s, &spec](hypothesis::TestOp op, double alpha) {
        return hypothesis::MeanTest(s, op, spec.mtest_c, alpha);
      };
      AUSDB_ASSIGN_OR_RETURN(
          hypothesis::TestOutcome outcome,
          hypothesis::CoupledTests(test, hypothesis::TestOp::kGreater,
                                   spec.mtest_alpha, spec.mtest_alpha));
      kept[i] = outcome == hypothesis::TestOutcome::kTrue;
      ref.filter_kept += kept[i];
      ref.v_stats.push_back(s);
    }
  }

  // Sliding count windows, one per key (a single key when ungrouped);
  // an output per kept tuple once its key's window is full.
  const size_t w = spec.window_rows;
  std::vector<std::vector<double>> history(spec.grouped ? kKeys : 1);
  for (size_t i = 0; i < n; ++i) {
    if (!kept[i]) continue;
    const size_t k = spec.grouped ? static_cast<size_t>(inputs.key[i]) : 0;
    std::vector<double>& h = history[k];
    h.push_back(means[i]);
    if (h.size() < w) continue;
    long double sum = 0.0L;
    for (size_t j = h.size() - w; j < h.size(); ++j) sum += h[j];
    ref.outputs.push_back(
        {i, spec.grouped ? inputs.key[i] : 0.0,
         static_cast<double>(sum / static_cast<long double>(w))});
  }
  return ref;
}

Verifier::Verifier(const WorkloadSpec& spec, const Inputs& inputs,
                   const Reference& ref, const engine::Schema& out_schema)
    : spec_(spec),
      inputs_(inputs),
      ref_(ref),
      agg_index_(IndexOf(out_schema, "a")),
      key_index_(IndexOf(out_schema, "k")),
      end_index_(IndexOf(out_schema, "window_end")),
      revision_index_(IndexOf(out_schema, "revision")) {
  verdict_.digest = kFnvOffset;
  if (spec.range > 0.0) {
    fold_.assign(inputs.n, 0.0);
    seen_.assign(inputs.n, 0);
  }
  if (spec.grouped) key_outputs_.assign(kKeys, 0);
}

void Verifier::Mismatch(const std::string& what) {
  if (verdict_.mismatches++ == 0) verdict_.first_mismatch = what;
}

void Verifier::Observe(const engine::Tuple& t) {
  const size_t index = verdict_.outputs++;
  const uint64_t seq = t.sequence();
  FnvFold(verdict_.digest, seq);
  if (agg_index_ < 0 || static_cast<size_t>(agg_index_) >= t.num_values()) {
    Mismatch("output has no aggregate column");
    return;
  }
  Result<dist::RandomVar> rv = t.value(agg_index_).random_var();
  if (!rv.ok() || seq >= inputs_.n) {
    Mismatch("output " + std::to_string(index) + " is malformed");
    return;
  }
  const double mean = rv->Mean();
  FnvFold(verdict_.digest, DoubleBits(mean));
  // Lemma 3: a window's d.f. sample size is its inputs' minimum; a
  // governed rung may only scale it down.
  if (spec_.governed ? rv->sample_size() < 2 || rv->sample_size() > kReadings
                     : rv->sample_size() != kReadings) {
    Mismatch("output " + std::to_string(index) + " has sample size " +
             std::to_string(rv->sample_size()));
  }

  if (spec_.range > 0.0) {
    Result<double> end = end_index_ >= 0 ? t.value(end_index_).AsDouble()
                                          : Result<double>(Status::NotFound(
                                                "no window_end column"));
    Result<bool> revision =
        revision_index_ >= 0
            ? t.value(revision_index_).bool_value()
            : Result<bool>(Status::NotFound("no revision column"));
    if (!end.ok() || !revision.ok() || !(*end >= 0.0) ||
        *end >= static_cast<double>(inputs_.n) ||
        *end != std::floor(*end)) {
      Mismatch("output " + std::to_string(index) + " has a bad window end");
      return;
    }
    const size_t e = static_cast<size_t>(*end);
    fold_[e] = mean;
    seen_[e] = 1;
    verdict_.revisions += *revision;
  } else if (index >= ref_.outputs.size()) {
    Mismatch("more outputs than the reference's " +
             std::to_string(ref_.outputs.size()));
  } else {
    const Reference::Output& want = ref_.outputs[index];
    if (seq != want.sequence || !Near(mean, want.mean)) {
      Mismatch("output " + std::to_string(index) + " (seq " +
               std::to_string(seq) + ", mean " + std::to_string(mean) +
               ") differs from the reference (seq " +
               std::to_string(want.sequence) + ", mean " +
               std::to_string(want.mean) + ")");
    }
    if (spec_.grouped) {
      Result<double> key = key_index_ >= 0
                               ? t.value(key_index_).AsDouble()
                               : Result<double>(Status::NotFound("no key"));
      if (!key.ok() || *key != want.key) {
        Mismatch("output " + std::to_string(index) + " has the wrong key");
      } else {
        ++key_outputs_[static_cast<size_t>(*key)];
      }
    }
  }

  const auto& accuracy = t.accuracy();
  if (static_cast<size_t>(agg_index_) >= accuracy.size() ||
      !accuracy[agg_index_].has_value() ||
      !accuracy[agg_index_]->mean_ci.has_value()) {
    Mismatch("output " + std::to_string(index) + " has no mean interval");
    return;
  }
  const accuracy::AccuracyInfo& info = *accuracy[agg_index_];
  const accuracy::ConfidenceInterval& ci = *info.mean_ci;
  FnvFold(verdict_.digest, DoubleBits(ci.lo));
  FnvFold(verdict_.digest, DoubleBits(ci.hi));
  ++(info.method == accuracy::AccuracyMethod::kBootstrap
         ? verdict_.bootstrap
         : verdict_.analytical);
  // A Lemma 2 interval is centred on its estimate, so missing it is a
  // defect. A percentile bootstrap interval over r resample means can
  // exclude the plug-in estimate when nearly every resample mean falls
  // on one side of it; that is counted, not failed.
  const bool bootstrapped = info.method == accuracy::AccuracyMethod::kBootstrap;
  const bool contains_estimate = ci.Contains(mean);
  verdict_.bootstrap_estimate_outside += bootstrapped && !contains_estimate;
  if (!std::isfinite(ci.lo) || !std::isfinite(ci.hi) || ci.lo > ci.hi ||
      (!contains_estimate && !bootstrapped) ||
      ci.confidence != spec_.confidence) {
    Mismatch("output " + std::to_string(index) + " has interval " +
             ci.ToString() + " around estimate " + std::to_string(mean));
    return;
  }
  ++verdict_.intervals;
  verdict_.covered += ci.Contains(inputs_.x_true_mean[seq]);
  verdict_.halfwidth_sum += 0.5 * ci.Length();
}

Verdict Verifier::Finish() {
  if (spec_.range > 0.0) {
    for (size_t e = 0; e < fold_.size(); ++e) {
      if (!seen_[e]) {
        Mismatch("window ending at " + std::to_string(e) +
                 " was never delivered");
      } else if (!Near(fold_[e], ref_.window_mean_by_end[e])) {
        Mismatch("window ending at " + std::to_string(e) + " folds to " +
                 std::to_string(fold_[e]) + ", reference " +
                 std::to_string(ref_.window_mean_by_end[e]));
      }
    }
  } else if (verdict_.outputs < ref_.outputs.size()) {
    const size_t missing = ref_.outputs.size() - verdict_.outputs;
    Mismatch(std::to_string(missing) + " outputs missing");
    verdict_.mismatches += missing - 1;
  }
  if (!key_outputs_.empty() && verdict_.outputs > 0) {
    verdict_.max_key_share =
        static_cast<double>(
            *std::max_element(key_outputs_.begin(), key_outputs_.end())) /
        static_cast<double>(verdict_.outputs);
  }
  return verdict_;
}

}  // namespace aqlbench
