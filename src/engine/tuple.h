#ifndef AUSDB_ENGINE_TUPLE_H_
#define AUSDB_ENGINE_TUPLE_H_

#include <optional>
#include <vector>

#include "src/accuracy/accuracy_info.h"
#include "src/accuracy/confidence_interval.h"
#include "src/dist/random_var.h"
#include "src/engine/schema.h"
#include "src/expr/evaluator.h"
#include "src/expr/value.h"
#include "src/hypothesis/test_types.h"

namespace ausdb {
namespace engine {

/// \brief One stream tuple: field values plus the uncertainty model of
/// the paper's Section II-A.
///
/// A tuple carries (a) attribute uncertainty in its values (a field may
/// be a RandomVar) and (b) tuple uncertainty in `membership_prob`, the
/// probability that the tuple exists in the stream/result. Result tuples
/// additionally carry accuracy annotations: a confidence interval for the
/// membership probability and per-field AccuracyInfo, both filled in by
/// the AccuracyAnnotator operator.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<expr::Value> values)
      : values_(std::move(values)) {}

  const std::vector<expr::Value>& values() const { return values_; }
  std::vector<expr::Value>& values() { return values_; }
  const expr::Value& value(size_t i) const { return values_[i]; }
  size_t num_values() const { return values_.size(); }

  /// Probability that this tuple exists (tuple uncertainty); 1 for base
  /// tuples ingested deterministically.
  double membership_prob() const { return membership_prob_; }
  void set_membership_prob(double p) { membership_prob_ = p; }

  /// De facto sample size behind membership_prob (Lemma 3 over the
  /// predicates that produced it); kCertainSampleSize when the
  /// probability is exact.
  size_t membership_df_n() const { return membership_df_n_; }
  void set_membership_df_n(size_t n) { membership_df_n_ = n; }

  /// Theorem 1 interval for the membership probability, if annotated.
  const std::optional<accuracy::ConfidenceInterval>& membership_ci() const {
    return membership_ci_;
  }
  void set_membership_ci(accuracy::ConfidenceInterval ci) {
    membership_ci_ = ci;
  }

  /// Per-field accuracy annotations (parallel to values; absent entries
  /// mean not annotated / deterministic field).
  const std::vector<std::optional<accuracy::AccuracyInfo>>& accuracy()
      const {
    return accuracy_;
  }
  void set_accuracy(size_t i, accuracy::AccuracyInfo info);

  /// Outcome of the last significance-predicate filter this tuple passed
  /// through (TRUE tuples are kept; UNSURE tuples are kept flagged under
  /// FilterOptions::keep_unsure).
  const std::optional<hypothesis::TestOutcome>& significance() const {
    return significance_;
  }
  void set_significance(hypothesis::TestOutcome o) { significance_ = o; }

  /// Arrival sequence number assigned by the source.
  uint64_t sequence() const { return sequence_; }
  void set_sequence(uint64_t s) { sequence_ = s; }

  /// \brief Degradation-ladder rung this tuple was admitted under
  /// (govern::GovernorGate stamps it at the source; 0 = full precision).
  ///
  /// The stamp travels *with* the tuple rather than living in shared
  /// state so every downstream precision decision — annotator sample
  /// counts, reorder horizons — is a pure function of the tuple itself,
  /// independent of pipeline buffering, prefetch depth or thread count.
  /// That is what keeps governed output bit-identical across runs.
  uint32_t precision_rung() const { return precision_rung_; }
  void set_precision_rung(uint32_t rung) { precision_rung_ = rung; }

  /// Approximate heap + inline footprint in bytes, for cooperative
  /// MemoryBudget accounting by buffering operators. An estimate by
  /// design (container slack and allocator overhead are not modeled);
  /// deterministic for a given tuple value.
  size_t ApproxBytes() const;

  /// View of this tuple as an evaluator row over `schema`.
  expr::Row AsRow(const Schema& schema) const {
    return expr::Row{&schema.names(), &values_};
  }

  std::string ToString() const;

 private:
  std::vector<expr::Value> values_;
  double membership_prob_ = 1.0;
  size_t membership_df_n_ = dist::RandomVar::kCertainSampleSize;
  std::optional<accuracy::ConfidenceInterval> membership_ci_;
  std::vector<std::optional<accuracy::AccuracyInfo>> accuracy_;
  std::optional<hypothesis::TestOutcome> significance_;
  uint64_t sequence_ = 0;
  uint32_t precision_rung_ = 0;
};

}  // namespace engine
}  // namespace ausdb

#endif  // AUSDB_ENGINE_TUPLE_H_
