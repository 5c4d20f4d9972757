// Output verification: a reference computed from the benchmark's own
// inputs, and a streaming checker every delivered tuple passes through.

#ifndef AQLBENCH_VERIFY_H_
#define AQLBENCH_VERIFY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/schema.h"
#include "src/engine/tuple.h"
#include "src/hypothesis/mean_tests.h"
#include "workloads.h"

namespace aqlbench {

/// What a correct run delivers, derived from the inputs without the
/// engine: window means from the per-tuple sample means.
struct Reference {
  struct Output {
    uint64_t sequence = 0;
    double key = 0.0;
    double mean = 0.0;
  };
  /// Count-window workloads: every output, in delivery order.
  std::vector<Output> outputs;
  /// RANGE workload: the mean of the window ending at each event time,
  /// which the fold of outputs by window_end must reproduce.
  std::vector<double> window_mean_by_end;
  /// grouped_mtest: v's sample statistics per tuple (the coupled mean
  /// test's input) and the number of tuples the test keeps.
  std::vector<ausdb::hypothesis::SampleStatistics> v_stats;
  size_t filter_kept = 0;
};

/// Builds the reference; fails only if the library rejects an input.
ausdb::Result<Reference> BuildReference(const WorkloadSpec& spec,
                                        const Inputs& inputs);

/// Tally of one verified drain.
struct Verdict {
  size_t outputs = 0;
  /// Delivered tuples (or missing outputs) that fail verification.
  size_t mismatches = 0;
  std::string first_mismatch;
  size_t revisions = 0;
  /// Delivered mean intervals, how many contain the generator's true
  /// mean, and the sum of their half-widths.
  size_t intervals = 0;
  size_t covered = 0;
  double halfwidth_sum = 0.0;
  size_t analytical = 0;
  size_t bootstrap = 0;
  /// Bootstrap intervals that exclude the delivered estimate.
  size_t bootstrap_estimate_outside = 0;
  /// Share of outputs of the busiest group key (grouped_mtest).
  double max_key_share = 0.0;
  /// FNV-1a over every delivered sequence, mean and interval.
  uint64_t digest = 0;

  double coverage() const {
    return intervals ? static_cast<double>(covered) / intervals : 0.0;
  }
  double halfwidth_mean() const {
    return intervals ? halfwidth_sum / intervals : 0.0;
  }
};

/// \brief Checks each delivered tuple against the reference: output
/// counts and order, window means, group keys, the fold by window_end
/// for revisions, and that every mean interval is finite, carries the
/// stated confidence and — for analytical intervals — contains its
/// estimate.
class Verifier {
 public:
  Verifier(const WorkloadSpec& spec, const Inputs& inputs,
           const Reference& ref, const ausdb::engine::Schema& out_schema);

  void Observe(const ausdb::engine::Tuple& t);
  Verdict Finish();

 private:
  void Mismatch(const std::string& what);

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const Reference& ref_;
  int agg_index_ = -1;
  int key_index_ = -1;
  int end_index_ = -1;
  int revision_index_ = -1;
  Verdict verdict_;
  /// RANGE workload: last delivered mean per window end.
  std::vector<double> fold_;
  std::vector<uint8_t> seen_;
  std::vector<size_t> key_outputs_;
};

}  // namespace aqlbench

#endif  // AQLBENCH_VERIFY_H_
