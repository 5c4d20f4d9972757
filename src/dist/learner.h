#ifndef AUSDB_DIST_LEARNER_H_
#define AUSDB_DIST_LEARNER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/dist/distribution.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"

namespace ausdb {
namespace dist {

/// How histogram bin edges are chosen when learning from a raw sample.
enum class BinningPolicy {
  /// `bin_count` equal-width bins spanning [min, max] of the sample.
  kEqualWidth,
  /// Sturges' rule: ceil(log2 n) + 1 bins, equal width.
  kSturges,
  /// Freedman-Diaconis: width 2*IQR/n^(1/3), equal width.
  kFreedmanDiaconis,
  /// Caller-provided explicit edges.
  kExplicitEdges,
};

/// Options for LearnHistogram.
struct HistogramLearnOptions {
  BinningPolicy policy = BinningPolicy::kEqualWidth;
  /// Used by kEqualWidth.
  size_t bin_count = 10;
  /// Used by kExplicitEdges.
  std::vector<double> edges;
  /// Widen the [min, max] data range by this fraction on each side so the
  /// extreme observations fall strictly inside the outer bins.
  double range_padding = 1e-9;
};

/// \brief A distribution learned from a raw sample, together with the
/// provenance the accuracy engine needs: the sample size n (Lemmas 1-2)
/// and, optionally, the raw observations (bootstrap path).
struct LearnedDistribution {
  DistributionPtr distribution;
  size_t sample_size = 0;
  /// Raw observations retained for bootstrapping; may be empty if the
  /// caller chose not to keep them.
  std::shared_ptr<const std::vector<double>> raw_sample;
};

/// \brief Learns a histogram distribution from iid raw observations
/// (the paper's transformation of Figure 1 raw records into a single
/// record with a distribution field).
///
/// Fails with InsufficientData on an empty sample and InvalidArgument on
/// bad options.
Result<LearnedDistribution> LearnHistogram(
    std::span<const double> observations,
    const HistogramLearnOptions& options = {});

/// \brief Learns a Gaussian by maximum likelihood (sample mean, unbiased
/// sample variance). Requires at least 2 observations; InvalidArgument
/// when non-finite observations make the variance NaN.
Result<LearnedDistribution> LearnGaussian(
    std::span<const double> observations);

/// \brief Wraps the raw sample itself as an EmpiricalDist.
Result<LearnedDistribution> LearnEmpirical(
    std::span<const double> observations);

/// \brief Computes histogram bin edges for a sample under `options`
/// without building the distribution; exposed for tests and for learning
/// many histograms over a shared grid.
Result<std::vector<double>> ComputeBinEdges(
    std::span<const double> observations,
    const HistogramLearnOptions& options);

/// \brief Bin counts of `observations` over explicit `edges`
/// (out-of-range observations are clamped into the first/last bin).
std::vector<size_t> CountBins(std::span<const double> observations,
                              std::span<const double> edges);

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_LEARNER_H_
