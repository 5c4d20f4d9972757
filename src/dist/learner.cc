#include "src/dist/learner.h"

#include <algorithm>
#include <cmath>

#include "src/dist/empirical.h"
#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"

namespace ausdb {
namespace dist {

namespace {

std::vector<double> EqualWidthEdges(double lo, double hi, size_t bins) {
  std::vector<double> edges(bins + 1);
  const double width = (hi - lo) / static_cast<double>(bins);
  for (size_t i = 0; i <= bins; ++i) {
    edges[i] = lo + width * static_cast<double>(i);
  }
  edges.back() = hi;  // avoid accumulation error on the last edge
  return edges;
}

}  // namespace

Result<std::vector<double>> ComputeBinEdges(
    std::span<const double> observations,
    const HistogramLearnOptions& options) {
  if (observations.empty()) {
    return Status::InsufficientData("cannot bin an empty sample");
  }
  if (options.policy == BinningPolicy::kExplicitEdges) {
    if (options.edges.size() < 2) {
      return Status::InvalidArgument(
          "explicit edges policy needs at least 2 edges");
    }
    return options.edges;
  }

  const auto [min_it, max_it] =
      std::minmax_element(observations.begin(), observations.end());
  double lo = *min_it;
  double hi = *max_it;
  if (lo == hi) {
    // Degenerate sample: a single unit-width bin centered on the value.
    lo -= 0.5;
    hi += 0.5;
  }
  const double pad = (hi - lo) * options.range_padding;
  lo -= pad;
  hi += pad;

  const double n = static_cast<double>(observations.size());
  size_t bins = 0;
  switch (options.policy) {
    case BinningPolicy::kEqualWidth:
      if (options.bin_count == 0) {
        return Status::InvalidArgument("bin_count must be >= 1");
      }
      bins = options.bin_count;
      break;
    case BinningPolicy::kSturges:
      bins = static_cast<size_t>(std::ceil(std::log2(n))) + 1;
      break;
    case BinningPolicy::kFreedmanDiaconis: {
      const double q1 = stats::Quantile(observations, 0.25);
      const double q3 = stats::Quantile(observations, 0.75);
      const double iqr = q3 - q1;
      if (iqr <= 0.0) {
        bins = static_cast<size_t>(std::ceil(std::log2(n))) + 1;
      } else {
        const double width = 2.0 * iqr / std::cbrt(n);
        bins = std::max<size_t>(
            1, static_cast<size_t>(std::ceil((hi - lo) / width)));
      }
      break;
    }
    case BinningPolicy::kExplicitEdges:
      break;  // handled above
  }
  return EqualWidthEdges(lo, hi, bins);
}

std::vector<size_t> CountBins(std::span<const double> observations,
                              std::span<const double> edges) {
  std::vector<size_t> counts(edges.size() - 1, 0);
  for (double x : observations) {
    size_t bin;
    if (x < edges.front()) {
      bin = 0;
    } else if (x >= edges.back()) {
      bin = counts.size() - 1;
    } else {
      const auto it = std::upper_bound(edges.begin(), edges.end(), x);
      bin = static_cast<size_t>(it - edges.begin()) - 1;
    }
    ++counts[bin];
  }
  return counts;
}

Result<LearnedDistribution> LearnHistogram(
    std::span<const double> observations,
    const HistogramLearnOptions& options) {
  if (observations.empty()) {
    return Status::InsufficientData(
        "cannot learn a histogram from an empty sample");
  }
  AUSDB_ASSIGN_OR_RETURN(std::vector<double> edges,
                         ComputeBinEdges(observations, options));
  const std::vector<size_t> counts = CountBins(observations, edges);
  const double n = static_cast<double>(observations.size());
  std::vector<double> probs;
  probs.reserve(counts.size());
  for (size_t c : counts) probs.push_back(static_cast<double>(c) / n);
  AUSDB_ASSIGN_OR_RETURN(HistogramDist hist,
                         HistogramDist::Make(std::move(edges),
                                             std::move(probs)));
  LearnedDistribution out;
  out.distribution = std::make_shared<HistogramDist>(std::move(hist));
  out.sample_size = observations.size();
  out.raw_sample = std::make_shared<const std::vector<double>>(
      observations.begin(), observations.end());
  return out;
}

Result<LearnedDistribution> LearnGaussian(
    std::span<const double> observations) {
  if (observations.size() < 2) {
    return Status::InsufficientData(
        "learning a Gaussian requires at least 2 observations");
  }
  const stats::MeanVariance moments =
      stats::SummarizeMeanVariance(observations);
  if (std::isnan(moments.sample_variance)) {
    return Status::InvalidArgument(
        "cannot learn a Gaussian: non-finite observations give a NaN "
        "variance");
  }
  LearnedDistribution out;
  out.distribution =
      std::make_shared<GaussianDist>(moments.mean, moments.sample_variance);
  out.sample_size = observations.size();
  out.raw_sample = std::make_shared<const std::vector<double>>(
      observations.begin(), observations.end());
  return out;
}

Result<LearnedDistribution> LearnEmpirical(
    std::span<const double> observations) {
  AUSDB_ASSIGN_OR_RETURN(
      EmpiricalDist emp,
      EmpiricalDist::Make(
          std::vector<double>(observations.begin(), observations.end())));
  LearnedDistribution out;
  out.distribution = std::make_shared<EmpiricalDist>(std::move(emp));
  out.sample_size = observations.size();
  out.raw_sample = std::make_shared<const std::vector<double>>(
      observations.begin(), observations.end());
  return out;
}

}  // namespace dist
}  // namespace ausdb
