#include "src/bootstrap/bootstrap_accuracy.h"

#include <algorithm>
#include <cmath>

#include "src/bootstrap/resampler.h"
#include "src/dist/learner.h"
#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace bootstrap {

namespace {

// The alpha-level percentile interval of a vector of statistic values:
// between the 100(1-alpha)/2 and 100(1+alpha)/2 percentiles (lines 12-15
// of the paper's algorithm).
accuracy::ConfidenceInterval PercentileInterval(std::vector<double> values,
                                                double confidence) {
  std::sort(values.begin(), values.end());
  accuracy::ConfidenceInterval ci;
  ci.lo = stats::QuantileOfSorted(values, (1.0 - confidence) / 2.0);
  ci.hi = stats::QuantileOfSorted(values, (1.0 + confidence) / 2.0);
  ci.confidence = confidence;
  return ci;
}

Status CheckConfidence(double confidence) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0,1)");
  }
  return Status::OK();
}

// Lines 12-15: the intervals of every statistic over the r resamples.
accuracy::AccuracyInfo PercentileAccuracy(
    size_t n, double confidence,
    std::vector<std::vector<double>> bin_heights, std::vector<double> means,
    std::vector<double> variances) {
  accuracy::AccuracyInfo info;
  info.sample_size = n;
  info.method = accuracy::AccuracyMethod::kBootstrap;
  info.bin_cis.reserve(bin_heights.size());
  for (std::vector<double>& heights : bin_heights) {
    info.bin_cis.push_back(
        PercentileInterval(std::move(heights), confidence));
  }
  info.mean_ci = PercentileInterval(std::move(means), confidence);
  info.variance_ci = PercentileInterval(std::move(variances), confidence);
  return info;
}

}  // namespace

Result<accuracy::AccuracyInfo> BootstrapAccuracyInfo(
    std::span<const double> values, size_t n, double confidence,
    std::span<const double> bin_edges) {
  AUSDB_RETURN_NOT_OK(CheckConfidence(confidence));
  if (n == 0) {
    return Status::InvalidArgument("d.f. sample size must be >= 1");
  }
  const size_t m = values.size();
  const size_t r = m / n;  // line 1: number of d.f. resamples
  if (r < 2) {
    return Status::InsufficientData(
        "BOOTSTRAP-ACCURACY-INFO needs at least 2 complete d.f. "
        "resamples; got m=" +
        std::to_string(m) + " for n=" + std::to_string(n));
  }

  const size_t b = bin_edges.empty() ? 0 : bin_edges.size() - 1;
  std::vector<std::vector<double>> bin_heights(b);
  for (auto& v : bin_heights) v.reserve(r);
  std::vector<double> means;
  std::vector<double> variances;
  means.reserve(r);
  variances.reserve(r);

  for (size_t i = 0; i < r; ++i) {  // lines 2-11: each resample
    const std::span<const double> group = values.subspan(i * n, n);

    if (b > 0) {  // lines 6-8: per-bin frequency within the resample
      const std::vector<size_t> counts = dist::CountBins(group, bin_edges);
      for (size_t k = 0; k < b; ++k) {
        bin_heights[k].push_back(static_cast<double>(counts[k]) /
                                 static_cast<double>(n));
      }
    }

    // Lines 9-10: sample mean and (unbiased) sample variance. Computed
    // with a lean two-pass loop — this runs once per window result in
    // the streaming hot path, so the full higher-moment accumulator is
    // deliberately avoided.
    double mean = 0.0;
    for (double v : group) mean += v;
    mean /= static_cast<double>(n);
    double ss = 0.0;
    for (double v : group) ss += (v - mean) * (v - mean);
    means.push_back(mean);
    variances.push_back(n > 1 ? ss / static_cast<double>(n - 1) : 0.0);
  }

  return PercentileAccuracy(n, confidence, std::move(bin_heights),
                            std::move(means), std::move(variances));
}

Result<accuracy::AccuracyInfo> BootstrapAccuracyFromDistribution(
    const dist::Distribution& d, size_t n, size_t num_resamples,
    double confidence, Rng& rng, std::span<const double> bin_edges) {
  if (n == 0 || num_resamples < 2) {
    return Status::InvalidArgument(
        "need n >= 1 and num_resamples >= 2 to bootstrap a distribution");
  }
  AUSDB_RETURN_NOT_OK(CheckConfidence(confidence));
  if (d.kind() != dist::DistributionKind::kGaussian || !bin_edges.empty()) {
    // The printed algorithm: m = r * n values drawn from d.
    std::vector<double> values(n * num_resamples);
    for (double& v : values) v = d.Sample(rng);
    return BootstrapAccuracyInfo(values, n, confidence, bin_edges);
  }
  // Sufficient-statistic draw. For n iid N(mu, s2) values, lines 9-10
  // yield a sample mean ~ N(mu, s2/n) and, independently of it, a
  // sample variance ~ s2 * chi2(n-1) / (n-1) (Cochran's theorem). Drawing
  // those two per resample gives the joint law of the r (mean, variance)
  // pairs that r * n draws give, from 2r draws.
  const double mu = d.Mean();
  const double s2 = d.Variance();
  const double se = std::sqrt(s2 / static_cast<double>(n));
  const double chi2_shape = 0.5 * static_cast<double>(n - 1);
  std::vector<double> means(num_resamples);
  std::vector<double> variances(num_resamples, 0.0);
  for (size_t i = 0; i < num_resamples; ++i) {
    means[i] = mu + se * rng.NextGaussian();
    if (n > 1) {
      variances[i] = s2 * stats::SampleGamma(rng, chi2_shape, 2.0) /
                     static_cast<double>(n - 1);
    }
  }
  return PercentileAccuracy(n, confidence, {}, std::move(means),
                            std::move(variances));
}

Result<accuracy::ConfidenceInterval> ClassicPercentileBootstrap(
    std::span<const double> sample, size_t num_resamples, double confidence,
    const std::function<double(std::span<const double>)>& statistic,
    Rng& rng) {
  if (sample.empty()) {
    return Status::InsufficientData("cannot bootstrap an empty sample");
  }
  if (num_resamples < 2) {
    return Status::InvalidArgument("need at least 2 resamples");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0,1)");
  }
  std::vector<double> stat_values(num_resamples);
  std::vector<double> buffer(sample.size());
  for (double& value : stat_values) {
    Rng child(rng.NextUint64());
    ResampleInto(sample, buffer, child);
    value = statistic(buffer);
  }
  return PercentileInterval(std::move(stat_values), confidence);
}

}  // namespace bootstrap
}  // namespace ausdb
