#include "src/bootstrap/bootstrap_accuracy.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "src/bootstrap/resampler.h"
#include "src/dist/learner.h"
#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"
#include "src/stats/random_variates.h"

namespace ausdb {
namespace bootstrap {

namespace {

// Replaces the root of the binary heap h[0, k), whose root comes last in
// `order`, by x and sifts x down.
template <typename Order>
void ReplaceRoot(double* h, size_t k, double x, Order order) {
  size_t i = 0;
  for (size_t c = 1; c < k; c = 2 * i + 1) {
    if (c + 1 < k && order(h[c], h[c + 1])) ++c;
    if (!order(x, h[c])) break;
    h[i] = h[c];
    i = c;
  }
  h[i] = x;
}

// Puts the `low` (>= 1) smallest values in ascending order at the front
// and the `high` largest of the rest in ascending order at the back, in
// one pass and O(r log k) for k = max(low, high). A max-heap at the front
// keeps the smallest `low` seen. Every value it turns away is written
// back in place behind it, and the first `high` of those become a
// min-heap of the largest turned away.
void SelectEnds(std::span<double> values, size_t low, size_t high) {
  double* const lo = values.data();
  double* const hi = lo + low;
  std::make_heap(lo, lo + low);
  for (size_t i = low; i < values.size(); ++i) {
    double x = values[i];
    if (x < lo[0]) {
      const double largest = lo[0];
      ReplaceRoot(lo, low, x, std::less<>());
      x = largest;
    }
    if (i - low < high) {
      values[i] = x;
      if (i - low + 1 == high) std::make_heap(hi, hi + high, std::greater<>());
    } else if (high > 0 && x > hi[0]) {
      values[i] = hi[0];
      ReplaceRoot(hi, high, x, std::greater<>());
    } else {
      values[i] = x;
    }
  }
  std::sort_heap(lo, lo + low);
  std::sort_heap(hi, hi + high, std::greater<>());  // descending
  std::reverse(hi, values.data() + values.size());
}

// The alpha-level percentile interval of r statistic values: between the
// 100(1-alpha)/2 and 100(1+alpha)/2 percentiles (lines 12-15 of the
// paper's algorithm). QuantileOfSorted reads two adjacent order
// statistics at each cut, so only the ranks up to the low pair and from
// the high pair on are selected. Every rank that QuantileOfSorted then
// reads holds the value a full sort puts there, so the interval's bits
// are the sorted interval's. Reorders `values`.
accuracy::ConfidenceInterval PercentileInterval(std::span<double> values,
                                                double confidence) {
  const double p_lo = (1.0 - confidence) / 2.0;
  const double p_hi = (1.0 + confidence) / 2.0;
  const size_t r = values.size();
  const size_t low_end = std::min(stats::LinearQuantileRank(r, p_lo) + 2, r);
  const size_t high_begin =
      std::max(low_end, stats::LinearQuantileRank(r, p_hi));
  SelectEnds(values, low_end, r - high_begin);
  accuracy::ConfidenceInterval ci;
  ci.lo = stats::QuantileOfSorted(values, p_lo);
  ci.hi = stats::QuantileOfSorted(values, p_hi);
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
// `rows` holds r values per statistic: the bin heights of each bin in
// turn, then the means, then the variances.
accuracy::AccuracyInfo PercentileAccuracy(size_t n, double confidence,
                                          size_t r, std::span<double> rows) {
  const size_t bins = rows.size() / r - 2;
  accuracy::AccuracyInfo info;
  info.sample_size = n;
  info.method = accuracy::AccuracyMethod::kBootstrap;
  info.bin_cis.reserve(bins);
  for (size_t k = 0; k < bins; ++k) {
    info.bin_cis.push_back(
        PercentileInterval(rows.subspan(k * r, r), confidence));
  }
  info.mean_ci = PercentileInterval(rows.subspan(bins * r, r), confidence);
  info.variance_ci =
      PercentileInterval(rows.subspan((bins + 1) * r, r), confidence);
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
  // One row of r values per statistic: b bin heights, means, variances.
  std::vector<double> rows((b + 2) * r);
  double* const means = rows.data() + b * r;
  double* const variances = means + r;

  for (size_t i = 0; i < r; ++i) {  // lines 2-11: each resample
    const std::span<const double> group = values.subspan(i * n, n);

    if (b > 0) {  // lines 6-8: per-bin frequency within the resample
      const std::vector<size_t> counts = dist::CountBins(group, bin_edges);
      for (size_t k = 0; k < b; ++k) {
        rows[k * r + i] =
            static_cast<double>(counts[k]) / static_cast<double>(n);
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
    means[i] = mean;
    variances[i] = n > 1 ? ss / static_cast<double>(n - 1) : 0.0;
  }

  return PercentileAccuracy(n, confidence, r, rows);
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
  // The r means, then the r variances. At n == 1 the chi2 shape (n-1)/2
  // is 0: no variance is drawn and each is 0.
  std::vector<double> rows(2 * num_resamples, 0.0);
  double* const means = rows.data();
  double* const variances = means + num_resamples;
  std::optional<stats::GammaSampler> chi2;
  if (n > 1) chi2.emplace(0.5 * static_cast<double>(n - 1), 2.0);
  for (size_t i = 0; i < num_resamples; ++i) {
    means[i] = mu + se * rng.NextGaussian();
    if (chi2) {
      variances[i] = s2 * chi2->Sample(rng) / static_cast<double>(n - 1);
    }
  }
  return PercentileAccuracy(n, confidence, num_resamples, rows);
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
  return PercentileInterval(stat_values, confidence);
}

}  // namespace bootstrap
}  // namespace ausdb
