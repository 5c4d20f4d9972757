#ifndef AUSDB_DIST_GAUSSIAN_H_
#define AUSDB_DIST_GAUSSIAN_H_

#include "src/dist/distribution.h"

namespace ausdb {
namespace dist {

/// \brief Normal distribution N(mu, sigma^2).
///
/// The workhorse family for closed-form query processing: sums, differences
/// and affine transforms of independent Gaussians stay Gaussian, which the
/// sliding-window AVG operator exploits (paper Section V-C).
class GaussianDist final : public Distribution {
 public:
  /// Requires variance >= 0.
  GaussianDist(double mean, double variance);

  DistributionKind kind() const override {
    return DistributionKind::kGaussian;
  }
  double Mean() const override { return mean_; }
  double Variance() const override { return variance_; }
  double Cdf(double x) const override;
  double Sample(Rng& rng) const override;
  std::string ToString() const override;

  /// Probability density at x.
  double Pdf(double x) const;

  /// Inverse CDF.
  double Quantile(double p) const;

 private:
  double mean_;
  double variance_;
};

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_GAUSSIAN_H_
