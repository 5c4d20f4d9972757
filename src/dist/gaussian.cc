#include "src/dist/gaussian.h"

#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/stats/quantiles.h"

namespace ausdb {
namespace dist {

GaussianDist::GaussianDist(double mean, double variance)
    : mean_(mean), variance_(variance) {
  AUSDB_CHECK(variance >= 0.0)
      << "Gaussian variance must be >= 0, got " << variance;
}

double GaussianDist::Cdf(double x) const {
  if (variance_ == 0.0) return x >= mean_ ? 1.0 : 0.0;
  return stats::NormalCdf((x - mean_) / std::sqrt(variance_));
}

double GaussianDist::Sample(Rng& rng) const {
  return mean_ + std::sqrt(variance_) * rng.NextGaussian();
}

double GaussianDist::Pdf(double x) const {
  if (variance_ == 0.0) return x == mean_ ? HUGE_VAL : 0.0;
  const double z = (x - mean_) / std::sqrt(variance_);
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI * variance_);
}

double GaussianDist::Quantile(double p) const {
  AUSDB_CHECK(p > 0.0 && p < 1.0)
      << "Gaussian quantile requires p in (0,1)";
  return mean_ + std::sqrt(variance_) * stats::NormalQuantile(p);
}

std::string GaussianDist::ToString() const {
  std::ostringstream os;
  os << "Gaussian(mu=" << mean_ << ", var=" << variance_ << ")";
  return os.str();
}

}  // namespace dist
}  // namespace ausdb
