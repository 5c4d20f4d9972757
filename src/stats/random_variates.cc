#include "src/stats/random_variates.h"

#include <cmath>

#include "src/common/logging.h"

namespace ausdb {
namespace stats {

double SampleExponential(Rng& rng, double lambda) {
  AUSDB_CHECK(lambda > 0.0) << "Exponential rate must be > 0";
  // Inverse CDF; 1 - U avoids log(0).
  return -std::log(1.0 - rng.NextDouble()) / lambda;
}

double SampleGamma(Rng& rng, double k, double theta) {
  return GammaSampler(k, theta).Sample(rng);
}

GammaSampler::GammaSampler(double k, double theta)
    : theta_(theta),
      inv_k_(1.0 / k),
      boost_(k < 1.0),
      d_((boost_ ? k + 1.0 : k) - 1.0 / 3.0),
      c_(1.0 / std::sqrt(9.0 * d_)) {
  AUSDB_CHECK(k > 0.0 && theta > 0.0)
      << "Gamma requires k > 0 and theta > 0";
}

double SampleNormal(Rng& rng, double mu, double sigma) {
  AUSDB_CHECK(sigma >= 0.0) << "Normal sigma must be >= 0";
  return mu + sigma * rng.NextGaussian();
}

double SampleUniform(Rng& rng, double lo, double hi) {
  return rng.NextDouble(lo, hi);
}

double SampleWeibull(Rng& rng, double lambda, double k) {
  AUSDB_CHECK(lambda > 0.0 && k > 0.0)
      << "Weibull requires lambda > 0 and k > 0";
  const double u = 1.0 - rng.NextDouble();
  return lambda * std::pow(-std::log(u), 1.0 / k);
}

double SampleLognormal(Rng& rng, double mu_log, double sigma_log) {
  return std::exp(SampleNormal(rng, mu_log, sigma_log));
}

size_t SampleBinomial(Rng& rng, size_t n, double p) {
  AUSDB_CHECK(p >= 0.0 && p <= 1.0) << "Binomial p must be in [0,1]";
  if (n == 0 || p == 0.0) return 0;
  if (p == 1.0) return n;
  if (n <= 1000) {
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextDouble() < p) ++count;
    }
    return count;
  }
  // Normal approximation with continuity correction for large n.
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  double x = std::round(mean + sd * rng.NextGaussian());
  if (x < 0.0) x = 0.0;
  if (x > static_cast<double>(n)) x = static_cast<double>(n);
  return static_cast<size_t>(x);
}

}  // namespace stats
}  // namespace ausdb
