#ifndef AUSDB_STATS_RANDOM_VARIATES_H_
#define AUSDB_STATS_RANDOM_VARIATES_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/common/rng.h"

namespace ausdb {
namespace stats {

/// \brief Variate generators for the distribution families used by the
/// paper's synthetic workloads (Section V-A) and by the CarTel simulator.
///
/// These replace the paper's use of the R statistical package; each
/// generator is exact (inverse-CDF or accept-reject), not approximate.

/// Exponential with rate lambda (mean 1/lambda). Requires lambda > 0.
double SampleExponential(Rng& rng, double lambda);

/// Gamma with shape k and scale theta (mean k*theta). Marsaglia-Tsang
/// squeeze method; the k < 1 case uses the boosting transform. Requires
/// k > 0, theta > 0.
double SampleGamma(Rng& rng, double k, double theta);

/// \brief SampleGamma for one shape and scale, with the Marsaglia-Tsang
/// constants d = k - 1/3 and c = 1/sqrt(9d) (of k + 1 when k < 1)
/// computed once instead of once per draw. Each Sample(rng) draws what
/// SampleGamma(rng, k, theta) draws, bit for bit. Inline, so a draw loop
/// makes no calls.
class GammaSampler {
 public:
  /// Requires k > 0, theta > 0.
  GammaSampler(double k, double theta);

  double Sample(Rng& rng) const {
    if (boost_) {
      // Gamma(k) = Gamma(k+1) * U^{1/k}, U drawn first.
      const double u = rng.NextDouble();
      return SampleShapeAtLeastOne(rng) * std::pow(u, inv_k_);
    }
    return SampleShapeAtLeastOne(rng);
  }

 private:
  /// The Marsaglia-Tsang (2000) squeeze loop for shape d_ + 1/3 >= 1.
  double SampleShapeAtLeastOne(Rng& rng) const {
    for (;;) {
      double x, v;
      do {
        x = rng.NextGaussian();
        v = 1.0 + c_ * x;
      } while (v <= 0.0);
      v = v * v * v;
      const double u = rng.NextDouble();
      const double x2 = x * x;
      if (u < 1.0 - 0.0331 * x2 * x2) return d_ * v * theta_;
      if (u > 0.0 &&
          std::log(u) < 0.5 * x2 + d_ * (1.0 - v + std::log(v))) {
        return d_ * v * theta_;
      }
    }
  }

  double theta_;
  double inv_k_;  // 1/k, the boost exponent; read only when boost_
  bool boost_;    // k < 1
  double d_;
  double c_;
};

/// Normal with mean mu and standard deviation sigma. Requires sigma >= 0.
double SampleNormal(Rng& rng, double mu, double sigma);

/// Uniform on [lo, hi).
double SampleUniform(Rng& rng, double lo, double hi);

/// Weibull with scale lambda and shape k (inverse-CDF). Requires
/// lambda > 0, k > 0.
double SampleWeibull(Rng& rng, double lambda, double k);

/// Lognormal: exp(Normal(mu_log, sigma_log)).
double SampleLognormal(Rng& rng, double mu_log, double sigma_log);

/// Binomial(n, p) count by summation of Bernoulli draws for small n and a
/// normal approximation with continuity correction beyond n = 1000.
size_t SampleBinomial(Rng& rng, size_t n, double p);

/// n iid draws from any of the above via a callable.
template <typename F>
std::vector<double> SampleMany(size_t n, F&& draw) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(draw());
  return out;
}

}  // namespace stats
}  // namespace ausdb

#endif  // AUSDB_STATS_RANDOM_VARIATES_H_
