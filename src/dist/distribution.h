#ifndef AUSDB_DIST_DISTRIBUTION_H_
#define AUSDB_DIST_DISTRIBUTION_H_

#include <memory>
#include <string>

#include "src/common/rng.h"

namespace ausdb {
namespace dist {

/// Concrete distribution families known to the engine.
///
/// The ordinals are explicit because each bootstrap-annotated field's
/// random stream is seeded with its kind's ordinal: renumbering a kind
/// moves its delivered intervals.
enum class DistributionKind {
  kPoint = 0,       ///< Deterministic value (probability 1).
  kGaussian = 1,    ///< Normal(mu, sigma^2).
  kHistogram = 2,   ///< Piecewise-uniform over explicit bins.
  kDiscrete = 3,    ///< Finite support with explicit probabilities.
  kEmpirical = 5,   ///< The raw sample itself (resampling distribution).
  kParametric = 6,  ///< Closed-form parametric family (exact CDF/moments).
};

std::string_view DistributionKindToString(DistributionKind kind);

/// \brief A univariate probability distribution: the value of an uncertain
/// attribute in AUSDB.
///
/// Implementations are immutable after construction and shared by
/// const pointer; query operators never mutate a distribution in place but
/// build new ones. Every distribution can report its moments, CDF and can
/// be sampled, which is all the accuracy engine (analytical path) and the
/// bootstrap engine (Monte Carlo path) need.
class Distribution {
 public:
  virtual ~Distribution() = default;

  virtual DistributionKind kind() const = 0;

  /// Expectation E[X].
  virtual double Mean() const = 0;

  /// Variance Var[X].
  virtual double Variance() const = 0;

  /// P(X <= x).
  virtual double Cdf(double x) const = 0;

  /// One random draw.
  virtual double Sample(Rng& rng) const = 0;

  /// Short human-readable description, e.g. "Gaussian(mu=1, var=2)".
  virtual std::string ToString() const = 0;

  /// sqrt(Variance()).
  double StdDev() const;

  /// P(X > c) = 1 - Cdf(c).
  double ProbGreater(double c) const { return 1.0 - Cdf(c); }

  /// P(X < c); equals Cdf(c) for the continuous families. For discrete
  /// families this subtracts the point mass at c.
  virtual double ProbLess(double c) const { return Cdf(c); }
};

/// Shared immutable distribution handle used throughout the engine.
using DistributionPtr = std::shared_ptr<const Distribution>;

/// \brief Deterministic value: X = value with probability 1.
///
/// Lets deterministic fields flow through the same code paths as uncertain
/// ones (the paper's "single value with probability 1" special case).
class PointDist final : public Distribution {
 public:
  explicit PointDist(double value) : value_(value) {}

  DistributionKind kind() const override { return DistributionKind::kPoint; }
  double Mean() const override { return value_; }
  double Variance() const override { return 0.0; }
  double Cdf(double x) const override { return x >= value_ ? 1.0 : 0.0; }
  double ProbLess(double c) const override { return c > value_ ? 1.0 : 0.0; }
  double Sample(Rng&) const override { return value_; }
  std::string ToString() const override;

  double value() const { return value_; }

 private:
  double value_;
};

/// Convenience factory for a PointDist handle.
DistributionPtr MakePoint(double value);

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_DISTRIBUTION_H_
