#ifndef AUSDB_DIST_EMPIRICAL_H_
#define AUSDB_DIST_EMPIRICAL_H_

#include <vector>

#include "src/common/result.h"
#include "src/dist/distribution.h"

namespace ausdb {
namespace dist {

/// \brief Empirical distribution of a raw sample: each observation carries
/// mass 1/n.
///
/// Sampling from an EmpiricalDist is exactly "drawing with replacement
/// from the sample", i.e. one bootstrap draw — the bootstrap engine
/// (Section III) is built on this. Moments are the sample moments.
class EmpiricalDist final : public Distribution {
 public:
  /// Validates and builds; observations need not be sorted (a sorted copy
  /// is kept internally). Fails with InvalidArgument on an empty sample.
  static Result<EmpiricalDist> Make(std::vector<double> observations);

  DistributionKind kind() const override {
    return DistributionKind::kEmpirical;
  }
  double Mean() const override;
  double Variance() const override;
  double Cdf(double x) const override;
  double ProbLess(double c) const override;
  double Sample(Rng& rng) const override;
  std::string ToString() const override;

  size_t size() const { return sorted_.size(); }

  /// Ascending observations.
  const std::vector<double>& sorted_observations() const { return sorted_; }

  /// p-quantile (linear interpolation of order statistics).
  double Quantile(double p) const;

 private:
  explicit EmpiricalDist(std::vector<double> sorted);

  std::vector<double> sorted_;
  double mean_;
  double population_variance_;
};

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_EMPIRICAL_H_
