#ifndef AUSDB_DIST_DISCRETE_H_
#define AUSDB_DIST_DISCRETE_H_

#include <vector>

#include "src/common/result.h"
#include "src/dist/distribution.h"

namespace ausdb {
namespace dist {

/// \brief Finite-support discrete distribution {(v_i, p_i)}.
///
/// Values are kept sorted ascending; duplicate input values are merged by
/// summing their probabilities.
class DiscreteDist final : public Distribution {
 public:
  /// Validates and builds. Fails with InvalidArgument unless sizes match,
  /// probabilities are >= 0 and sum to 1 (within 1e-9; renormalized).
  static Result<DiscreteDist> Make(std::vector<double> values,
                                   std::vector<double> probs);

  DistributionKind kind() const override {
    return DistributionKind::kDiscrete;
  }
  double Mean() const override;
  double Variance() const override;
  double Cdf(double x) const override;
  double ProbLess(double c) const override;
  double Sample(Rng& rng) const override;
  std::string ToString() const override;

  const std::vector<double>& values() const { return values_; }
  const std::vector<double>& probs() const { return probs_; }

  /// Point mass P(X = v); 0 if v is not in the support.
  double ProbEquals(double v) const;

 private:
  DiscreteDist(std::vector<double> values, std::vector<double> probs);

  std::vector<double> values_;  // ascending
  std::vector<double> probs_;
  std::vector<double> cum_;
};

/// \brief Bernoulli as a DiscreteDist over {0, 1}; handy for result-tuple
/// membership randomness.
Result<DiscreteDist> MakeBernoulli(double p);

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_DISCRETE_H_
