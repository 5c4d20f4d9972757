#ifndef AUSDB_WORKLOAD_FAMILY_DISTRIBUTION_H_
#define AUSDB_WORKLOAD_FAMILY_DISTRIBUTION_H_

#include "src/dist/distribution.h"
#include "src/workload/synthetic.h"

namespace ausdb {
namespace workload {

/// \brief Exact parametric Distribution for one of the paper's five
/// synthetic families — used as ground truth in the evaluation harnesses
/// (known CDF, mean and variance; sampling via the exact generators).
class FamilyDist final : public dist::Distribution {
 public:
  explicit FamilyDist(Family family) : family_(family) {}

  dist::DistributionKind kind() const override {
    return dist::DistributionKind::kParametric;
  }
  double Mean() const override { return FamilyMean(family_); }
  double Variance() const override { return FamilyVariance(family_); }
  double Cdf(double x) const override { return FamilyCdf(family_, x); }
  double Sample(Rng& rng) const override {
    return SampleFamily(rng, family_);
  }
  std::string ToString() const override {
    return std::string(FamilyToString(family_)) + "(paper params)";
  }

  Family family() const { return family_; }

 private:
  Family family_;
};

}  // namespace workload
}  // namespace ausdb

#endif  // AUSDB_WORKLOAD_FAMILY_DISTRIBUTION_H_
