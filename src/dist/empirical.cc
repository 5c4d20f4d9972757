#include "src/dist/empirical.h"

#include <algorithm>
#include <sstream>

#include "src/stats/descriptive.h"
#include "src/stats/percentile.h"

namespace ausdb {
namespace dist {

Result<EmpiricalDist> EmpiricalDist::Make(
    std::vector<double> observations) {
  if (observations.empty()) {
    return Status::InvalidArgument(
        "empirical distribution needs at least one observation");
  }
  std::sort(observations.begin(), observations.end());
  return EmpiricalDist(std::move(observations));
}

EmpiricalDist::EmpiricalDist(std::vector<double> sorted)
    : sorted_(std::move(sorted)) {
  const auto summary = stats::Summarize(sorted_);
  mean_ = summary.mean;
  population_variance_ = summary.population_variance;
}

double EmpiricalDist::Mean() const { return mean_; }

double EmpiricalDist::Variance() const { return population_variance_; }

double EmpiricalDist::Cdf(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDist::ProbLess(double c) const {
  const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), c);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalDist::Sample(Rng& rng) const {
  return sorted_[rng.NextBelow(sorted_.size())];
}

double EmpiricalDist::Quantile(double p) const {
  return stats::QuantileOfSorted(sorted_, p);
}

std::string EmpiricalDist::ToString() const {
  std::ostringstream os;
  os << "Empirical(n=" << sorted_.size() << ")";
  return os.str();
}

}  // namespace dist
}  // namespace ausdb
