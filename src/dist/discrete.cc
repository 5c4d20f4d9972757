#include "src/dist/discrete.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "src/common/math_util.h"

namespace ausdb {
namespace dist {

Result<DiscreteDist> DiscreteDist::Make(std::vector<double> values,
                                        std::vector<double> probs) {
  if (values.empty()) {
    return Status::InvalidArgument(
        "discrete distribution needs at least one value");
  }
  if (values.size() != probs.size()) {
    return Status::InvalidArgument(
        "discrete distribution needs matching values/probs sizes");
  }
  double total = 0.0;
  for (double p : probs) {
    if (p < 0.0 || !std::isfinite(p)) {
      return Status::InvalidArgument(
          "discrete probabilities must be finite and >= 0");
    }
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        "discrete probabilities must sum to 1; got " +
        std::to_string(total));
  }

  // Sort by value and merge duplicates.
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> sorted_values;
  std::vector<double> sorted_probs;
  sorted_values.reserve(values.size());
  sorted_probs.reserve(values.size());
  for (size_t idx : order) {
    if (!sorted_values.empty() && sorted_values.back() == values[idx]) {
      sorted_probs.back() += probs[idx] / total;
    } else {
      sorted_values.push_back(values[idx]);
      sorted_probs.push_back(probs[idx] / total);
    }
  }
  return DiscreteDist(std::move(sorted_values), std::move(sorted_probs));
}

DiscreteDist::DiscreteDist(std::vector<double> values,
                           std::vector<double> probs)
    : values_(std::move(values)), probs_(std::move(probs)) {
  cum_.resize(probs_.size());
  double acc = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i];
    cum_[i] = acc;
  }
  cum_.back() = 1.0;
}

double DiscreteDist::Mean() const {
  double m = 0.0;
  for (size_t i = 0; i < values_.size(); ++i) m += probs_[i] * values_[i];
  return m;
}

double DiscreteDist::Variance() const {
  const double mean = Mean();
  double ex2 = 0.0;
  for (size_t i = 0; i < values_.size(); ++i) {
    ex2 += probs_[i] * Sq(values_[i]);
  }
  return std::max(0.0, ex2 - Sq(mean));
}

double DiscreteDist::Cdf(double x) const {
  // Largest index with values_[i] <= x.
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0.0;
  return cum_[static_cast<size_t>(it - values_.begin()) - 1];
}

double DiscreteDist::ProbLess(double c) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), c);
  if (it == values_.begin()) return 0.0;
  return cum_[static_cast<size_t>(it - values_.begin()) - 1];
}

double DiscreteDist::ProbEquals(double v) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), v);
  if (it == values_.end() || *it != v) return 0.0;
  return probs_[static_cast<size_t>(it - values_.begin())];
}

double DiscreteDist::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
  const size_t idx = std::min(static_cast<size_t>(it - cum_.begin()),
                              values_.size() - 1);
  return values_[idx];
}

std::string DiscreteDist::ToString() const {
  std::ostringstream os;
  os << "Discrete(support=" << values_.size() << ")";
  return os.str();
}

Result<DiscreteDist> MakeBernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("Bernoulli p must be in [0,1]");
  }
  return DiscreteDist::Make({0.0, 1.0}, {1.0 - p, p});
}

}  // namespace dist
}  // namespace ausdb
