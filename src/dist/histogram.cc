#include "src/dist/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/common/math_util.h"
#include "src/dist/kernels.h"

namespace ausdb {
namespace dist {

Result<HistogramDist> HistogramDist::Make(std::vector<double> edges,
                                          std::vector<double> probs) {
  if (probs.empty()) {
    return Status::InvalidArgument("histogram needs at least one bin");
  }
  if (edges.size() != probs.size() + 1) {
    return Status::InvalidArgument(
        "histogram needs probs.size()+1 edges; got " +
        std::to_string(edges.size()) + " edges for " +
        std::to_string(probs.size()) + " bins");
  }
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    if (!(edges[i] < edges[i + 1])) {
      return Status::InvalidArgument(
          "histogram edges must be strictly ascending");
    }
  }
  double total = 0.0;
  for (double p : probs) {
    if (p < 0.0 || !std::isfinite(p)) {
      return Status::InvalidArgument(
          "histogram bin probabilities must be finite and >= 0");
    }
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        "histogram bin probabilities must sum to 1; got " +
        std::to_string(total));
  }
  // Renormalize exactly to absorb rounding.
  for (double& p : probs) p /= total;
  return HistogramDist(std::move(edges), std::move(probs));
}

HistogramDist::HistogramDist(std::vector<double> edges,
                             std::vector<double> probs)
    : edges_(std::move(edges)), probs_(std::move(probs)) {
  cum_.resize(probs_.size());
  double acc = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    acc += probs_[i];
    cum_[i] = acc;
  }
  cum_.back() = 1.0;
}

double HistogramDist::Mean() const {
  double m = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) m += probs_[i] * BinMid(i);
  return m;
}

double HistogramDist::Variance() const {
  // Uniform-within-bin second moment: E[X^2 | bin i] = mid^2 + width^2/12.
  const double mean = Mean();
  double ex2 = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    ex2 += probs_[i] * (Sq(BinMid(i)) + Sq(BinWidth(i)) / 12.0);
  }
  return std::max(0.0, ex2 - Sq(mean));
}

double HistogramDist::Cdf(double x) const {
  if (x < edges_.front()) return 0.0;
  if (x >= edges_.back()) return 1.0;
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  const size_t bin = static_cast<size_t>(it - edges_.begin()) - 1;
  const double below = bin == 0 ? 0.0 : cum_[bin - 1];
  const double frac = (x - edges_[bin]) / BinWidth(bin);
  return below + probs_[bin] * frac;
}

void HistogramDist::CdfMany(std::span<const double> xs,
                            std::span<double> out) const {
  HistogramCdfMany(edges_, probs_, cum_, xs, out);
}

size_t HistogramDist::SampleBin(double u) const {
  // upper_bound (first cum > u), not lower_bound (first cum >= u): a
  // draw landing exactly on a cumulative boundary — u == 0.0 with a
  // zero-probability head bin, or u == cum_[i] below a zero-probability
  // interior bin — must select the next bin that carries mass. A
  // zero-mass bin has cum_[i] == cum_[i-1], so upper_bound skips the
  // whole run of them; lower_bound stopped at the first, returning a
  // value from a bin the distribution assigns probability zero.
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
  return std::min(static_cast<size_t>(it - cum_.begin()),
                  probs_.size() - 1);
}

double HistogramDist::Sample(Rng& rng) const {
  const size_t bin = SampleBin(rng.NextDouble());
  return edges_[bin] + BinWidth(bin) * rng.NextDouble();
}

size_t HistogramDist::BinIndex(double x) const {
  if (x < edges_.front()) return 0;
  if (x >= edges_.back()) return probs_.size() - 1;
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  return static_cast<size_t>(it - edges_.begin()) - 1;
}

Result<HistogramDist> HistogramDist::WithProbs(
    std::vector<double> probs) const {
  return Make(edges_, std::move(probs));
}

std::string HistogramDist::ToString() const {
  std::ostringstream os;
  os << "Histogram(bins=" << probs_.size() << ", range=["
     << edges_.front() << ", " << edges_.back() << "))";
  return os.str();
}

}  // namespace dist
}  // namespace ausdb
