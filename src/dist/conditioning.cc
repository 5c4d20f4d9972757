#include "src/dist/conditioning.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/math_util.h"
#include "src/dist/discrete.h"
#include "src/dist/empirical.h"
#include "src/dist/gaussian.h"
#include "src/dist/histogram.h"
#include "src/dist/mixture.h"
#include "src/stats/quantiles.h"

namespace ausdb {
namespace dist {

namespace {

constexpr double kMinEventProbability = 1e-12;
constexpr double kInf = std::numeric_limits<double>::infinity();

double StdNormalPdf(double z) {
  return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

/// Gaussian truncated to (lo, hi]: closed-form moments and CDF.
class TruncatedGaussianDist final : public Distribution {
 public:
  TruncatedGaussianDist(double mu, double sigma, double lo, double hi)
      : mu_(mu), sigma_(sigma), lo_(lo), hi_(hi) {
    alpha_ = (lo_ - mu_) / sigma_;
    beta_ = (hi_ - mu_) / sigma_;
    cdf_alpha_ = std::isinf(alpha_) ? 0.0 : stats::NormalCdf(alpha_);
    cdf_beta_ = std::isinf(beta_) ? 1.0 : stats::NormalCdf(beta_);
    z_ = cdf_beta_ - cdf_alpha_;
    const double pdf_alpha = std::isinf(alpha_) ? 0.0 : StdNormalPdf(alpha_);
    const double pdf_beta = std::isinf(beta_) ? 0.0 : StdNormalPdf(beta_);
    const double ratio = (pdf_alpha - pdf_beta) / z_;
    mean_ = mu_ + sigma_ * ratio;
    const double a_term = std::isinf(alpha_) ? 0.0 : alpha_ * pdf_alpha;
    const double b_term = std::isinf(beta_) ? 0.0 : beta_ * pdf_beta;
    variance_ = sigma_ * sigma_ *
                std::max(0.0, 1.0 + (a_term - b_term) / z_ - Sq(ratio));
  }

  DistributionKind kind() const override {
    return DistributionKind::kParametric;
  }
  double Mean() const override { return mean_; }
  double Variance() const override { return variance_; }
  double Cdf(double x) const override {
    if (x <= lo_) return 0.0;
    if (x >= hi_) return 1.0;
    return (stats::NormalCdf((x - mu_) / sigma_) - cdf_alpha_) / z_;
  }
  double Sample(Rng& rng) const override {
    const double u = cdf_alpha_ + rng.NextDouble() * z_;
    return mu_ + sigma_ * stats::NormalQuantile(
                              Clamp(u, 1e-15, 1.0 - 1e-15));
  }
  std::string ToString() const override {
    return "TruncatedGaussian(mu=" + std::to_string(mu_) +
           ", sigma=" + std::to_string(sigma_) + ", (" +
           std::to_string(lo_) + ", " + std::to_string(hi_) + "])";
  }
  std::shared_ptr<Distribution> Clone() const override {
    return std::make_shared<TruncatedGaussianDist>(mu_, sigma_, lo_, hi_);
  }

 private:
  double mu_, sigma_, lo_, hi_;
  double alpha_, beta_, cdf_alpha_, cdf_beta_, z_;
  double mean_, variance_;
};

Result<DistributionPtr> ConditionHistogram(const HistogramDist& h,
                                           double lo, double hi) {
  std::vector<double> edges;
  std::vector<double> masses;
  for (size_t i = 0; i < h.bin_count(); ++i) {
    const double b_lo = h.edges()[i];
    const double b_hi = h.edges()[i + 1];
    const double clip_lo = std::max(b_lo, lo);
    const double clip_hi = std::min(b_hi, hi);
    if (clip_hi <= clip_lo) continue;
    const double fraction = (clip_hi - clip_lo) / (b_hi - b_lo);
    const double mass = h.BinProb(i) * fraction;
    if (mass <= 0.0) continue;
    if (edges.empty() || edges.back() < clip_lo) {
      edges.push_back(clip_lo);
    }
    edges.push_back(clip_hi);
    masses.push_back(mass);
  }
  if (masses.empty()) {
    return Status::InvalidArgument(
        "conditioning event has zero probability under the histogram");
  }
  double total = 0.0;
  for (double m : masses) total += m;
  if (total < kMinEventProbability) {
    return Status::InvalidArgument(
        "conditioning event probability is numerically negligible");
  }
  for (double& m : masses) m /= total;
  // Guard against collapsed multi-segment edge lists (disjoint clipped
  // regions produce contiguous [edges] only when bins are contiguous,
  // which HistogramDist guarantees).
  AUSDB_ASSIGN_OR_RETURN(HistogramDist clipped,
                         HistogramDist::Make(std::move(edges),
                                             std::move(masses)));
  return DistributionPtr(
      std::make_shared<HistogramDist>(std::move(clipped)));
}

}  // namespace

Result<DistributionPtr> ConditionBetween(const Distribution& d, double lo,
                                         double hi) {
  if (!(lo < hi)) {
    return Status::InvalidArgument(
        "conditioning range must satisfy lo < hi");
  }
  const double event_prob = d.Cdf(hi) - d.Cdf(lo);
  if (event_prob < kMinEventProbability) {
    return Status::InvalidArgument(
        "conditioning event has (near-)zero probability: Pr(" +
        std::to_string(lo) + " < X <= " + std::to_string(hi) + ") = " +
        std::to_string(event_prob));
  }

  switch (d.kind()) {
    case DistributionKind::kPoint:
      // The event has positive probability, so the point lies inside.
      return DistributionPtr(d.Clone());
    case DistributionKind::kGaussian: {
      const auto& g = static_cast<const GaussianDist&>(d);
      if (g.Variance() == 0.0) return DistributionPtr(d.Clone());
      return DistributionPtr(std::make_shared<TruncatedGaussianDist>(
          g.Mean(), std::sqrt(g.Variance()), lo, hi));
    }
    case DistributionKind::kHistogram:
      return ConditionHistogram(static_cast<const HistogramDist&>(d), lo,
                                hi);
    case DistributionKind::kDiscrete: {
      const auto& disc = static_cast<const DiscreteDist&>(d);
      std::vector<double> values, probs;
      for (size_t i = 0; i < disc.values().size(); ++i) {
        const double v = disc.values()[i];
        if (v > lo && v <= hi) {
          values.push_back(v);
          probs.push_back(disc.probs()[i]);
        }
      }
      double total = 0.0;
      for (double p : probs) total += p;
      for (double& p : probs) p /= total;
      AUSDB_ASSIGN_OR_RETURN(DiscreteDist out,
                             DiscreteDist::Make(std::move(values),
                                                std::move(probs)));
      return DistributionPtr(
          std::make_shared<DiscreteDist>(std::move(out)));
    }
    case DistributionKind::kEmpirical: {
      const auto& emp = static_cast<const EmpiricalDist&>(d);
      std::vector<double> kept;
      for (double v : emp.sorted_observations()) {
        if (v > lo && v <= hi) kept.push_back(v);
      }
      AUSDB_ASSIGN_OR_RETURN(EmpiricalDist out,
                             EmpiricalDist::Make(std::move(kept)));
      return DistributionPtr(
          std::make_shared<EmpiricalDist>(std::move(out)));
    }
    case DistributionKind::kMixture: {
      const auto& mix = static_cast<const MixtureDist&>(d);
      std::vector<DistributionPtr> components;
      std::vector<double> weights;
      for (size_t i = 0; i < mix.components().size(); ++i) {
        const auto& comp = *mix.components()[i];
        const double comp_event = comp.Cdf(hi) - comp.Cdf(lo);
        const double w = mix.weights()[i] * comp_event / event_prob;
        if (w < kMinEventProbability) continue;
        AUSDB_ASSIGN_OR_RETURN(DistributionPtr conditioned,
                               ConditionBetween(comp, lo, hi));
        components.push_back(std::move(conditioned));
        weights.push_back(w);
      }
      // Renormalize (dropped negligible components).
      double total = 0.0;
      for (double w : weights) total += w;
      for (double& w : weights) w /= total;
      AUSDB_ASSIGN_OR_RETURN(MixtureDist out,
                             MixtureDist::Make(std::move(components),
                                               std::move(weights)));
      return DistributionPtr(
          std::make_shared<MixtureDist>(std::move(out)));
    }
    case DistributionKind::kParametric: {
      // Generic parametric: condition via a fine histogram of the CDF.
      constexpr size_t kBins = 256;
      const double a = std::isinf(lo) ? d.Mean() - 20.0 * d.StdDev() : lo;
      const double b = std::isinf(hi) ? d.Mean() + 20.0 * d.StdDev() : hi;
      std::vector<double> edges(kBins + 1);
      std::vector<double> probs(kBins);
      for (size_t i = 0; i <= kBins; ++i) {
        edges[i] = a + (b - a) * static_cast<double>(i) / kBins;
      }
      double total = 0.0;
      for (size_t i = 0; i < kBins; ++i) {
        probs[i] = std::max(0.0, d.Cdf(edges[i + 1]) - d.Cdf(edges[i]));
        total += probs[i];
      }
      if (total < kMinEventProbability) {
        return Status::InvalidArgument(
            "conditioning event probability is numerically negligible");
      }
      for (double& p : probs) p /= total;
      AUSDB_ASSIGN_OR_RETURN(HistogramDist out,
                             HistogramDist::Make(std::move(edges),
                                                 std::move(probs)));
      return DistributionPtr(
          std::make_shared<HistogramDist>(std::move(out)));
    }
  }
  return Status::Internal("unhandled distribution kind");
}

Result<DistributionPtr> ConditionGreater(const Distribution& d, double c) {
  return ConditionBetween(d, c, kInf);
}

}  // namespace dist
}  // namespace ausdb
