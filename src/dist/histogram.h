#ifndef AUSDB_DIST_HISTOGRAM_H_
#define AUSDB_DIST_HISTOGRAM_H_

#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/dist/distribution.h"

namespace ausdb {
namespace dist {

/// \brief Piecewise-uniform histogram distribution
/// {(b_i, p_i) | 1 <= i <= b} (paper Section II-B).
///
/// Bins are contiguous half-open intervals [edges[i], edges[i+1]) defined
/// by `b+1` strictly ascending edges; `p_i` is the probability mass of bin
/// i, with mass spread uniformly inside the bin. This is the paper's
/// primary representation for learned distributions, and the one whose
/// accuracy information is per-bin confidence intervals (Lemma 1).
class HistogramDist final : public Distribution {
 public:
  /// Validates and builds a histogram. Fails with InvalidArgument unless
  /// edges are strictly ascending, probs.size()+1 == edges.size(), every
  /// probability is >= 0, and the probabilities sum to 1 (within 1e-9
  /// tolerance; they are renormalized exactly).
  static Result<HistogramDist> Make(std::vector<double> edges,
                                    std::vector<double> probs);

  DistributionKind kind() const override {
    return DistributionKind::kHistogram;
  }
  double Mean() const override;
  double Variance() const override;
  double Cdf(double x) const override;
  /// Evaluates the CDF at each `xs[i]` into `out[i]` (out.size() must be
  /// >= xs.size()). Byte-identical to per-element Cdf() calls; runs the
  /// branchless flat-array kernel, skipping per-call virtual dispatch.
  void CdfMany(std::span<const double> xs, std::span<double> out) const;
  double Sample(Rng& rng) const override;
  std::string ToString() const override;

  size_t bin_count() const { return probs_.size(); }
  const std::vector<double>& edges() const { return edges_; }
  const std::vector<double>& probs() const { return probs_; }

  /// Probability mass of bin i.
  double BinProb(size_t i) const { return probs_[i]; }

  /// Midpoint of bin i.
  double BinMid(size_t i) const {
    return 0.5 * (edges_[i] + edges_[i + 1]);
  }

  /// Width of bin i.
  double BinWidth(size_t i) const { return edges_[i + 1] - edges_[i]; }

  /// Index of the bin containing x, clamping out-of-range values into the
  /// first/last bin. Returns npos (== bin_count()) only for an empty
  /// histogram, which Make() forbids.
  size_t BinIndex(double x) const;

  /// Index of the bin the inverse-CDF transform selects for a uniform
  /// draw u in [0, 1): the first bin whose cumulative mass strictly
  /// exceeds u. Zero-probability bins are never selected — a draw
  /// landing exactly on a cumulative boundary (u == 0.0 under a
  /// zero-probability head bin, u == cum[i] under a zero-probability
  /// interior run) skips the whole zero run to the next bin carrying
  /// mass. Sample() is SampleBin(u) plus a uniform position inside the
  /// bin.
  size_t SampleBin(double u) const;

  /// A copy with the same edges but different probabilities (validated the
  /// same way as Make).
  Result<HistogramDist> WithProbs(std::vector<double> probs) const;

 private:
  HistogramDist(std::vector<double> edges, std::vector<double> probs);

  std::vector<double> edges_;
  std::vector<double> probs_;
  std::vector<double> cum_;  // cum_[i] = sum of probs_[0..i]
};

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_HISTOGRAM_H_
