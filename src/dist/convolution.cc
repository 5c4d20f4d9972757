#include "src/dist/convolution.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "src/dist/kernels.h"

namespace ausdb {
namespace dist {

namespace {

// Discretized histogram in struct-of-arrays layout: parallel value/mass
// columns feed the deposit kernel as contiguous spans.
struct PointCloud {
  std::vector<double> values;
  std::vector<double> masses;
};

// Uniform bin mass split into `s` equal point masses at subcell
// midpoints.
PointCloud Discretize(const HistogramDist& h, size_t s) {
  PointCloud points;
  points.values.reserve(h.bin_count() * s);
  points.masses.reserve(h.bin_count() * s);
  for (size_t i = 0; i < h.bin_count(); ++i) {
    const double lo = h.edges()[i];
    const double width = h.BinWidth(i);
    const double mass = h.BinProb(i) / static_cast<double>(s);
    for (size_t k = 0; k < s; ++k) {
      const double mid =
          lo + width * (static_cast<double>(k) + 0.5) /
                   static_cast<double>(s);
      points.values.push_back(mid);
      points.masses.push_back(mass);
    }
  }
  return points;
}

// Deposit chunk count for n outer point masses: a pure function of n,
// so the merge tree, and with it every output bit, is the same on every
// machine.
size_t DeterministicChunkCount(size_t n) {
  return std::clamp<size_t>(n / 16, 1, 64);
}

bool AllEdgesFinite(const HistogramDist& h) {
  for (double e : h.edges()) {
    if (!std::isfinite(e)) return false;
  }
  return true;
}

}  // namespace

Result<HistogramDist> ConvolveHistograms(const HistogramDist& x,
                                         const HistogramDist& y,
                                         const ConvolveOptions& options) {
  if (options.subdivisions == 0) {
    return Status::InvalidArgument("subdivisions must be >= 1");
  }
  if (!AllEdgesFinite(x) || !AllEdgesFinite(y)) {
    return Status::InvalidArgument(
        "convolution inputs must have finite support edges");
  }
  size_t bins = options.output_bins;
  if (bins == 0) {
    bins = std::min<size_t>(512, x.bin_count() + y.bin_count());
  }

  const double lo = x.edges().front() + y.edges().front();
  const double hi = x.edges().back() + y.edges().back();
  if (!(hi > lo)) {
    return Status::InvalidArgument("degenerate convolution support");
  }
  if (bins == 1) {
    // A single bin can only hold all the mass; its (midpoint) mean is
    // the best one bin can represent.
    return HistogramDist::Make({lo, hi}, {1.0});
  }

  // The grid places the first and last bin *midpoints* on lo and hi, so
  // every point mass v in [lo, hi] lies within the midpoint hull and the
  // cloud-in-cell split below is exact — the old grid clamped boundary
  // mass into the edge bins, which biased the mean near the support
  // edges. The support stretches half a bin beyond [lo, hi] on each side
  // to make room for the edge midpoints.
  const double step = (hi - lo) / static_cast<double>(bins - 1);
  std::vector<double> edges(bins + 1);
  for (size_t i = 0; i <= bins; ++i) {
    edges[i] = lo + (static_cast<double>(i) - 0.5) * step;
  }
  const double inv_step = 1.0 / step;

  const auto px = Discretize(x, options.subdivisions);
  const auto py = Discretize(y, options.subdivisions);

  // Cloud-in-cell assignment: each point mass splits linearly between
  // the two output bins whose midpoints bracket it, which keeps the
  // result's mean exact and halves the CDF discretization bias of
  // nearest-bin assignment. The outer points are tiled into chunks whose
  // boundaries depend only on the input size; each chunk deposits into a
  // private accumulator via the two-pass CicDepositTiled kernel
  // (index/weight computation vectorizes, the scatter replays in scalar
  // order) and the partials are summed in chunk order.
  const size_t n = px.values.size();
  const size_t num_chunks = DeterministicChunkCount(n);
  const std::span<const double> values(px.values);
  const std::span<const double> masses(px.masses);
  std::vector<double> probs(bins, 0.0);
  std::vector<double> partial(bins);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = n * c / num_chunks;
    const size_t end = n * (c + 1) / num_chunks;
    std::fill(partial.begin(), partial.end(), 0.0);
    CicDepositTiled(values.subspan(begin, end - begin),
                    masses.subspan(begin, end - begin), py.values,
                    py.masses, lo, inv_step, partial);
    for (size_t i = 0; i < bins; ++i) probs[i] += partial[i];
  }
  return HistogramDist::Make(std::move(edges), std::move(probs));
}

}  // namespace dist
}  // namespace ausdb
