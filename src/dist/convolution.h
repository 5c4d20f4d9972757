#ifndef AUSDB_DIST_CONVOLUTION_H_
#define AUSDB_DIST_CONVOLUTION_H_

#include "src/common/result.h"
#include "src/dist/histogram.h"

namespace ausdb {
namespace dist {

/// Options of ConvolveHistograms.
struct ConvolveOptions {
  /// Output bin count; 0 = sum of the input bin counts (capped at 512).
  size_t output_bins = 0;

  /// Sub-divisions per input bin when discretizing the within-bin
  /// uniform mass. Higher = closer to the exact piecewise-quadratic
  /// convolution at quadratic cost in the subdivision count.
  size_t subdivisions = 4;
};

/// \brief Distribution of X + Y for independent histogram-distributed X
/// and Y — the analytical alternative to Monte Carlo for histogram
/// arithmetic (the paper's dominant representation).
///
/// Each input bin's uniform mass is subdivided into `subdivisions` point
/// masses at subcell midpoints; the point masses are convolved and
/// deposited with linear (cloud-in-cell) assignment onto an output grid
/// whose first and last bin *midpoints* sit on lo_x + lo_y and
/// hi_x + hi_y. Every deposit therefore falls inside the midpoint hull
/// and splits between two bins with exact linear weights — no boundary
/// clamping — which keeps the result's mean exactly mean(X) + mean(Y);
/// variance error is O(width^2) in the subcell and output-bin widths.
/// The grid extends half an output bin beyond the exact support on each
/// side to make room for the edge midpoints.
///
/// Fails with InvalidArgument when either input has non-finite edges.
Result<HistogramDist> ConvolveHistograms(const HistogramDist& x,
                                         const HistogramDist& y,
                                         const ConvolveOptions& options = {});

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_CONVOLUTION_H_
