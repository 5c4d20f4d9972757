#ifndef AUSDB_BOOTSTRAP_RESAMPLER_H_
#define AUSDB_BOOTSTRAP_RESAMPLER_H_

#include <span>
#include <vector>

#include "src/common/rng.h"

namespace ausdb {
namespace bootstrap {

/// \brief Draws a bootstrap resample: `size` draws uniformly at random
/// with replacement from `sample` (paper Section III-A step 1).
std::vector<double> Resample(std::span<const double> sample, size_t size,
                             Rng& rng);

/// Resample of the same size as the input, the standard bootstrap setting.
inline std::vector<double> Resample(std::span<const double> sample,
                                    Rng& rng) {
  return Resample(sample, sample.size(), rng);
}

/// \brief Fills `out` (already sized) with a resample; avoids per-call
/// allocation in hot loops such as the throughput benchmarks.
void ResampleInto(std::span<const double> sample, std::span<double> out,
                  Rng& rng);

}  // namespace bootstrap
}  // namespace ausdb

#endif  // AUSDB_BOOTSTRAP_RESAMPLER_H_
