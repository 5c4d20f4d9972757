#include "src/bootstrap/resampler.h"

#include "src/common/logging.h"

namespace ausdb {
namespace bootstrap {

std::vector<double> Resample(std::span<const double> sample, size_t size,
                             Rng& rng) {
  AUSDB_CHECK(!sample.empty()) << "cannot resample an empty sample";
  std::vector<double> out(size);
  ResampleInto(sample, out, rng);
  return out;
}

void ResampleInto(std::span<const double> sample, std::span<double> out,
                  Rng& rng) {
  AUSDB_CHECK(!sample.empty()) << "cannot resample an empty sample";
  const size_t n = sample.size();
  for (double& slot : out) slot = sample[rng.NextBelow(n)];
}

}  // namespace bootstrap
}  // namespace ausdb
