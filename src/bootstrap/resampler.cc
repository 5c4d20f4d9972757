#include "src/bootstrap/resampler.h"

#include "src/common/logging.h"
#include "src/common/thread_pool.h"

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

std::vector<std::vector<double>> ResampleMany(
    std::span<const double> sample, size_t count, Rng& parent,
    ThreadPool* pool) {
  AUSDB_CHECK(!sample.empty()) << "cannot resample an empty sample";
  // Per-resample seeds are drawn serially from the parent stream before
  // any fan-out, so the work partition cannot influence the draws.
  std::vector<uint64_t> seeds(count);
  for (uint64_t& s : seeds) s = parent.NextUint64();
  std::vector<std::vector<double>> out(count);
  RunChunked(pool, count, DeterministicChunkCount(count),
             [&](size_t, size_t begin, size_t end) {
               for (size_t i = begin; i < end; ++i) {
                 Rng rng(seeds[i]);
                 out[i] = Resample(sample, sample.size(), rng);
               }
             });
  return out;
}

}  // namespace bootstrap
}  // namespace ausdb
