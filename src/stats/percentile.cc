#include "src/stats/percentile.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace ausdb {
namespace stats {

double QuantileOfSorted(std::span<const double> sorted, double p,
                        QuantileMethod method) {
  AUSDB_CHECK(!sorted.empty()) << "Quantile of an empty sample";
  AUSDB_CHECK(p >= 0.0 && p <= 1.0) << "Quantile p must be in [0,1], got "
                                    << p;
  const size_t n = sorted.size();
  if (n == 1) return sorted[0];
  switch (method) {
    case QuantileMethod::kLinear: {
      const double h = p * static_cast<double>(n - 1);
      const size_t lo = LinearQuantileRank(n, p);
      const size_t hi = std::min(lo + 1, n - 1);
      return Lerp(sorted[lo], sorted[hi], h - static_cast<double>(lo));
    }
    case QuantileMethod::kNearestRank: {
      if (p == 0.0) return sorted[0];
      const size_t rank =
          static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
      return sorted[std::min(rank == 0 ? 0 : rank - 1, n - 1)];
    }
  }
  return sorted[0];
}

size_t LinearQuantileRank(size_t n, double p) {
  return static_cast<size_t>(std::floor(p * static_cast<double>(n - 1)));
}

double Quantile(std::span<const double> data, double p,
                QuantileMethod method) {
  std::vector<double> copy(data.begin(), data.end());
  std::sort(copy.begin(), copy.end());
  return QuantileOfSorted(copy, p, method);
}

std::vector<double> Quantiles(std::span<const double> data,
                              std::span<const double> ps,
                              QuantileMethod method) {
  std::vector<double> copy(data.begin(), data.end());
  std::sort(copy.begin(), copy.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) out.push_back(QuantileOfSorted(copy, p, method));
  return out;
}

double EmpiricalCdf(std::span<const double> data, double x) {
  if (data.empty()) return 0.0;
  size_t count = 0;
  for (double v : data) {
    if (v <= x) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(data.size());
}

}  // namespace stats
}  // namespace ausdb
