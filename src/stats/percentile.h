#ifndef AUSDB_STATS_PERCENTILE_H_
#define AUSDB_STATS_PERCENTILE_H_

#include <cstddef>
#include <span>
#include <vector>

namespace ausdb {
namespace stats {

/// \brief How a quantile of a finite sample is estimated.
enum class QuantileMethod {
  /// Linear interpolation between order statistics (R type 7, the default
  /// in R/NumPy).
  kLinear,
  /// Smallest order statistic with cumulative proportion >= p (R type 1).
  kNearestRank,
};

/// \brief The p-quantile of `sorted` (which must be ascending), p in [0,1].
/// kLinear reads two order statistics: rank LinearQuantileRank(n, p) and
/// the next one (clamped to n - 1); nothing else of `sorted` is read.
double QuantileOfSorted(std::span<const double> sorted, double p,
                        QuantileMethod method = QuantileMethod::kLinear);

/// \brief The lower of the two 0-based ranks the kLinear p-quantile of n
/// sorted values reads: floor(p * (n - 1)).
size_t LinearQuantileRank(size_t n, double p);

/// \brief The p-quantile of `data` (any order; copies and sorts).
double Quantile(std::span<const double> data, double p,
                QuantileMethod method = QuantileMethod::kLinear);

/// \brief Several quantiles of `data` in one sort.
std::vector<double> Quantiles(std::span<const double> data,
                              std::span<const double> ps,
                              QuantileMethod method = QuantileMethod::kLinear);

/// \brief Empirical CDF of `data` evaluated at x: fraction of elements <= x.
double EmpiricalCdf(std::span<const double> data, double x);

}  // namespace stats
}  // namespace ausdb

#endif  // AUSDB_STATS_PERCENTILE_H_
