#ifndef AUSDB_STATS_DESCRIPTIVE_H_
#define AUSDB_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/common/result.h"

namespace ausdb {
namespace stats {

/// \brief One-pass summary of a sample: count, mean, variance (sample and
/// population), extrema, and higher moments.
struct SummaryStats {
  size_t count = 0;
  double mean = 0.0;
  /// Unbiased sample variance (divides by n-1); 0 when count < 2.
  double sample_variance = 0.0;
  /// Population variance (divides by n); 0 when count < 1.
  double population_variance = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// Sample skewness (g1, population form); 0 when undefined.
  double skewness = 0.0;
  /// Excess kurtosis (g2, population form); 0 when undefined.
  double excess_kurtosis = 0.0;

  /// Sample standard deviation, sqrt(sample_variance).
  double SampleStdDev() const;
};

/// \brief Streaming moment accumulator (Welford / Terriberry updates).
///
/// Numerically stable online computation of mean, variance, skewness and
/// kurtosis; supports merging two accumulators (parallel reduction) and
/// removal-free windowed use via pairing with a queue.
class MomentAccumulator {
 public:
  void Add(double x);

  /// Merges another accumulator into this one.
  void Merge(const MomentAccumulator& other);

  size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when count < 2.
  double SampleVariance() const;
  /// Population variance; 0 when count < 1.
  double PopulationVariance() const;
  double SampleStdDev() const;
  double Skewness() const;
  double ExcessKurtosis() const;
  double min() const { return min_; }
  double max() const { return max_; }

  void Reset();

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
double Mean(std::span<const double> data);

/// Unbiased sample variance (n-1 denominator); 0 when size < 2.
double SampleVariance(std::span<const double> data);

/// Sample standard deviation.
double SampleStdDev(std::span<const double> data);

/// Population variance (n denominator); 0 when empty.
double PopulationVariance(std::span<const double> data);

/// Full one-pass summary of `data`.
SummaryStats Summarize(std::span<const double> data);

/// Mean and unbiased sample variance of a sample.
struct MeanVariance {
  double mean = 0.0;
  /// Divides by n-1; 0 when size < 2.
  double sample_variance = 0.0;
};

/// \brief The two moments of Summarize without its skewness, kurtosis and
/// extrema work.
///
/// Runs MomentAccumulator::Add's mean and M2 updates operation for
/// operation, so both fields equal Summarize(data)'s bit for bit.
MeanVariance SummarizeMeanVariance(std::span<const double> data);

}  // namespace stats
}  // namespace ausdb

#endif  // AUSDB_STATS_DESCRIPTIVE_H_
