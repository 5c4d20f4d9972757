#include "src/stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ausdb {
namespace stats {

double SummaryStats::SampleStdDev() const {
  return std::sqrt(sample_variance);
}

void MomentAccumulator::Add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;
  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) +
         6.0 * delta_n2 * m2_ - 4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;
}

void MomentAccumulator::Merge(const MomentAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;
  const double delta3 = delta2 * delta;
  const double delta4 = delta2 * delta2;

  const double mean = mean_ + delta * nb / n;
  const double m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double m3 = m3_ + other.m3_ +
                    delta3 * na * nb * (na - nb) / (n * n) +
                    3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double m4 =
      m4_ + other.m4_ +
      delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  mean_ = mean;
  m2_ = m2;
  m3_ = m3;
  m4_ = m4;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n_ + other.n_;
}

double MomentAccumulator::SampleVariance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double MomentAccumulator::PopulationVariance() const {
  if (n_ < 1) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double MomentAccumulator::SampleStdDev() const {
  return std::sqrt(SampleVariance());
}

double MomentAccumulator::Skewness() const {
  if (n_ < 2 || m2_ == 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return std::sqrt(n) * m3_ / std::pow(m2_, 1.5);
}

double MomentAccumulator::ExcessKurtosis() const {
  if (n_ < 2 || m2_ == 0.0) return 0.0;
  const double n = static_cast<double>(n_);
  return n * m4_ / (m2_ * m2_) - 3.0;
}

void MomentAccumulator::Reset() { *this = MomentAccumulator(); }

double Mean(std::span<const double> data) {
  return SummarizeMeanVariance(data).mean;
}

double SampleVariance(std::span<const double> data) {
  return SummarizeMeanVariance(data).sample_variance;
}

double SampleStdDev(std::span<const double> data) {
  return std::sqrt(SampleVariance(data));
}

double PopulationVariance(std::span<const double> data) {
  MomentAccumulator acc;
  for (double x : data) acc.Add(x);
  return acc.PopulationVariance();
}

SummaryStats Summarize(std::span<const double> data) {
  MomentAccumulator acc;
  for (double x : data) acc.Add(x);
  SummaryStats s;
  s.count = acc.count();
  s.mean = acc.mean();
  s.sample_variance = acc.SampleVariance();
  s.population_variance = acc.PopulationVariance();
  s.min = acc.min();
  s.max = acc.max();
  s.skewness = acc.Skewness();
  s.excess_kurtosis = acc.ExcessKurtosis();
  return s;
}

MeanVariance SummarizeMeanVariance(std::span<const double> data) {
  double mean = 0.0;
  double m2 = 0.0;
  double n = 0.0;  // exact: counts stay far below 2^53
  for (double x : data) {
    const double n1 = n;
    n += 1.0;
    const double delta = x - mean;
    const double delta_n = delta / n;
    const double term1 = delta * delta_n * n1;
    mean += delta_n;
    m2 += term1;
  }
  MeanVariance out;
  out.mean = mean;
  if (data.size() >= 2) {
    out.sample_variance = m2 / static_cast<double>(data.size() - 1);
  }
  return out;
}

}  // namespace stats
}  // namespace ausdb
