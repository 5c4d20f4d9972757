#include "src/hypothesis/mean_tests.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "src/accuracy/mean_variance_ci.h"
#include "src/common/math_util.h"
#include "src/stats/quantiles.h"

namespace ausdb {
namespace hypothesis {

namespace {

Status ValidateAlpha(double alpha) {
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("significance level must be in (0,1)");
  }
  return Status::OK();
}

Status ValidateStats(const SampleStatistics& s) {
  if (s.n < 2) {
    return Status::InsufficientData(
        "mean tests require sample size >= 2; got " + std::to_string(s.n));
  }
  if (!(s.stddev >= 0.0) || !std::isfinite(s.stddev)) {
    return Status::InvalidArgument("sample stddev must be finite and >= 0");
  }
  return Status::OK();
}

Status NanStatistic() {
  return Status::InvalidArgument(
      "test statistic is NaN (NaN mean or constant, or inf - inf)");
}

// One-sided upper-tail p-value for a statistic referred to t(dof) when
// small-sample, else the normal. dof <= 0 selects the normal reference.
double UpperTailP(double statistic, double dof) {
  if (dof > 0.0) return 1.0 - stats::StudentTCdf(statistic, dof);
  return 1.0 - stats::NormalCdf(statistic);
}

// The statistic oriented so that large values favour H1; the p-value
// strictly decreases in it.
double Oriented(TestOp op, double statistic) {
  switch (op) {
    case TestOp::kGreater:
      return statistic;
    case TestOp::kLess:
      return -statistic;
    case TestOp::kNotEqual:
      return std::abs(statistic);
  }
  return statistic;
}

// p-value of an oriented statistic: one upper tail, or both for '<>'.
double OrientedP(double oriented, double dof, bool two_sided) {
  return two_sided ? 2.0 * UpperTailP(oriented, dof)
                   : UpperTailP(oriented, dof);
}

double PValueFor(TestOp op, double statistic, double dof) {
  return OrientedP(Oriented(op, statistic), dof, op == TestOp::kNotEqual);
}

bool DegenerateH1Holds(TestOp op, double lhs, double c) {
  return (op == TestOp::kGreater && lhs > c) ||
         (op == TestOp::kLess && lhs < c) ||
         (op == TestOp::kNotEqual && lhs != c);
}

// d.f. of the one-sample reference: t(n-1) for small samples, else 0
// (the normal).
double ReferenceDof(size_t n) {
  return n < accuracy::kSmallSampleThreshold ? static_cast<double>(n) - 1.0
                                             : 0.0;
}

// The one-sample statistic, or the decision of a zero-spread sample.
struct MeanStatistic {
  bool degenerate = false;
  bool h1_holds = false;  // degenerate samples only
  double statistic = 0.0;
  double dof = 0.0;  // 0 selects the normal reference
};

Result<MeanStatistic> ComputeMeanStatistic(const SampleStatistics& x,
                                           TestOp op, double c) {
  AUSDB_RETURN_NOT_OK(ValidateStats(x));
  if (std::isnan(x.mean - c)) return NanStatistic();
  MeanStatistic out;
  if (x.stddev == 0.0) {
    // Degenerate sample: the mean is known exactly.
    out.degenerate = true;
    out.h1_holds = DegenerateH1Holds(op, x.mean, c);
    return out;
  }
  const double nn = static_cast<double>(x.n);
  out.statistic = (x.mean - c) / (x.stddev / std::sqrt(nn));
  if (std::isnan(out.statistic)) return NanStatistic();
  out.dof = ReferenceDof(x.n);
  return out;
}

// ---------------------------------------------------------------------
// Memoized critical values.
//
// Every decision p <= alpha is a threshold on the oriented statistic.
// Streams test the same (dof, alpha, sidedness) on every tuple, so the
// threshold is computed once per thread. The computed quantile and
// p-value both carry rounding error, so a band around the critical value
// defers to the exact p-value; outside it the comparison provably agrees
// with `p <= alpha`.
// ---------------------------------------------------------------------

// Measured error of the computed upper-tail p-value (1 - StudentTCdf for
// dof 1..28, 1 - NormalCdf otherwise) against 40-digit references over
// statistics in [-50, 1e7]: |p~ - p| <= 5e-16 + 3.5e-14 p. The bounds
// below are 10x that, with the absolute term doubled for '<>' (2 p~).
constexpr double kPValueAbsError = 1e-14;
constexpr double kPValueRelError = 1e-12;

// Initial half-width of the exact-fallback band, relative to 1 + |crit|.
// The computed critical values are within 5e-9 (1 + |crit|) of the true
// ones for tails >= 1e-8 (the same reference); from a tail of 1e-6 up the
// first band holds, below it the band widens.
constexpr double kBandRelWidth = 1e-6;
constexpr int kMaxBandDoublings = 20;

// Tails outside [kMinTail, 1 - kMinTail] get no band (the quantile
// functions' arguments would round to 0 or 1): always the exact p-value.
constexpr double kMinTail = 1e-12;

// With p(s) the true, strictly decreasing p-value and
// |p~(s) - p(s)| <= A + R p(s):
//  * p~(reject_at) <= alpha - 2(A + R alpha) gives p~(s) <= alpha for
//    every s >= reject_at, and
//  * (p~(keep_at) - A)(1 - 2R) - A > alpha gives p~(s) > alpha for every
//    s <= keep_at.
MeanTestBand BuildDecisionBand(double dof, double alpha, bool two_sided) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const MeanTestBand exact_only{-kInf, kInf};
  const double tail = two_sided ? alpha / 2.0 : alpha;
  if (!(tail >= kMinTail && tail <= 1.0 - kMinTail)) return exact_only;
  const double crit = dof > 0.0 ? stats::StudentTUpperPercentile(tail, dof)
                                : stats::NormalUpperPercentile(tail);
  if (!std::isfinite(crit)) return exact_only;
  constexpr double A = kPValueAbsError;
  constexpr double R = kPValueRelError;
  double half_width = kBandRelWidth * (1.0 + std::abs(crit));
  for (int i = 0; i <= kMaxBandDoublings; ++i, half_width *= 2.0) {
    const MeanTestBand band{crit - half_width, crit + half_width};
    const bool reject_holds = OrientedP(band.reject_at, dof, two_sided) <=
                              alpha - 2.0 * (A + R * alpha);
    const bool keep_holds =
        (OrientedP(band.keep_at, dof, two_sided) - A) * (1.0 - 2.0 * R) -
            A >
        alpha;
    if (reject_holds && keep_holds) return band;
  }
  return exact_only;
}

struct BandKey {
  int dof;
  bool two_sided;
  double alpha;
  bool operator==(const BandKey& other) const {
    return dof == other.dof && two_sided == other.two_sided &&
           alpha == other.alpha;
  }
};

struct BandKeyHash {
  size_t operator()(const BandKey& k) const {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(k.alpha));
    __builtin_memcpy(&bits, &k.alpha, sizeof(bits));
    return std::hash<uint64_t>()(bits * 0x9E3779B97F4A7C15ULL ^
                                 (static_cast<uint64_t>(k.dof) << 1) ^
                                 static_cast<uint64_t>(k.two_sided));
  }
};

// `dof` is a ReferenceDof.
MeanTestBand CachedDecisionBand(double dof, double alpha, bool two_sided) {
  thread_local std::unordered_map<BandKey, MeanTestBand, BandKeyHash> cache;
  const BandKey key{static_cast<int>(dof), two_sided, alpha};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const MeanTestBand band = BuildDecisionBand(dof, alpha, two_sided);
  cache.emplace(key, band);
  return band;
}

}  // namespace

Result<double> MeanTestPValue(const SampleStatistics& x, TestOp op,
                              double c) {
  AUSDB_ASSIGN_OR_RETURN(MeanStatistic m, ComputeMeanStatistic(x, op, c));
  if (m.degenerate) return m.h1_holds ? 0.0 : 1.0;
  return PValueFor(op, m.statistic, m.dof);
}

Result<bool> MeanTest(const SampleStatistics& x, TestOp op, double c,
                      double alpha) {
  AUSDB_RETURN_NOT_OK(ValidateAlpha(alpha));
  AUSDB_ASSIGN_OR_RETURN(MeanStatistic m, ComputeMeanStatistic(x, op, c));
  if (m.degenerate) return m.h1_holds;  // p is 0 or 1; alpha is in (0,1)
  const bool two_sided = op == TestOp::kNotEqual;
  const double oriented = Oriented(op, m.statistic);
  const MeanTestBand band = CachedDecisionBand(m.dof, alpha, two_sided);
  if (oriented >= band.reject_at) return true;
  if (oriented <= band.keep_at) return false;
  return OrientedP(oriented, m.dof, two_sided) <= alpha;
}

Result<MeanTestBand> MeanTestDecisionBand(size_t n, TestOp op,
                                          double alpha) {
  AUSDB_RETURN_NOT_OK(ValidateAlpha(alpha));
  if (n < 2) {
    return Status::InsufficientData(
        "mean tests require sample size >= 2; got " + std::to_string(n));
  }
  return CachedDecisionBand(ReferenceDof(n), alpha, op == TestOp::kNotEqual);
}

Result<double> MeanDifferenceTestPValue(const SampleStatistics& x,
                                        const SampleStatistics& y,
                                        TestOp op, double c) {
  AUSDB_RETURN_NOT_OK(ValidateStats(x));
  AUSDB_RETURN_NOT_OK(ValidateStats(y));
  if (std::isnan(x.mean - y.mean - c)) return NanStatistic();
  const double nx = static_cast<double>(x.n);
  const double ny = static_cast<double>(y.n);
  const double vx = Sq(x.stddev) / nx;
  const double vy = Sq(y.stddev) / ny;
  const double se = std::sqrt(vx + vy);
  if (se == 0.0) {
    return DegenerateH1Holds(op, x.mean - y.mean, c) ? 0.0 : 1.0;
  }
  const double statistic = (x.mean - y.mean - c) / se;
  if (std::isnan(statistic)) return NanStatistic();
  double dof = 0.0;
  if (x.n < accuracy::kSmallSampleThreshold ||
      y.n < accuracy::kSmallSampleThreshold) {
    // Welch-Satterthwaite approximation.
    dof = Sq(vx + vy) /
          (Sq(vx) / (nx - 1.0) + Sq(vy) / (ny - 1.0));
    if (!(dof > 0.0) || !std::isfinite(dof)) {
      // Squares of the variances over- or underflowed.
      return Status::InvalidArgument(
          "Welch-Satterthwaite degrees of freedom are not finite and "
          "positive");
    }
  }
  return PValueFor(op, statistic, dof);
}

Result<bool> MeanDifferenceTest(const SampleStatistics& x,
                                const SampleStatistics& y, TestOp op,
                                double c, double alpha) {
  AUSDB_RETURN_NOT_OK(ValidateAlpha(alpha));
  AUSDB_ASSIGN_OR_RETURN(double p, MeanDifferenceTestPValue(x, y, op, c));
  return p <= alpha;
}

}  // namespace hypothesis
}  // namespace ausdb
