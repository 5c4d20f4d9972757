#ifndef AUSDB_HYPOTHESIS_MEAN_TESTS_H_
#define AUSDB_HYPOTHESIS_MEAN_TESTS_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/hypothesis/test_types.h"

namespace ausdb {
namespace hypothesis {

/// The summary statistics a population-mean test consumes: in AUSDB these
/// come from a distribution (mean, stddev) and its d.f. sample size.
struct SampleStatistics {
  double mean = 0.0;
  double stddev = 0.0;
  size_t n = 0;
};

/// \brief One-sample population mean test (the evaluation behind mTest).
///
/// H0: E(X) = c; H1: E(X) op c. The test statistic is
/// (mean - c)/(s/sqrt(n)), referred to a Student t with n-1 dof for
/// n < 30 and a standard normal otherwise (matching Lemma 2's regimes).
/// Returns true iff H0 is rejected at significance `alpha` (i.e. H1 is
/// statistically significant). Requires n >= 2, alpha in (0,1); a NaN
/// statistic (NaN mean or c, inf - inf) is InvalidArgument.
///
/// Decides exactly as `MeanTestPValue(x, op, c) <= alpha`, but compares
/// the statistic with a per-thread memoized critical value and computes
/// the p-value only inside a narrow band around it (see
/// MeanTestDecisionBand).
Result<bool> MeanTest(const SampleStatistics& x, TestOp op, double c,
                      double alpha);

/// p-value of the same test (one- or two-sided per `op`).
Result<double> MeanTestPValue(const SampleStatistics& x, TestOp op,
                              double c);

/// The thresholds MeanTest compares the statistic against, after
/// orienting it so that large values favour H1 (negated for '<', its
/// absolute value for '<>'): H0 is rejected at or above `reject_at`,
/// kept at or below `keep_at`, and the exact p-value decides in between.
/// Both are infinite when no band can be verified, as for a tail (alpha,
/// or alpha/2 for '<>') outside [1e-12, 1 - 1e-12]: every decision then
/// takes the p-value.
struct MeanTestBand {
  double keep_at;
  double reject_at;
};

/// The band MeanTest uses for sample size `n` (the reference distribution
/// depends only on it), `op` and `alpha`. Exposed for tests.
Result<MeanTestBand> MeanTestDecisionBand(size_t n, TestOp op,
                                          double alpha);

/// \brief Two-sample mean-difference test (the evaluation behind mdTest).
///
/// H0: E(X) - E(Y) = c; H1: E(X) - E(Y) op c. Welch's unequal-variance
/// statistic with Welch-Satterthwaite degrees of freedom; switches to the
/// normal reference when both samples have n >= 30. Always computes the
/// exact p-value: the Welch d.f. varies per call, so there is no critical
/// value worth memoizing. A NaN statistic, or a d.f. that is not finite
/// and positive (the variances' squares over- or underflowed), is
/// InvalidArgument.
Result<bool> MeanDifferenceTest(const SampleStatistics& x,
                                const SampleStatistics& y, TestOp op,
                                double c, double alpha);

/// p-value of the mean-difference test.
Result<double> MeanDifferenceTestPValue(const SampleStatistics& x,
                                        const SampleStatistics& y,
                                        TestOp op, double c);

}  // namespace hypothesis
}  // namespace ausdb

#endif  // AUSDB_HYPOTHESIS_MEAN_TESTS_H_
