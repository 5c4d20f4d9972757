#ifndef AUSDB_BOOTSTRAP_BOOTSTRAP_ACCURACY_H_
#define AUSDB_BOOTSTRAP_BOOTSTRAP_ACCURACY_H_

#include <functional>
#include <span>
#include <vector>

#include "src/accuracy/accuracy_info.h"
#include "src/accuracy/confidence_interval.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/dist/distribution.h"

namespace ausdb {
namespace bootstrap {

/// \brief The paper's Algorithm BOOTSTRAP-ACCURACY-INFO (Section III-B).
///
/// `values` is the sequence of m values of an output random variable Y —
/// either produced directly by a Monte Carlo query processor or sampled
/// from a result distribution. `n` is Y's de facto sample size (Lemma 3).
/// The m values are grouped into r = floor(m/n) d.f. resamples of size n;
/// within each resample the statistics (bin heights over `bin_edges` if
/// provided, sample mean, sample variance) are computed, and the
/// `confidence`-level interval of each statistic is taken between the
/// (1-alpha)/2 and (1+alpha)/2 percentiles over the r resamples.
///
/// Fails with InsufficientData when fewer than 2 complete resamples fit
/// (m < 2n) and InvalidArgument on a bad confidence or n == 0.
Result<accuracy::AccuracyInfo> BootstrapAccuracyInfo(
    std::span<const double> values, size_t n, double confidence,
    std::span<const double> bin_edges = {});

/// \brief The paper's "second category" of query processing (operators
/// that produce a distribution, not samples): BOOTSTRAP-ACCURACY-INFO on
/// `num_resamples` d.f. resamples of size n drawn from `d`.
///
/// A Gaussian `d` with no `bin_edges` takes the sufficient-statistic
/// draw: each resample's mean from N(mu, s2/n) and its variance from
/// s2 * chi2(n-1) / (n-1), 2 * num_resamples draws with the joint law of
/// lines 9-10 on n iid normal values (variance 0 when n == 1). Every
/// other family, and a Gaussian with bin edges, draws the m = n *
/// num_resamples values and runs BootstrapAccuracyInfo.
///
/// Fails with InvalidArgument on n == 0, num_resamples < 2 or a
/// confidence outside (0, 1), before drawing anything.
Result<accuracy::AccuracyInfo> BootstrapAccuracyFromDistribution(
    const dist::Distribution& d, size_t n, size_t num_resamples,
    double confidence, Rng& rng, std::span<const double> bin_edges = {});

/// \brief Classic single-sample percentile bootstrap, for source-data
/// accuracy and for the grouping ablation: resamples `sample` (same
/// size, with replacement) `num_resamples` times and returns the
/// percentile interval of `statistic` over the resamples. Resample i
/// draws from its own Rng stream, seeded by the i-th draw of `rng`.
Result<accuracy::ConfidenceInterval> ClassicPercentileBootstrap(
    std::span<const double> sample, size_t num_resamples, double confidence,
    const std::function<double(std::span<const double>)>& statistic,
    Rng& rng);

}  // namespace bootstrap
}  // namespace ausdb

#endif  // AUSDB_BOOTSTRAP_BOOTSTRAP_ACCURACY_H_
