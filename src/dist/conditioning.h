#ifndef AUSDB_DIST_CONDITIONING_H_
#define AUSDB_DIST_CONDITIONING_H_

#include "src/common/result.h"
#include "src/dist/distribution.h"

namespace ausdb {
namespace dist {

/// \brief Conditional (truncated) distributions: the distribution of X
/// given lo < X <= hi, renormalized.
///
/// This is the Orion-style semantics the paper's data model builds on
/// (citation [18]): after a range predicate keeps a tuple with
/// probability p, the surviving possible worlds have the attribute's
/// distribution *conditioned* on the predicate. Gaussians truncate in
/// closed form; histograms clip and renormalize bins; empirical and
/// discrete distributions filter their support. Mixtures condition each
/// component and reweight.
///
/// Fails with InvalidArgument when the conditioning event has zero (or
/// numerically negligible) probability.
Result<DistributionPtr> ConditionBetween(const Distribution& d, double lo,
                                         double hi);

/// Condition on X > c.
Result<DistributionPtr> ConditionGreater(const Distribution& d, double c);

}  // namespace dist
}  // namespace ausdb

#endif  // AUSDB_DIST_CONDITIONING_H_
