#ifndef AUSDB_ACCURACY_DEFACTO_H_
#define AUSDB_ACCURACY_DEFACTO_H_

#include <cstddef>
#include <span>

#include "src/common/result.h"

namespace ausdb {
namespace accuracy {

/// \brief Lemma 4: the number of distinct d.f. samples of Y is
///   c = prod_{i=2..d} n_i! / (n_i - n)!
/// with inputs sorted so n_1 <= ... <= n_d and n = n_1. Returned in log
/// space (natural log) because c overflows double factorially fast.
///
/// Deterministic inputs are excluded. Fails with InvalidArgument when no
/// uncertain inputs are given.
Result<double> LogDeFactoSampleCount(std::span<const size_t> input_sizes);

}  // namespace accuracy
}  // namespace ausdb

#endif  // AUSDB_ACCURACY_DEFACTO_H_
