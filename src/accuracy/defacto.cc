#include "src/accuracy/defacto.h"

#include <algorithm>
#include <vector>

#include "src/dist/random_var.h"
#include "src/stats/special_functions.h"

namespace ausdb {
namespace accuracy {

Result<double> LogDeFactoSampleCount(std::span<const size_t> input_sizes) {
  std::vector<size_t> uncertain;
  uncertain.reserve(input_sizes.size());
  for (size_t s : input_sizes) {
    if (s != dist::RandomVar::kCertainSampleSize) uncertain.push_back(s);
  }
  if (uncertain.empty()) {
    return Status::InvalidArgument(
        "de facto sample count needs at least one uncertain input");
  }
  std::sort(uncertain.begin(), uncertain.end());
  const double n = static_cast<double>(uncertain[0]);
  double log_c = 0.0;
  for (size_t i = 1; i < uncertain.size(); ++i) {
    const double ni = static_cast<double>(uncertain[i]);
    // log(n_i!/(n_i-n)!) = lgamma(n_i+1) - lgamma(n_i-n+1).
    log_c += stats::LogGamma(ni + 1.0) - stats::LogGamma(ni - n + 1.0);
  }
  return log_c;
}

}  // namespace accuracy
}  // namespace ausdb
