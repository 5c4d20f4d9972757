// Test oracle: the correctly rounded sum of a list of doubles, ported
// from CPython's math.fsum (Shewchuk's error-free partials plus its
// half-way correction).

#ifndef AUSDB_TESTS_FSUM_ORACLE_H_
#define AUSDB_TESTS_FSUM_ORACLE_H_

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace ausdb {

// CPython's math.fsum: the correctly rounded sum of finite doubles whose
// partial sums stay finite (CPython raises on intermediate overflow; the
// oracle fails the test instead). `p` holds the partials; a caller that
// sums in a hot loop passes the same vector each time, so the loop does
// not allocate.
inline double Fsum(std::span<const double> xs, std::vector<double>& p) {
  p.clear();
  for (double x : xs) {
    size_t i = 0;
    for (size_t j = 0; j < p.size(); ++j) {
      double y = p[j];
      if (std::fabs(x) < std::fabs(y)) std::swap(x, y);
      const double hi = x + y;
      const double lo = y - (hi - x);
      if (lo != 0.0) p[i++] = lo;
      x = hi;
    }
    EXPECT_TRUE(std::isfinite(x)) << "oracle overflow";
    p.resize(i);
    p.push_back(x);
  }
  double hi = 0.0;
  size_t n = p.size();
  if (n > 0) {
    hi = p[--n];
    double lo = 0.0;
    while (n > 0) {
      const double x = hi;
      const double y = p[--n];
      hi = x + y;
      lo = y - (hi - x);
      if (lo != 0.0) break;
    }
    // Half-way case: a tie broken by the sign of the remaining partials.
    if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) ||
                  (lo > 0.0 && p[n - 1] > 0.0))) {
      const double y = lo * 2.0;
      const double x = hi + y;
      if (y == x - hi) hi = x;
    }
  }
  return hi;
}

inline double Fsum(const std::vector<double>& xs) {
  std::vector<double> partials;
  return Fsum(xs, partials);
}

}  // namespace ausdb

#endif  // AUSDB_TESTS_FSUM_ORACLE_H_
