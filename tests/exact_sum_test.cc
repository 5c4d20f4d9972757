// ExactSum, the time window's exact accumulator: every read must be the
// correctly rounded (round-to-nearest-even) sum of the live terms, bit
// for bit, whatever the order of adds and removes. The oracle is a port
// of CPython's math.fsum (tests/fsum_oracle.h), an algorithm independent
// of the accumulator's fixed-point digits.

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "tests/fsum_oracle.h"

namespace ausdb {
namespace {

// The oracle for sums that may pass DBL_MAX: the terms scaled by 2^-64
// (exact for normal terms) are summed and the result scaled back, which
// overflows to +-inf exactly when the correctly rounded sum does.
double ScaledFsum(const std::vector<double>& xs) {
  std::vector<double> scaled;
  for (double x : xs) scaled.push_back(std::ldexp(x, -64));
  return std::ldexp(Fsum(scaled), 64);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

double Read(const std::vector<double>& xs) {
  ExactSum s;
  for (double x : xs) s.Add(x);
  return s.Read();
}

// A random double: random sign, 53 random mantissa bits and an exponent
// uniform in [min_exp, max_exp]; exponents below -1022 give subnormals.
double RandomDouble(std::mt19937_64& rng, int min_exp, int max_exp) {
  std::uniform_int_distribution<int> exp(min_exp, max_exp);
  const double mantissa =
      1.0 + static_cast<double>(rng() >> 12) * 0x1p-52;  // [1, 2)
  const double x = std::ldexp(mantissa, exp(rng));
  return (rng() & 1) != 0 ? -x : x;
}

#define EXPECT_BITS_EQ(got, want)                                  \
  EXPECT_EQ(Bits(got), Bits(want)) << "got " << (got) << " want " \
                                   << (want)

TEST(ExactSumTest, EmptyAndZerosReadPositiveZero) {
  EXPECT_BITS_EQ(ExactSum().Read(), 0.0);
  EXPECT_BITS_EQ(Read({0.0, -0.0}), 0.0);
  EXPECT_BITS_EQ(Read({1.5, -1.5}), 0.0);
}

TEST(ExactSumTest, CancellationIsExact) {
  // A plain double sum absorbs the 1 into 1e16 and reads 0.
  EXPECT_BITS_EQ(Read({1e16, 1.0, -1e16}), 1.0);
  EXPECT_BITS_EQ(Read({1e100, 1.0, -1e100}), 1.0);
  EXPECT_BITS_EQ(Read({0x1p-1074, 1e300, -1e300}), 0x1p-1074);
  EXPECT_BITS_EQ(Read({1e16, 1.0, -1e16}), Fsum({1e16, 1.0, -1e16}));
}

TEST(ExactSumTest, RoundsHalfwayCasesToEven) {
  const double one_ulp = 0x1p-52;
  // 1 + half an ulp ties to the even 1.
  EXPECT_BITS_EQ(Read({1.0, 0x1p-53}), 1.0);
  // Anything below the tie breaks it upward.
  EXPECT_BITS_EQ(Read({1.0, 0x1p-53, 0x1p-200}), 1.0 + one_ulp);
  EXPECT_BITS_EQ(Read({1.0, 0x1p-53, -0x1p-200}), 1.0);
  // An odd mantissa ties upward.
  EXPECT_BITS_EQ(Read({1.0 + one_ulp, 0x1p-53}), 1.0 + 2 * one_ulp);
  // The carry out of the mantissa moves into the exponent.
  EXPECT_BITS_EQ(Read({2.0 - one_ulp, 0x1p-53}), 2.0);
}

TEST(ExactSumTest, SubnormalsAreExact) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_BITS_EQ(Read({tiny, tiny, tiny}), 3 * tiny);
  EXPECT_BITS_EQ(Read({DBL_MIN, -tiny}), DBL_MIN - tiny);
  EXPECT_BITS_EQ(Read({-DBL_MIN, tiny}), -DBL_MIN + tiny);
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> xs(1 + trial % 40);
    for (double& x : xs) x = RandomDouble(rng, -1074, -1000);
    EXPECT_BITS_EQ(Read(xs), Fsum(xs)) << "trial " << trial;
  }
}

TEST(ExactSumTest, MatchesCorrectlyRoundedOracleOverFullExponentRange) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    // Up to 2^10 terms below 2^1012 cannot overflow the oracle.
    std::vector<double> xs(1 + (trial * 37) % 1000);
    const int max_exp = trial % 4 == 0 ? 1011 : 60;
    const int min_exp = trial % 3 == 0 ? -1074 : -60;
    for (double& x : xs) x = RandomDouble(rng, min_exp, max_exp);
    EXPECT_BITS_EQ(Read(xs), Fsum(xs)) << "trial " << trial;
  }
}

TEST(ExactSumTest, SumsBeyondDblMaxReadAsInfinity) {
  EXPECT_BITS_EQ(Read({DBL_MAX, DBL_MAX, -DBL_MAX}), DBL_MAX);
  EXPECT_EQ(Read({DBL_MAX, DBL_MAX}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(Read({-DBL_MAX, -DBL_MAX}),
            -std::numeric_limits<double>::infinity());
  // DBL_MAX has an odd mantissa: half an ulp more ties upward, to inf.
  const double half_ulp = 0x1p970;
  EXPECT_EQ(Read({DBL_MAX, half_ulp}),
            std::numeric_limits<double>::infinity());
  EXPECT_BITS_EQ(Read({DBL_MAX, half_ulp, -0x1p900}), DBL_MAX);
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> xs(1 + trial % 64);
    for (double& x : xs) x = RandomDouble(rng, 1015, 1023);
    EXPECT_BITS_EQ(Read(xs), ScaledFsum(xs)) << "trial " << trial;
  }
}

TEST(ExactSumTest, NonFiniteTermsReadLikeAPlainSum) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Read({1.0, inf}), inf);
  EXPECT_EQ(Read({1.0, -inf, -inf}), -inf);
  EXPECT_TRUE(std::isnan(Read({inf, -inf})));
  EXPECT_TRUE(std::isnan(Read({1.0, nan})));
  EXPECT_TRUE(std::isnan(Read({inf, nan})));
  // Removing the non-finite terms restores the finite sum exactly.
  ExactSum s;
  for (double x : {1e16, inf, 1.0, nan, -inf, -1e16}) s.Add(x);
  EXPECT_TRUE(std::isnan(s.Read()));
  s.Remove(nan);
  EXPECT_TRUE(std::isnan(s.Read()));
  s.Remove(-inf);
  EXPECT_EQ(s.Read(), inf);
  s.Remove(inf);
  EXPECT_BITS_EQ(s.Read(), 1.0);
}

TEST(ExactSumTest, ReadIsInvariantUnderPermutation) {
  std::mt19937_64 rng(5);
  std::vector<double> xs(600);
  for (double& x : xs) x = RandomDouble(rng, -1074, 1000);
  const uint64_t want = Bits(Fsum(xs));
  for (int trial = 0; trial < 30; ++trial) {
    std::shuffle(xs.begin(), xs.end(), rng);
    ExactSum s;
    // Interleave terms that are removed again, in another order.
    std::vector<double> extra(50);
    for (double& x : extra) x = RandomDouble(rng, -1074, 1000);
    for (size_t i = 0; i < xs.size(); ++i) {
      s.Add(xs[i]);
      if (i < extra.size()) s.Add(extra[i]);
    }
    std::shuffle(extra.begin(), extra.end(), rng);
    for (double x : extra) s.Remove(x);
    EXPECT_EQ(Bits(s.Read()), want) << "trial " << trial;
  }
}

TEST(ExactSumTest, MillionsOfMixedUpdatesCancelToPositiveZero) {
  // 1.5M updates pass the accumulator's in-place carry interval.
  std::mt19937_64 rng(13);
  ExactSum s;
  std::vector<double> live;
  size_t updates = 0;
  for (size_t step = 0; updates < 1500000; ++step) {
    if (live.size() < 64 || (rng() % 3 != 0 && live.size() < 4096)) {
      const int band = static_cast<int>(rng() % 3);
      const double x = band == 0   ? RandomDouble(rng, -1074, 1000)
                       : band == 1 ? RandomDouble(rng, 30, 45)
                                   : RandomDouble(rng, -15, -5);
      s.Add(x);
      live.push_back(x);
    } else {
      const size_t i = rng() % live.size();
      s.Remove(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    ++updates;
    if (step % 100000 == 0) {
      ASSERT_EQ(Bits(s.Read()), Bits(Fsum(live))) << "after " << updates;
    }
  }
  ASSERT_EQ(Bits(s.Read()), Bits(Fsum(live)));
  std::shuffle(live.begin(), live.end(), rng);
  for (double x : live) s.Remove(x);
  EXPECT_BITS_EQ(s.Read(), 0.0);
}

}  // namespace
}  // namespace ausdb
