#ifndef AUSDB_COMMON_MATH_UTIL_H_
#define AUSDB_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ausdb {

/// x squared.
inline double Sq(double x) { return x * x; }

/// True if |a-b| <= abs_tol + rel_tol*max(|a|,|b|). The default tolerances
/// suit unit-scale statistical quantities.
bool AlmostEqual(double a, double b, double rel_tol = 1e-9,
                 double abs_tol = 1e-12);

/// \brief Numerically stable summation (Kahan-Babuska / Neumaier).
///
/// Accumulates doubles with a running compensation term so that long,
/// mixed-magnitude streams (e.g. millions of window updates) do not drift.
class KahanSum {
 public:
  void Add(double x) {
    double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  void Subtract(double x) { Add(-x); }
  double Get() const { return sum_ + comp_; }
  void Reset() { sum_ = comp_ = 0.0; }

  /// The raw running sum and its compensation term, exposed so operator
  /// checkpoints can persist the accumulator's exact floating-point
  /// history and restore it bit-for-bit.
  double raw_sum() const { return sum_; }
  double compensation() const { return comp_; }
  void Restore(double sum, double comp) {
    sum_ = sum;
    comp_ = comp;
  }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// \brief Exact, order-insensitive summation (a fixed-point
/// superaccumulator; Neal, arXiv:1505.05571).
///
/// Every finite double is an integer multiple of 2^-1074 below 2^1024,
/// so the running sum is kept exactly as a two's-complement integer of
/// 68 base-2^32 digits (room for 2^64 maximal terms), each digit held in
/// an int64 so additions defer their carries. Add and Remove touch three
/// digits and never round; Read rounds the exact sum once, to nearest
/// even. A read is therefore a pure function of the multiset of live
/// terms: any order of adds and removes of one multiset reads the same
/// bits. A finite sum beyond DBL_MAX reads as +-inf. Infinities and NaNs
/// are counted beside the digits and read as a plain-double sum of the
/// live terms would: NaN when a NaN or both infinities are live, else
/// the live infinity.
class ExactSum {
 public:
  void Add(double x) { Accumulate(x, 1); }
  /// Removes one earlier-added `x`, exactly.
  void Remove(double x) { Accumulate(x, -1); }
  /// The exact sum of the live terms, correctly rounded.
  double Read() const;

 private:
  static constexpr int kDigits = 68;
  /// Carries are propagated at least this often. Between propagations a
  /// digit moves by less than 2^32 per update, so it stays far inside
  /// int64.
  static constexpr uint32_t kCarryInterval = uint32_t{1} << 20;

  void Accumulate(double x, int64_t sign);
  /// Propagates the deferred carries in place and trims the touched
  /// digit range.
  void Carry();

  int64_t digits_[kDigits] = {};
  /// Digits outside [lo_, hi_] are zero; lo_ > hi_ when all are.
  int lo_ = kDigits;
  int hi_ = -1;
  uint32_t uncarried_ = 0;
  int64_t pos_inf_ = 0;
  int64_t neg_inf_ = 0;
  int64_t nan_ = 0;
};

inline void ExactSum::Accumulate(double x, int64_t sign) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  if (biased == 0x7ff) {
    (mantissa != 0 ? nan_ : (bits >> 63) != 0 ? neg_inf_ : pos_inf_) += sign;
    return;
  }
  if (biased != 0) mantissa |= uint64_t{1} << 52;
  if (mantissa == 0) return;
  if ((bits >> 63) != 0) sign = -sign;
  // x = mantissa * 2^(offset - 1074): subnormals share the lowest scale.
  const int offset = biased == 0 ? 0 : biased - 1;
  const int d = offset >> 5;
  __extension__ using Wide = unsigned __int128;
  const Wide shifted = static_cast<Wide>(mantissa) << (offset & 31);
  digits_[d] += sign * static_cast<int64_t>(shifted & 0xffffffffu);
  digits_[d + 1] += sign * static_cast<int64_t>((shifted >> 32) & 0xffffffffu);
  digits_[d + 2] += sign * static_cast<int64_t>(shifted >> 64);
  lo_ = std::min(lo_, d);
  hi_ = std::max(hi_, d + 2);
  if (++uncarried_ == kCarryInterval) Carry();
}

/// Kahan-compensated sum of a vector.
double StableSum(const std::vector<double>& values);

/// Linear interpolation between a and b at fraction t in [0,1].
inline double Lerp(double a, double b, double t) { return a + t * (b - a); }

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace ausdb

#endif  // AUSDB_COMMON_MATH_UTIL_H_
