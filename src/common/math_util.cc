#include "src/common/math_util.h"

#include <algorithm>
#include <limits>

namespace ausdb {

bool AlmostEqual(double a, double b, double rel_tol, double abs_tol) {
  if (a == b) return true;
  const double diff = std::abs(a - b);
  const double scale = std::max(std::abs(a), std::abs(b));
  return diff <= abs_tol + rel_tol * scale;
}

namespace {

/// Carries digits[lo, top) into [0, 2^32) and spills the top digit
/// upward until it lies in [-2^32, 2^32), so it alone carries the sign.
void PropagateCarries(int64_t* digits, int lo, int& top, int max_top) {
  for (int i = lo; i < top; ++i) {
    digits[i + 1] += digits[i] >> 32;
    digits[i] &= 0xffffffff;
  }
  while (top < max_top && (digits[top] >> 32) != 0 &&
         (digits[top] >> 32) != -1) {
    digits[top + 1] = digits[top] >> 32;
    digits[top] &= 0xffffffff;
    ++top;
  }
}

}  // namespace

void ExactSum::Carry() {
  uncarried_ = 0;
  if (lo_ > hi_) return;
  PropagateCarries(digits_, lo_, hi_, kDigits - 1);
  while (lo_ <= hi_ && digits_[lo_] == 0) ++lo_;
  while (hi_ >= lo_ && digits_[hi_] == 0) --hi_;
  if (lo_ > hi_) {
    lo_ = kDigits;
    hi_ = -1;
  }
}

double ExactSum::Read() const {
  if (nan_ != 0 || (pos_inf_ != 0 && neg_inf_ != 0)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_ != 0) return std::numeric_limits<double>::infinity();
  if (neg_inf_ != 0) return -std::numeric_limits<double>::infinity();
  if (lo_ > hi_) return 0.0;

  // Carry a copy of the touched digits, then take the magnitude.
  int64_t d[kDigits];
  const int lo = lo_;
  int top = hi_;
  std::copy(digits_ + lo, digits_ + top + 1, d + lo);
  PropagateCarries(d, lo, top, kDigits - 1);
  const bool negative = d[top] < 0;
  if (negative) {
    for (int i = lo; i <= top; ++i) d[i] = -d[i];
    PropagateCarries(d, lo, top, kDigits - 1);
  }
  while (top >= lo && d[top] == 0) --top;
  if (top < lo) return 0.0;
  const auto digit = [&](int i) -> uint64_t {
    return i >= lo ? static_cast<uint64_t>(d[i]) : 0;
  };

  // The magnitude is an integer count of 2^-1074 whose highest set bit
  // is p; below 2^53 it is exactly the bit pattern of its double.
  const int p =
      32 * top + 31 - std::countl_zero(static_cast<uint32_t>(d[top]));
  uint64_t bits;
  if (p < 53) {
    bits = (digit(1) << 32) | digit(0);
  } else {
    // Keep 53 bits and round to nearest even on the rest.
    __extension__ using Wide = unsigned __int128;
    const Wide window = (static_cast<Wide>(digit(top)) << 64) |
                        (static_cast<Wide>(digit(top - 1)) << 32) |
                        digit(top - 2);
    const int shift = p - 32 * (top - 2) - 52;
    uint64_t mantissa = static_cast<uint64_t>(window >> shift);
    const Wide rest = window & ((Wide{1} << shift) - 1);
    const Wide half = Wide{1} << (shift - 1);
    bool below = false;
    for (int i = lo; i < top - 2 && !below; ++i) below = d[i] != 0;
    if (rest > half || (rest == half && (below || (mantissa & 1) != 0))) {
      ++mantissa;
    }
    // The biased exponent is p - 51; a carry out of the mantissa moves
    // into it.
    bits = (static_cast<uint64_t>(p - 52) << 52) + mantissa;
    bits = std::min(bits, uint64_t{0x7ff} << 52);
  }
  if (negative) bits |= uint64_t{1} << 63;
  return std::bit_cast<double>(bits);
}

double StableSum(const std::vector<double>& values) {
  KahanSum sum;
  for (double v : values) sum.Add(v);
  return sum.Get();
}

}  // namespace ausdb
