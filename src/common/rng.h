#ifndef AUSDB_COMMON_RNG_H_
#define AUSDB_COMMON_RNG_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace ausdb {

/// SplitMix64's output mix (Steele, Lea & Flood, OOPSLA 2014): a
/// bijection on 64-bit words that turns nearby inputs into unrelated
/// outputs. Rng's seeder runs it over the seed; SeedKey folds key words
/// with it.
uint64_t SplitMix64Mix(uint64_t x);

/// \brief Counter-based seed derivation (Salmon et al., "Parallel Random
/// Numbers: As Easy as 1, 2, 3", SC 2011): hashes a key of 64-bit words
/// into the seed of an Rng, so a stream is a pure function of what it is
/// drawn for instead of a position in one shared sequence.
///
///   Rng rng(SeedKey(plan_seed).Add(column).AddBits(mean).value());
///
/// The words are folded in order, so (a, b) and (b, a) give different
/// seeds. Distinct keys may collide (2^-64 per pair); two users of one
/// seed then share draws, nothing else.
class SeedKey {
 public:
  explicit SeedKey(uint64_t seed) : h_(SplitMix64Mix(seed)) {}

  SeedKey& Add(uint64_t word) {
    h_ = SplitMix64Mix(h_ ^ word);
    return *this;
  }

  /// Folds the IEEE-754 bit pattern of `v` (so 0.0 and -0.0 differ).
  SeedKey& AddBits(double v) { return Add(std::bit_cast<uint64_t>(v)); }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_;
};

/// \brief Deterministic pseudo-random number generator (xoshiro256++).
///
/// All randomized components of AUSDB (bootstrap resampling, Monte Carlo
/// expression evaluation, workload generators) draw from an explicitly
/// passed Rng so that experiments are reproducible from a seed. The
/// generator is Blackman & Vigna's xoshiro256++ with a SplitMix64 seeder;
/// it is not cryptographically secure and is not meant to be.
class Rng {
 public:
  /// Seeds the generator. Any 64-bit seed (including 0) is valid; the
  /// internal state is expanded with SplitMix64 so similar seeds do not
  /// produce correlated streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next 64 uniformly random bits.
  uint64_t NextUint64() {
    const uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method to avoid modulo bias.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal variate (Marsaglia polar method, cached pair).
  double NextGaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    // Draws a uniform point in the unit disc and transforms it into two
    // independent standard normals.
    double u, v, s;
    do {
      u = NextDouble(-1.0, 1.0);
      v = NextDouble(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_gaussian_ = v * factor;
    has_cached_gaussian_ = true;
    return u * factor;
  }

  /// Re-seeds the generator, discarding all state.
  void Seed(uint64_t seed);

  /// Splits off an independently seeded child generator. Useful for giving
  /// each parallel task its own stream.
  Rng Split();

 private:
  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace ausdb

#endif  // AUSDB_COMMON_RNG_H_
