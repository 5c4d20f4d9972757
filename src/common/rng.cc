#include "src/common/rng.h"

namespace ausdb {

namespace {

inline uint64_t SplitMix64(uint64_t* state) {
  return SplitMix64Mix(*state += 0x9E3779B97F4A7C15ULL);
}

}  // namespace

uint64_t SplitMix64Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) { Seed(seed); }

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  has_cached_gaussian_ = false;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Lemire's nearly-divisionless unbiased bounded generation.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

Rng Rng::Split() { return Rng(NextUint64()); }

}  // namespace ausdb
