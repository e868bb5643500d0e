// Seeded pseudo-random generation for simulations and graph generators.
//
// The library's sketches derive randomness from hash.h (so they are
// deterministic given a seed); this RNG is for everything else: synthetic
// graphs, simulation trials, random permutations.

#ifndef HIPADS_UTIL_RANDOM_H_
#define HIPADS_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/hash.h"

namespace hipads {

/// xoshiro256** PRNG (Blackman & Vigna), seeded via SplitMix64.
/// Small, fast, and high quality; sufficient for Monte-Carlo estimation
/// experiments (the paper's simulations use standard generators, Section 6).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value. Defined here so that the generators' draw
  /// loops inline it.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextUnit() { return ToUnitInterval(Next()); }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (Lemire's nearly-divisionless method).
  uint64_t NextBounded(uint64_t bound);

  /// Exponentially distributed value with rate `lambda` (> 0).
  double NextExponential(double lambda);

  /// Bernoulli trial with success probability p.
  bool NextBernoulli(double p);

  /// A uniformly random permutation of {0, ..., n-1} (Fisher-Yates).
  std::vector<uint32_t> NextPermutation(uint32_t n);

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace hipads

#endif  // HIPADS_UTIL_RANDOM_H_
