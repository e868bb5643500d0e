#include "util/random.h"

#include <cmath>

#include "util/hash.h"

namespace hipads {

Rng::Rng(uint64_t seed) {
  // SplitMix64-expand the seed into the four state words, as recommended by
  // the xoshiro authors. Guarantees a nonzero state for every seed.
  uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    s = Mix64(x);
  }
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Rejection-free in the common case; falls back to rejection to remove
  // modulo bias (Lemire 2019).
  __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(Next()) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextExponential(double lambda) {
  // -ln(1-u)/lambda with u in [0,1); 1-u is in (0,1] so the log is finite.
  return -std::log1p(-NextUnit()) / lambda;
}

bool Rng::NextBernoulli(double p) { return NextUnit() < p; }

std::vector<uint32_t> Rng::NextPermutation(uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  for (uint32_t i = n; i > 1; --i) {
    uint32_t j = static_cast<uint32_t>(NextBounded(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace hipads
