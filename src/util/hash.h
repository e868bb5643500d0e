// Deterministic 64-bit hashing used to derive coordinated random ranks.
//
// All randomness in hipads sketches flows through these functions: a sketch
// "permutation" is (seed, node-id) -> U[0,1), so sketches of different sets
// built with the same seed are automatically coordinated (Section 2 of the
// paper), and any sketch can be reproduced from its seed alone.

#ifndef HIPADS_UTIL_HASH_H_
#define HIPADS_UTIL_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hipads {

/// SplitMix64 finalizer (Steele, Lea, Flood 2014). Bijective mixer with
/// excellent avalanche behaviour; the de-facto standard for seeding and for
/// hashing small integer keys in sketch data structures.
inline constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Murmur3-style finalizer; used where we need a second independent mix.
inline constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Combines a seed and a key into a single well-mixed 64-bit value.
inline constexpr uint64_t HashCombine(uint64_t seed, uint64_t key) {
  return Mix64(SplitMix64(seed) ^ SplitMix64(key + 0x9e3779b97f4a7c15ULL));
}

/// Maps a 64-bit hash to a double in [0, 1). Uses the top 53 bits so the
/// result is an exactly representable dyadic rational; never returns 1.0.
inline constexpr double ToUnitInterval(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Hash of (seed, key) mapped to U[0,1). This is the canonical full-precision
/// rank function r(v) of the paper.
inline constexpr double UnitHash(uint64_t seed, uint64_t key) {
  return ToUnitInterval(HashCombine(seed, key));
}

/// Hash of (seed, key) reduced to a bucket in [0, k). Used by k-partition
/// sketches. Uses Lemire's multiply-shift reduction to avoid modulo bias.
inline constexpr uint32_t BucketHash(uint64_t seed, uint64_t key, uint32_t k) {
  uint64_t h = HashCombine(seed ^ 0xa5a5a5a5a5a5a5a5ULL, key);
  return static_cast<uint32_t>((static_cast<__uint128_t>(h) * k) >> 64);
}

/// FNV-1a offset basis: the starting value for Fnv1a chains.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;

/// Incremental 64-bit FNV-1a over a byte range, chaining from `h` (start
/// chains with kFnv1aOffsetBasis). The wire protocol's frame checksum only
/// (serve/protocol.h): frames are small, so its byte-serial multiply chain
/// (~0.65 GB/s) is cheap there. Files use Xxh64. Not collision-resistant
/// against an adversary, but byte-exact against corruption, trivially
/// incremental and dependency-free.
inline constexpr uint64_t Fnv1a(const char* data, size_t size, uint64_t h) {
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace xxh64_internal {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Read64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian hosts only, like the v2 file format itself
}

inline uint64_t Read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t lane) {
  acc += lane * kPrime2;
  acc = std::rotl(acc, 31);
  return acc * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace xxh64_internal

/// XXH64 (Yann Collet's xxHash, 64-bit variant) of a byte range under
/// `seed`, per the public-domain specification at
/// https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md. The
/// integrity checksum of the hipads-ads-v2 file format: four independent
/// 64-bit lanes per 32-byte stripe keep the multiplier pipelines full, so
/// it runs at memory speed where byte-serial FNV-1a is latency-bound.
/// Sections chain by passing the previous section's hash as the next
/// seed. Like Fnv1a, it detects corruption, not adversaries.
inline uint64_t Xxh64(const char* data, size_t size, uint64_t seed) {
  using namespace xxh64_internal;
  const char* p = data;
  const char* const end = data + size;
  uint64_t acc;
  if (size >= 32) {
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    const char* const limit = end - 32;
    do {
      v1 = Round(v1, Read64(p));
      v2 = Round(v2, Read64(p + 8));
      v3 = Round(v3, Read64(p + 16));
      v4 = Round(v4, Read64(p + 24));
      p += 32;
    } while (p <= limit);
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
    acc = MergeRound(acc, v1);
    acc = MergeRound(acc, v2);
    acc = MergeRound(acc, v3);
    acc = MergeRound(acc, v4);
  } else {
    acc = seed + kPrime5;
  }
  acc += static_cast<uint64_t>(size);
  for (; end - p >= 8; p += 8) {
    acc ^= Round(0, Read64(p));
    acc = std::rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= Read32(p) * kPrime1;
    acc = std::rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    acc ^= static_cast<uint8_t>(*p) * kPrime5;
    acc = std::rotl(acc, 11) * kPrime1;
  }
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

}  // namespace hipads

#endif  // HIPADS_UTIL_HASH_H_
