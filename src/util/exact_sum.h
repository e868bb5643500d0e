// ExactSum: an error-free accumulator for nonnegative doubles.
//
// The distributed sweep gather (src/serve/) needs to merge per-range
// floating-point accumulations into exactly the value a single-process
// fold produces, bit for bit, for every way of partitioning the ranges. A
// left fold of doubles cannot be split that way — (s + w1) + w2 differs
// from s + (w1 + w2) — so instead of replaying the fold, ExactSum removes
// rounding from the accumulation entirely: it is a fixed-point
// superaccumulator (a Kulisch accumulator with base-2^32 digits) wide
// enough to hold any sum of doubles exactly. Adds and merges are exact
// integer arithmetic, so the represented value is independent of insertion
// order and of how the inputs were partitioned; the single IEEE rounding
// happens in Round(), round-to-nearest-even of the exact value. Two
// processes that added the same multiset of values — in any order, merged
// through any tree — round to the same double.
//
// Layout: value = sum over i of digit[i] * 2^(32*i - 1074). 66 digits
// cover every finite-double bit position [2^-1074, 2^1023]; the spare top
// digits absorb carry growth, supporting sums of at least 2^60 values of
// any magnitude. Digits are held in uint64 limbs with delayed carries;
// Add touches at most three limbs, so accumulation is O(1) per value.
//
// Only nonnegative finite values are supported (the serving sweeps
// accumulate HIP estimate weights, which are >= 0); Add asserts this in
// debug builds and ignores out-of-domain values in release builds.

#ifndef HIPADS_UTIL_EXACT_SUM_H_
#define HIPADS_UTIL_EXACT_SUM_H_

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace hipads {

class ExactSum {
 public:
  /// Number of base-2^32 digits: 66 span the finite-double bit positions,
  /// plus 4 of carry headroom for the running sum's growth.
  static constexpr uint32_t kDigits = 70;

  /// Adds a finite value >= 0 exactly. O(1): at most three limbs change.
  void Add(double v) {
    assert(std::isfinite(v) && v >= 0.0);
    if (!(v > 0.0) || !std::isfinite(v)) return;
    // Read the IEEE fields directly (v > 0, so the sign bit is clear). A
    // normal v with biased exponent E is m * 2^(E - 1075) with the implicit
    // bit restored in m, so m's unit bit sits E - 1 bits above the
    // accumulator's lowest bit, 2^-1074; a subnormal v (E = 0) is its raw
    // fraction times 2^-1074, offset 0.
    const auto bits = std::bit_cast<uint64_t>(v);
    const auto biased = static_cast<uint32_t>(bits >> 52);
    uint64_t m = bits & ((uint64_t{1} << 52) - 1);
    uint32_t off = 0;
    if (biased != 0) {
      m |= uint64_t{1} << 52;
      off = biased - 1;
    }
    uint32_t limb = off / 32;
    uint32_t shift = off % 32;
    auto wide = static_cast<unsigned __int128>(m) << shift;  // <= 84 bits
    limbs_[limb] += static_cast<uint64_t>(wide) & 0xffffffffu;
    limbs_[limb + 1] += static_cast<uint64_t>(wide >> 32) & 0xffffffffu;
    limbs_[limb + 2] += static_cast<uint64_t>(wide >> 64);
    // Each Add grows a limb by < 2^32; normalized limbs are < 2^32, so
    // 2^31 - 1 delayed adds keep every limb below 2^63 + 2^32 < 2^64.
    if (++pending_ >= kMaxPending) Normalize();
  }

  /// Adds another accumulator's exact value into this one.
  void Merge(const ExactSum& other) {
    Normalize();
    std::array<uint64_t, kDigits> digits = other.NormalizedDigits();
    for (uint32_t i = 0; i < kDigits; ++i) limbs_[i] += digits[i];
    pending_ = 1;
  }

  /// The exact value rounded once, to nearest, ties to even. Sums beyond
  /// the double range return +infinity.
  double Round() const {
    std::array<uint64_t, kDigits> d = NormalizedDigits();
    int h = static_cast<int>(kDigits) - 1;
    while (h >= 0 && d[h] == 0) --h;
    if (h < 0) return 0.0;
    int top = 31 - std::countl_zero(static_cast<uint32_t>(d[h]));
    int b_max = 32 * h + top;       // highest set bit of the exact value
    int cut = b_max > 52 ? b_max - 52 : 0;  // keep 53 bits (fewer: exact)
    int cd = cut / 32;
    // 128-bit window over digits [cd-1, cd+2]; b_max - cut <= 52 puts the
    // top digit within it. Base bit of the window: 32 * (cd - 1).
    unsigned __int128 w = 0;
    for (int i = 3; i >= 0; --i) {
      int gi = cd - 1 + i;
      uint64_t digit = (gi >= 0 && gi < static_cast<int>(kDigits)) ? d[gi] : 0;
      w = (w << 32) | digit;
    }
    int ws = cut - 32 * (cd - 1);  // in [32, 63]
    auto mant = static_cast<uint64_t>(w >> ws);
    if (cut > 0) {
      bool round_bit = (static_cast<uint64_t>(w >> (ws - 1)) & 1) != 0;
      bool sticky = (w & ((static_cast<unsigned __int128>(1) << (ws - 1)) -
                          1)) != 0;
      for (int i = 0; i < cd - 1 && !sticky; ++i) sticky = d[i] != 0;
      if (round_bit && (sticky || (mant & 1))) ++mant;
      if (mant >> 53) {  // carried into bit 53: renormalize
        mant >>= 1;
        ++cut;
      }
    }
    return std::ldexp(static_cast<double>(mant), cut - 1074);
  }

  bool IsZero() const {
    for (uint64_t limb : limbs_) {
      if (limb != 0) return false;
    }
    return true;
  }

  /// Appends the wire form: u32 lo, u32 count, count little-endian u32
  /// digits — the nonzero digit window of the normalized value, canonical
  /// for the represented value (independent of add/merge history).
  void EncodeTo(std::string* out) const {
    std::array<uint64_t, kDigits> d = NormalizedDigits();
    uint32_t lo = 0, hi = kDigits;
    while (lo < hi && d[lo] == 0) ++lo;
    while (hi > lo && d[hi - 1] == 0) --hi;
    uint32_t count = hi - lo;
    if (count == 0) lo = hi = 0;  // canonical zero: empty window at 0
    AppendU32(out, lo);
    AppendU32(out, count);
    for (uint32_t i = lo; i < hi; ++i) {
      AppendU32(out, static_cast<uint32_t>(d[i]));
    }
  }

  /// Fixed prefix of the wire form ahead of the digits.
  static constexpr size_t kWireHeaderBytes = 8;

  /// Parses one encoded accumulator from the front of `data` and merges
  /// its value into this sum. On success sets *consumed to the bytes read
  /// and returns true; malformed input returns false with *this unchanged.
  bool DecodeAndMerge(std::string_view data, size_t* consumed) {
    if (data.size() < kWireHeaderBytes) return false;
    uint32_t lo = ReadU32(data.data());
    uint32_t count = ReadU32(data.data() + 4);
    if (lo > kDigits || count > kDigits - lo) return false;
    size_t need = kWireHeaderBytes + static_cast<size_t>(count) * 4;
    if (data.size() < need) return false;
    Normalize();
    for (uint32_t i = 0; i < count; ++i) {
      limbs_[lo + i] += ReadU32(data.data() + kWireHeaderBytes + i * 4);
    }
    pending_ = 1;
    *consumed = need;
    return true;
  }

 private:
  // Delayed-carry budget; see Add.
  static constexpr uint32_t kMaxPending = 1u << 31;

  void Normalize() {
    uint64_t carry = 0;
    for (uint32_t i = 0; i < kDigits; ++i) {
      uint64_t limb = limbs_[i] + carry;
      limbs_[i] = limb & 0xffffffffu;
      carry = limb >> 32;
    }
    assert(carry == 0 && "ExactSum overflow: sum exceeds 2^1056");
    pending_ = 0;
  }

  std::array<uint64_t, kDigits> NormalizedDigits() const {
    ExactSum copy = *this;
    copy.Normalize();
    return copy.limbs_;
  }

  static void AppendU32(std::string* out, uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out->append(buf, 4);
  }
  static uint32_t ReadU32(const char* p) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
  }

  std::array<uint64_t, kDigits> limbs_{};
  uint32_t pending_ = 0;
};

}  // namespace hipads

#endif  // HIPADS_UTIL_EXACT_SUM_H_
