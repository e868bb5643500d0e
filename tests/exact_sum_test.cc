// ExactSum is the error-free accumulator behind the distributed distance
// histogram: any insertion order, any merge tree, one rounding at the end.
// These tests pin the exactness and rounding contracts the serving layer's
// bitwise-determinism guarantees rest on.

#include "util/exact_sum.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace hipads {
namespace {

std::string Encoded(const ExactSum& s) {
  std::string out;
  s.EncodeTo(&out);
  return out;
}

TEST(ExactSumTest, EmptyAndZeroSumsRoundToZero) {
  ExactSum s;
  EXPECT_TRUE(s.IsZero());
  EXPECT_EQ(s.Round(), 0.0);
  s.Add(0.0);
  EXPECT_TRUE(s.IsZero());
  EXPECT_EQ(s.Round(), 0.0);
  EXPECT_EQ(Encoded(s).size(), ExactSum::kWireHeaderBytes);
}

// Sums whose exact value is representable must come back exactly —
// including when a naive double fold would already have rounded.
TEST(ExactSumTest, ExactlyRepresentableSumsAreExact) {
  ExactSum s;
  double expected = 0.0;
  // Multiples of 2^-10 below 2^20: any partial sum of 10k of them needs
  // at most 44 significand bits, so the reference fold is itself exact.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = std::ldexp(static_cast<double>(rng() % (1u << 30)), -10);
    s.Add(v);
    expected += v;
  }
  EXPECT_EQ(s.Round(), expected);
}

// 2^-53 is half an ulp of 1.0: a tie, which must round to even (1.0);
// any extra sticky bit below must break the tie upward.
TEST(ExactSumTest, RoundsToNearestTiesToEven) {
  const double half_ulp = std::ldexp(1.0, -53);
  {
    ExactSum s;
    s.Add(1.0);
    s.Add(half_ulp);
    EXPECT_EQ(s.Round(), 1.0);
  }
  {
    ExactSum s;
    s.Add(1.0);
    s.Add(half_ulp);
    s.Add(std::numeric_limits<double>::denorm_min());  // sticky, 1021 bits down
    EXPECT_EQ(s.Round(), 1.0 + std::ldexp(1.0, -52));
  }
  {
    ExactSum s;  // two half-ulps are a whole ulp: exact
    s.Add(1.0);
    s.Add(half_ulp);
    s.Add(half_ulp);
    EXPECT_EQ(s.Round(), 1.0 + std::ldexp(1.0, -52));
  }
  {
    // 1.5 ulp above an odd significand: tie rounds up to even.
    ExactSum s;
    s.Add(1.0 + std::ldexp(1.0, -52));
    s.Add(half_ulp);
    EXPECT_EQ(s.Round(), 1.0 + std::ldexp(2.0, -52));
  }
}

TEST(ExactSumTest, ExtremeMagnitudesCoexist) {
  ExactSum s;
  s.Add(1e308);
  s.Add(5e-324);  // the smallest subnormal, ~632 orders of magnitude down
  EXPECT_EQ(s.Round(), 1e308);  // sticky bit alone cannot move the result
  ExactSum tiny;
  tiny.Add(5e-324);
  tiny.Add(5e-324);
  EXPECT_EQ(tiny.Round(), 2 * 5e-324);
  ExactSum max;
  for (int i = 0; i < 4; ++i) max.Add(std::numeric_limits<double>::max());
  EXPECT_TRUE(std::isinf(max.Round()));  // exact sum beyond the double range
}

// The core property the distributed gather relies on: the value — and the
// canonical encoding — depend only on the multiset of added values, not
// on insertion order or on how the values were partitioned across
// accumulators before merging.
TEST(ExactSumTest, OrderAndPartitionIndependent) {
  std::mt19937_64 rng(42);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    // Adversarial spread: exponents across ~180 orders of magnitude.
    int exp = static_cast<int>(rng() % 600) - 300;
    double mant = static_cast<double>(rng()) / static_cast<double>(~0ull);
    values.push_back(std::ldexp(1.0 + mant, exp));
  }
  ExactSum reference;
  for (double v : values) reference.Add(v);
  const double expected = reference.Round();
  const std::string expected_bytes = Encoded(reference);

  std::vector<double> shuffled = values;
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    // Partition into a random number of chunks, one accumulator each,
    // merged in a right fold.
    size_t chunks = 1 + rng() % 7;
    std::vector<ExactSum> parts(chunks);
    for (size_t i = 0; i < shuffled.size(); ++i) {
      parts[rng() % chunks].Add(shuffled[i]);
    }
    ExactSum merged;
    for (const ExactSum& p : parts) merged.Merge(p);
    EXPECT_EQ(merged.Round(), expected) << "trial " << trial;
    EXPECT_EQ(Encoded(merged), expected_bytes) << "trial " << trial;
  }
}

TEST(ExactSumTest, WireRoundTripsAndRejectsMalformed) {
  ExactSum s;
  s.Add(3.25);
  s.Add(1e-9);
  s.Add(7e12);
  std::string wire = Encoded(s);

  ExactSum decoded;
  size_t consumed = 0;
  ASSERT_TRUE(decoded.DecodeAndMerge(wire, &consumed));
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded.Round(), s.Round());
  EXPECT_EQ(Encoded(decoded), wire);

  // Decoding merges: a second absorb doubles the value.
  ASSERT_TRUE(decoded.DecodeAndMerge(wire, &consumed));
  ExactSum doubled;
  doubled.Merge(s);
  doubled.Merge(s);
  EXPECT_EQ(Encoded(decoded), Encoded(doubled));

  ExactSum sink;
  // Truncated header, truncated digits, and out-of-range windows fail.
  EXPECT_FALSE(sink.DecodeAndMerge(wire.substr(0, 3), &consumed));
  EXPECT_FALSE(sink.DecodeAndMerge(wire.substr(0, wire.size() - 1),
                                   &consumed));
  std::string bad_lo = wire;
  uint32_t huge = 1000;
  std::memcpy(bad_lo.data(), &huge, 4);
  EXPECT_FALSE(sink.DecodeAndMerge(bad_lo, &consumed));
  std::string bad_count = wire;
  std::memcpy(bad_count.data() + 4, &huge, 4);
  EXPECT_FALSE(sink.DecodeAndMerge(bad_count, &consumed));
  EXPECT_TRUE(sink.IsZero());
}

// The frexp/ldexp decomposition Add used before it read the IEEE fields
// directly, kept as the reference: v = m * 2^(e - 53) with a 53-bit m,
// shifted down exactly for subnormals, added through the wire form as the
// same three-digit window the old Add wrote into its limbs.
void ReferenceAdd(ExactSum* sum, double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return;
  int e;
  double f = std::frexp(v, &e);
  auto m = static_cast<uint64_t>(std::ldexp(f, 53));
  int off = e + 1021;
  if (off < 0) {
    m >>= -off;
    off = 0;
  }
  auto wide = static_cast<unsigned __int128>(m) << (off % 32);
  const uint32_t window[5] = {static_cast<uint32_t>(off / 32), 3,
                              static_cast<uint32_t>(wide),
                              static_cast<uint32_t>(wide >> 32),
                              static_cast<uint32_t>(wide >> 64)};
  std::string wire(reinterpret_cast<const char*>(window), sizeof(window));
  size_t consumed = 0;
  ASSERT_TRUE(sum->DecodeAndMerge(wire, &consumed));
}

void ExpectMatchesReference(const std::vector<double>& values,
                            const std::string& what) {
  ExactSum sum, reference;
  for (double v : values) {
    sum.Add(v);
    ReferenceAdd(&reference, v);
  }
  EXPECT_EQ(Encoded(sum), Encoded(reference)) << what;
  EXPECT_EQ(sum.Round(), reference.Round()) << what;
}

TEST(ExactSumTest, BitFieldAddMatchesTheFrexpReference) {
  const double denorm_min = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const double max = std::numeric_limits<double>::max();
  const double largest_subnormal = std::nextafter(min_normal, 0.0);
  for (double v : {denorm_min, largest_subnormal, min_normal, max}) {
    ExpectMatchesReference({v}, "single " + std::to_string(v));
    ExactSum alone;
    alone.Add(v);
    EXPECT_EQ(alone.Round(), v);  // one value rounds back to itself
  }
  for (int e = -1074; e <= 1023; ++e) {
    ExpectMatchesReference({std::ldexp(1.0, e)}, "2^" + std::to_string(e));
  }
  // Seeded random doubles, each exponent field (subnormals included)
  // equally likely: every value alone, and all of them in one sum.
  std::mt19937_64 rng(2024);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    const uint64_t exponent = rng() % 2047;  // 0 .. 2046: finite only
    const uint64_t fraction = rng() & ((uint64_t{1} << 52) - 1);
    const double v = std::bit_cast<double>((exponent << 52) | fraction);
    values.push_back(v);
    if (i % 100 == 0) {
      ExpectMatchesReference({v}, "random " + std::to_string(i));
    }
  }
  ExpectMatchesReference(values, "100000 random doubles");
}

// Out-of-domain values trip the assert in debug builds and are ignored in
// release builds; zero is in the domain and adds nothing.
TEST(ExactSumTest, OutOfDomainValuesAreIgnoredInReleaseBuilds) {
  ExactSum sum;
  sum.Add(1.5);
  const std::string before = Encoded(sum);
  sum.Add(0.0);
  sum.Add(-0.0);
  EXPECT_EQ(Encoded(sum), before);
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {-1.0, -std::numeric_limits<double>::denorm_min(),
                     std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    EXPECT_DEBUG_DEATH(sum.Add(bad), "");
    EXPECT_EQ(Encoded(sum), before) << bad;
  }
}

// Delayed carries must normalize transparently: enough same-limb adds to
// overflow 32-bit digits many times over still round exactly.
TEST(ExactSumTest, CarryPropagationSurvivesManyAdds) {
  ExactSum s;
  const int n = 200000;
  for (int i = 0; i < n; ++i) s.Add(1.0);
  EXPECT_EQ(s.Round(), static_cast<double>(n));
}

}  // namespace
}  // namespace hipads
