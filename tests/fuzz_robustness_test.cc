// Robustness / failure-injection tests: the parsers must reject arbitrary
// corrupted input with a Status (never crash, never return a malformed
// structure), and randomized mutations of valid files must either parse to
// something structurally sound or fail cleanly. The v2 corpora run through
// every reader (in-memory parser, file reader, mmap open), which must
// agree.

#include <gtest/gtest.h>

#include <string>

#include "ads/builders.h"
#include "ads/hip.h"
#include "ads/serialize.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/random.h"
#include "v2_readers.h"

namespace hipads {
namespace {

std::string RandomGarbage(Rng& rng, size_t len) {
  static const char kAlphabet[] =
      "0123456789 .-\t\nabcdefghijklmnop#%\xff\x01";
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
  }
  return s;
}

TEST(FuzzTest, EdgeListParserNeverCrashesOnGarbage) {
  Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk = RandomGarbage(rng, 1 + rng.NextBounded(200));
    auto result = ParseEdgeList(junk, trial % 2 == 0);
    if (result.ok()) {
      // Whatever parsed must be structurally valid.
      const Graph& g = result.value();
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (const Arc& a : g.OutArcs(v)) {
          EXPECT_LT(a.head, g.num_nodes());
          EXPECT_GE(a.weight, 0.0);
        }
      }
    }
  }
}

TEST(FuzzTest, AdsParserNeverCrashesOnGarbage) {
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk = RandomGarbage(rng, 1 + rng.NextBounded(200));
    auto result = ParseFlatAdsSet(junk);
    EXPECT_FALSE(result.ok());  // garbage never carries the magic header
  }
}

TEST(FuzzTest, AdsParserSurvivesMutationsOfValidInput) {
  Graph g = ErdosRenyi(30, 90, true, 3);
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Uniform(5)));
  std::string valid = SerializeAdsSet(set);
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    // Flip a few random bytes (beyond the header so some parse attempts
    // get past the magic line).
    int flips = 1 + static_cast<int>(rng.NextBounded(5));
    for (int f = 0; f < flips; ++f) {
      size_t pos = 14 + rng.NextBounded(mutated.size() - 14);
      mutated[pos] = static_cast<char>('0' + rng.NextBounded(75));
    }
    auto result = ParseFlatAdsSet(mutated);
    if (result.ok()) {
      // Structural sanity of whatever survived.
      const FlatAdsSet& s = result.value();
      EXPECT_GE(s.k, 1u);
      for (NodeId v = 0; v < s.num_nodes(); ++v) {
        for (const AdsEntry& e : s.of(v).entries()) {
          EXPECT_LT(e.part, s.k);
          EXPECT_GE(e.dist, 0.0);
        }
      }
    }
  }
}

TEST(FuzzTest, TruncationsAlwaysFailCleanly) {
  Graph g = ErdosRenyi(25, 75, true, 7);
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 3, SketchFlavor::kBottomK, RankAssignment::Uniform(9)));
  std::string valid = SerializeAdsSet(set);
  for (size_t len = 0; len < valid.size(); len += 37) {
    auto result = ParseFlatAdsSet(valid.substr(0, len));
    EXPECT_FALSE(result.ok()) << "truncation at " << len << " parsed";
  }
}

TEST(FuzzTest, BinaryHipTruncationsFailCleanlyOrComputeTheSection) {
  // v2 image carrying the HIP section: any truncation either fails with a
  // Status or — at exactly the base-image length, where the file is a
  // complete v2 image without the section — parses with the weights
  // computed on load, bitwise the stored ones. Never a crash, never a
  // partially adopted section.
  Graph g = ErdosRenyi(25, 75, true, 7);
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 3, SketchFlavor::kBottomK, RankAssignment::Uniform(9)));
  PrecomputeHipWeights(&set, 1);
  std::string with_hip = SerializeAdsSetBinary(set).value();
  const size_t base = with_hip.size() - AdsHipSectionBytes(set.TotalEntries());
  for (size_t len = 0; len <= with_hip.size(); ++len) {
    auto result = ParseWithEveryReader(with_hip.substr(0, len),
                                       "truncation at " + std::to_string(len));
    if (len == with_hip.size() || len == base) {
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result.value().hip_tau == set.hip_tau);
      EXPECT_TRUE(result.value().hip_weight == set.hip_weight);
    } else {
      EXPECT_FALSE(result.ok()) << "truncation at " << len << " parsed";
    }
  }
}

TEST(FuzzTest, BinaryHipMutationsNeverCrashOrCorruptStructure) {
  Graph g = ErdosRenyi(30, 90, true, 11);
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Uniform(13)));
  PrecomputeHipWeights(&set, 1);
  std::string valid = SerializeAdsSetBinary(set).value();
  const size_t base = valid.size() - AdsHipSectionBytes(set.TotalEntries());
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      // Half the flips land inside the HIP section, half anywhere.
      size_t pos = trial % 2 == 0
                       ? base + rng.NextBounded(mutated.size() - base)
                       : rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^
                                       (1u << rng.NextBounded(8)));
    }
    auto result =
        ParseWithEveryReader(mutated, "mutation " + std::to_string(trial));
    if (result.ok()) {
      const FlatAdsSet& s = result.value();
      ASSERT_EQ(s.hip_tau.size(), s.TotalEntries());
      ASSERT_EQ(s.hip_weight.size(), s.TotalEntries());
    }
  }
}

}  // namespace
}  // namespace hipads
