#include "ads/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "graph/generators.h"

namespace hipads {
namespace {

// The builders return per-node AdsSets; the writers take the flat arena.
// The flat arena of a built set, with the HIP weights every v2 writer
// needs.
FlatAdsSet Flat(const AdsSet& set) {
  FlatAdsSet flat = FlatAdsSet::FromAdsSet(set);
  PrecomputeHipWeights(&flat, 1);
  return flat;
}

void ExpectSameSet(const FlatAdsSet& a, const FlatAdsSet& b) {
  EXPECT_EQ(a.flavor, b.flavor);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.ranks.kind(), b.ranks.kind());
  EXPECT_EQ(a.ranks.seed(), b.ranks.seed());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto ea = a.of(v).entries();
    const auto eb = b.of(v).entries();
    ASSERT_EQ(ea.size(), eb.size()) << "node " << v;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].node, eb[i].node);
      EXPECT_EQ(ea[i].part, eb[i].part);
      EXPECT_EQ(ea[i].rank, eb[i].rank);  // %.17g round-trips doubles
      EXPECT_EQ(ea[i].dist, eb[i].dist);
    }
  }
}

TEST(SerializeTest, RoundTripBottomK) {
  Graph g = ErdosRenyi(80, 240, true, 5);
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 8, SketchFlavor::kBottomK, RankAssignment::Uniform(9)));
  auto back = ParseFlatAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameSet(set, back.value());
}

TEST(SerializeTest, RoundTripAllFlavors) {
  Graph g = BarabasiAlbert(60, 2, 7);
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    FlatAdsSet set = Flat(BuildAdsDp(
        g, 4, flavor, RankAssignment::Uniform(11)));
    auto back = ParseFlatAdsSet(SerializeAdsSet(set));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectSameSet(set, back.value());
  }
}

TEST(SerializeTest, RoundTripBaseB) {
  Graph g = ErdosRenyi(50, 150, true, 13);
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::BaseB(3, 2.0)));
  auto back = ParseFlatAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().ranks.base(), 2.0);
  ExpectSameSet(set, back.value());
}

TEST(SerializeTest, RoundTripWeightedGraphDistances) {
  Graph g = RandomizeWeights(ErdosRenyi(50, 150, true, 17), 0.3, 2.7, 3);
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Uniform(21)));
  auto back = ParseFlatAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok());
  ExpectSameSet(set, back.value());
}

TEST(SerializeTest, LoadedSetAnswersSameQueries) {
  Graph g = BarabasiAlbert(150, 3, 23);
  FlatAdsSet set = Flat(BuildAdsDp(
      g, 16, SketchFlavor::kBottomK, RankAssignment::Uniform(31)));
  auto back = ParseFlatAdsSet(SerializeAdsSet(set));
  ASSERT_TRUE(back.ok());
  for (NodeId v : {0u, 50u, 149u}) {
    HipEstimator a(set.of(v), set.k, set.flavor, set.ranks);
    HipEstimator b(back.value().of(v), back.value().k, back.value().flavor,
                   back.value().ranks);
    EXPECT_DOUBLE_EQ(a.ReachableCount(), b.ReachableCount());
    EXPECT_DOUBLE_EQ(a.HarmonicCentrality(), b.HarmonicCentrality());
  }
}

TEST(SerializeTest, FileRoundTrip) {
  Graph g = ErdosRenyi(40, 120, true, 29);
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Uniform(37)));
  std::string path = "/tmp/hipads_serialize_test.ads2";
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
  auto back = ReadFlatAdsSetFile(path);
  ASSERT_TRUE(back.ok());
  ExpectSameSet(set, back.value());
  std::remove(path.c_str());
}

TEST(SerializeTest, ExponentialNeedsBeta) {
  Graph g = ErdosRenyi(30, 90, true, 31);
  auto beta = [](uint64_t v) { return v % 2 ? 2.0 : 1.0; };
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Exponential(5, beta)));
  std::string text = SerializeAdsSet(set);
  auto without = ParseFlatAdsSet(text);
  EXPECT_FALSE(without.ok());
  EXPECT_EQ(without.status().code(), Status::Code::kInvalidArgument);
  auto with = ParseFlatAdsSet(text, beta);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value().ranks.kind(), RankKind::kExponential);
  EXPECT_EQ(with.value().TotalEntries(), set.TotalEntries());
}

TEST(SerializeTest, PriorityRoundTripWithBeta) {
  Graph g = ErdosRenyi(30, 90, true, 43);
  auto beta = [](uint64_t v) { return v % 3 == 0 ? 3.0 : 1.0; };
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Priority(7, beta)));
  std::string text = SerializeAdsSet(set);
  EXPECT_FALSE(ParseFlatAdsSet(text).ok());  // beta required
  auto with = ParseFlatAdsSet(text, beta);
  ASSERT_TRUE(with.ok());
  EXPECT_EQ(with.value().ranks.kind(), RankKind::kPriority);
  ExpectSameSet(set, with.value());
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseFlatAdsSet("").ok());
  EXPECT_FALSE(ParseFlatAdsSet("not-a-sketch\n").ok());
  EXPECT_FALSE(
      ParseFlatAdsSet("hipads-ads-v1\nflavor nonsense\n").ok());
  EXPECT_FALSE(
      ParseFlatAdsSet("hipads-ads-v1\nflavor bottom-k\nk 0\n").ok());
  // A node count no input of this size can hold: rejected before it sizes
  // an allocation.
  EXPECT_FALSE(ParseFlatAdsSet("hipads-ads-v1\nflavor bottom-k\nk 2\n"
                               "ranks uniform 1\nnodes 99999999999999\n"
                               "0 0\n")
                   .ok());
}

TEST(SerializeTest, RejectsTruncatedEntries) {
  Graph g = ErdosRenyi(20, 60, true, 41);
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 2, SketchFlavor::kBottomK, RankAssignment::Uniform(1)));
  std::string text = SerializeAdsSet(set);
  text.resize(text.size() / 2);
  auto result = ParseFlatAdsSet(text);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, RejectsOutOfRangePart) {
  std::string text =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 1\n"
      "0 1\n0 5 0.5 0\n";  // part 5 >= k 2
  EXPECT_FALSE(ParseFlatAdsSet(text).ok());
}

TEST(SerializeTest, RejectsNegativeRank) {
  // Every rank kind draws ranks >= 0, so a negative stored rank is
  // corruption — the same entry check the v2 validator runs.
  const std::string header =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 1\n";
  ASSERT_TRUE(ParseFlatAdsSet(header + "0 1\n0 0 0.5 0\n").ok());
  auto result = ParseFlatAdsSet(header + "0 1\n0 0 -0.5 0\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, BothParsersRejectDuplicateNodeBlocks) {
  // Two blocks for node 0 (and none for node 1): rejected, never resolved
  // by letting the last block win.
  std::string text =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 2\n"
      "0 1\n0 0 0.5 0\n"
      "0 1\n1 0 0.25 1\n";
  auto as_flat = ParseFlatAdsSet(text);
  EXPECT_FALSE(as_flat.ok());
  EXPECT_EQ(as_flat.status().code(), Status::Code::kCorruption);
}

TEST(SerializeTest, BothParsersRejectOutOfOrderNodeBlocks) {
  std::string text =
      "hipads-ads-v1\nflavor bottom-k\nk 2\nranks uniform 1\nnodes 2\n"
      "1 1\n1 0 0.25 0\n"
      "0 1\n0 0 0.5 0\n";
  EXPECT_FALSE(ParseFlatAdsSet(text).ok());
}

TEST(SerializeTest, BothParsersRejectTrailingGarbage) {
  Graph g = ErdosRenyi(20, 60, true, 47);
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      g, 2, SketchFlavor::kBottomK, RankAssignment::Uniform(1)));
  std::string text = SerializeAdsSet(set);
  ASSERT_TRUE(ParseFlatAdsSet(text).ok());
  for (const char* junk : {"0", "garbage", "0 1\n0 0 0.5 0\n"}) {
    auto as_flat = ParseFlatAdsSet(text + junk);
    EXPECT_FALSE(as_flat.ok()) << junk;
    EXPECT_EQ(as_flat.status().code(), Status::Code::kCorruption);
  }
  // Trailing whitespace is not garbage.
  EXPECT_TRUE(ParseFlatAdsSet(text + "\n \n").ok());
}

TEST(SerializeTest, ReadMissingFileFails) {
  auto result = ReadFlatAdsSetFile("/nonexistent/sketches.ads");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

// A small file fits the stream buffer, so on a full device the write fails
// only when close flushes it. The writers close before reporting, so that
// failure is an IOError in both formats, not a silent Ok.
TEST(SerializeTest, WriteErrorAtCloseIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FlatAdsSet set = Flat(BuildAdsPrunedDijkstra(
      ErdosRenyi(6, 12, true, 3), 2, SketchFlavor::kBottomK,
      RankAssignment::Uniform(1)));
  ASSERT_LT(SerializeAdsSet(set).size(), 4096u);
  ASSERT_LT(SerializeAdsSetBinary(set).value().size(), 4096u);
  for (AdsFileFormat format :
       {AdsFileFormat::kTextV1, AdsFileFormat::kBinaryV2}) {
    Status s = WriteAdsSetFile(set, "/dev/full", format);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
  }
}

}  // namespace
}  // namespace hipads
