// Equivalence and correctness tests for the three ADS builders: all must
// produce the brute-force reference ADS set (PrunedDijkstra and LocalUpdates
// on weighted graphs too, DP on unweighted), across flavors and graph
// shapes. Parameterized sweeps cover the (flavor, k, rank kind, graph)
// matrix, for every entry point of every builder.

#include "ads/builders.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/stats.h"

namespace hipads {
namespace {

// Compares two ADS sets entry-by-entry: node, part and rank exactly, dist
// as doubles (the reference sums weighted paths in another order).
void ExpectSameAdsSet(const AdsSet& a, const AdsSet& b,
                      const std::string& label) {
  ASSERT_EQ(a.ads.size(), b.ads.size()) << label;
  for (NodeId v = 0; v < a.ads.size(); ++v) {
    const auto& ea = a.of(v).entries();
    const auto& eb = b.of(v).entries();
    ASSERT_EQ(ea.size(), eb.size()) << label << " node " << v;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].node, eb[i].node) << label << " node " << v << " #" << i;
      EXPECT_EQ(ea[i].part, eb[i].part) << label << " node " << v << " #" << i;
      EXPECT_EQ(ea[i].rank, eb[i].rank) << label << " node " << v << " #" << i;
      EXPECT_DOUBLE_EQ(ea[i].dist, eb[i].dist)
          << label << " node " << v << " #" << i;
    }
  }
}

struct BuilderCase {
  SketchFlavor flavor;
  uint32_t k;
};

// Base-b ranks tie often; exponential and priority ranks carry a per-node
// beta and an infinite sup.
RankAssignment MakeRanks(RankKind kind, uint64_t seed) {
  auto beta = [](uint64_t v) { return 0.5 + static_cast<double>(v % 3); };
  switch (kind) {
    case RankKind::kBaseB:
      return RankAssignment::BaseB(seed, 2.0);
    case RankKind::kExponential:
      return RankAssignment::Exponential(seed, beta);
    case RankKind::kPriority:
      return RankAssignment::Priority(seed, beta);
    default:
      return RankAssignment::Uniform(seed);
  }
}

using BuilderParam = std::tuple<BuilderCase, RankKind>;

class BuilderEquivalenceTest : public ::testing::TestWithParam<BuilderParam> {
 protected:
  SketchFlavor flavor() const { return std::get<0>(GetParam()).flavor; }
  uint32_t k() const { return std::get<0>(GetParam()).k; }
  RankAssignment ranks(uint64_t seed) const {
    return MakeRanks(std::get<1>(GetParam()), seed);
  }

  // Every entry point of each builder against the reference: the
  // un-suffixed one and the *Parallel one at 1 and 3 threads.
  void ExpectDijkstraMatches(const Graph& g, const RankAssignment& r,
                             const AdsSet& ref, const std::string& label) {
    ExpectSameAdsSet(BuildAdsPrunedDijkstra(g, k(), flavor(), r), ref, label);
    for (uint32_t threads : {1u, 3u}) {
      ExpectSameAdsSet(
          BuildAdsPrunedDijkstraParallel(g, k(), flavor(), r, threads), ref,
          label + " threads " + std::to_string(threads));
    }
  }
  void ExpectDpMatches(const Graph& g, const RankAssignment& r,
                       const AdsSet& ref, const std::string& label) {
    ExpectSameAdsSet(BuildAdsDp(g, k(), flavor(), r), ref, label);
    for (uint32_t threads : {1u, 3u}) {
      ExpectSameAdsSet(BuildAdsDpParallel(g, k(), flavor(), r, threads), ref,
                       label + " threads " + std::to_string(threads));
    }
  }
  void ExpectLocalUpdatesMatches(const Graph& g, const RankAssignment& r,
                                 const AdsSet& ref,
                                 const std::string& label) {
    ExpectSameAdsSet(BuildAdsLocalUpdates(g, k(), flavor(), r), ref, label);
    for (uint32_t threads : {1u, 3u}) {
      ExpectSameAdsSet(BuildAdsLocalUpdatesParallel(g, k(), flavor(), r,
                                                    /*epsilon=*/0.0, threads),
                       ref, label + " threads " + std::to_string(threads));
    }
  }
};

TEST_P(BuilderEquivalenceTest, DijkstraMatchesReferenceOnErdosRenyi) {
  Graph g = ErdosRenyi(80, 200, /*undirected=*/true, 17);
  auto r = ranks(5);
  ExpectDijkstraMatches(g, r, BuildAdsReference(g, k(), flavor(), r),
                        "dijkstra-er");
}

TEST_P(BuilderEquivalenceTest, DpMatchesReferenceOnErdosRenyi) {
  Graph g = ErdosRenyi(80, 200, true, 17);
  auto r = ranks(5);
  ExpectDpMatches(g, r, BuildAdsReference(g, k(), flavor(), r), "dp-er");
}

TEST_P(BuilderEquivalenceTest, LocalUpdatesMatchesReferenceOnErdosRenyi) {
  Graph g = ErdosRenyi(60, 150, true, 19);
  auto r = ranks(5);
  ExpectLocalUpdatesMatches(g, r, BuildAdsReference(g, k(), flavor(), r),
                            "lu-er");
}

TEST_P(BuilderEquivalenceTest, DijkstraMatchesReferenceWeighted) {
  Graph g = RandomizeWeights(ErdosRenyi(60, 150, true, 23), 0.2, 3.0, 7);
  auto r = ranks(5);
  ExpectDijkstraMatches(g, r, BuildAdsReference(g, k(), flavor(), r),
                        "dijkstra-w");
}

TEST_P(BuilderEquivalenceTest, LocalUpdatesMatchesReferenceWeighted) {
  Graph g = RandomizeWeights(ErdosRenyi(50, 120, true, 29), 0.2, 3.0, 7);
  auto r = ranks(5);
  ExpectLocalUpdatesMatches(g, r, BuildAdsReference(g, k(), flavor(), r),
                            "lu-w");
}

TEST_P(BuilderEquivalenceTest, DirectedGraph) {
  Graph g = ErdosRenyi(70, 250, /*undirected=*/false, 31);
  auto r = ranks(9);
  AdsSet ref = BuildAdsReference(g, k(), flavor(), r);
  ExpectDijkstraMatches(g, r, ref, "dijkstra-dir");
  ExpectDpMatches(g, r, ref, "dp-dir");
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, BuilderEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(BuilderCase{SketchFlavor::kBottomK, 1},
                          BuilderCase{SketchFlavor::kBottomK, 3},
                          BuilderCase{SketchFlavor::kBottomK, 8},
                          BuilderCase{SketchFlavor::kKMins, 2},
                          BuilderCase{SketchFlavor::kKMins, 4},
                          BuilderCase{SketchFlavor::kKPartition, 2},
                          BuilderCase{SketchFlavor::kKPartition, 4}),
        ::testing::Values(RankKind::kUniform, RankKind::kBaseB,
                          RankKind::kExponential, RankKind::kPriority)),
    [](const ::testing::TestParamInfo<BuilderParam>& test_param) {
      const BuilderCase& c = std::get<0>(test_param.param);
      RankKind kind = std::get<1>(test_param.param);
      std::string flavor = c.flavor == SketchFlavor::kBottomK ? "BottomK"
                           : c.flavor == SketchFlavor::kKMins ? "KMins"
                                                              : "KPartition";
      std::string ranks = kind == RankKind::kUniform       ? "Uniform"
                          : kind == RankKind::kBaseB       ? "BaseB"
                          : kind == RankKind::kExponential ? "Exponential"
                                                           : "Priority";
      return flavor + "_k" + std::to_string(c.k) + "_" + ranks;
    });

TEST(BuilderTest, PathGraphBottom1AdsIsPrefixMinima) {
  Graph g = Path(30, /*directed=*/true);
  auto ranks = RankAssignment::Uniform(3);
  AdsSet set = BuildAdsPrunedDijkstra(g, 1, SketchFlavor::kBottomK, ranks);
  // ADS(0) should contain node 0 plus every prefix-minimum rank node.
  double running_min = ranks.rank(0);
  std::vector<NodeId> expect = {0};
  for (NodeId v = 1; v < 30; ++v) {
    if (ranks.rank(v) < running_min) {
      running_min = ranks.rank(v);
      expect.push_back(v);
    }
  }
  ASSERT_EQ(set.of(0).size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(set.of(0).entries()[i].node, expect[i]);
  }
}

TEST(BuilderTest, SelfEntryAlwaysPresentAtZero) {
  Graph g = ErdosRenyi(40, 100, true, 37);
  auto ranks = RankAssignment::Uniform(4);
  for (SketchFlavor flavor :
       {SketchFlavor::kBottomK, SketchFlavor::kKMins}) {
    AdsSet set = BuildAdsPrunedDijkstra(g, 3, flavor, ranks);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_FALSE(set.of(v).empty());
      EXPECT_EQ(set.of(v).entries()[0].node, v);
      EXPECT_EQ(set.of(v).entries()[0].dist, 0.0);
    }
  }
}

TEST(BuilderTest, DisconnectedComponentsStayDisjoint) {
  // Two disjoint triangles.
  Graph g(6,
          {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0},
           {3, 4, 1.0}, {4, 5, 1.0}, {5, 3, 1.0}},
          true);
  auto ranks = RankAssignment::Uniform(6);
  AdsSet set = BuildAdsPrunedDijkstra(g, 8, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(set.of(v).size(), 3u);
    for (const AdsEntry& e : set.of(v).entries()) EXPECT_LT(e.node, 3u);
  }
  for (NodeId v = 3; v < 6; ++v) {
    EXPECT_EQ(set.of(v).size(), 3u);
    for (const AdsEntry& e : set.of(v).entries()) EXPECT_GE(e.node, 3u);
  }
}

TEST(BuilderTest, KLargerThanNKeepsEverything) {
  Graph g = Complete(10);
  auto ranks = RankAssignment::Uniform(8);
  AdsSet set = BuildAdsPrunedDijkstra(g, 50, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(set.of(v).size(), 10u);
}

TEST(BuilderTest, ExpectedSizeMatchesLemma22) {
  // Average bottom-k ADS size over nodes of a connected unweighted graph
  // should track k + k(H_n - H_k) (Lemma 2.2).
  const uint32_t k = 4;
  Graph g = BarabasiAlbert(600, 3, 41);
  RunningStat sizes;
  // Average over several rank seeds to shrink Monte-Carlo noise.
  for (uint64_t seed = 0; seed < 8; ++seed) {
    AdsSet set = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK,
                                        RankAssignment::Uniform(seed));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      sizes.Add(static_cast<double>(set.of(v).size()));
    }
  }
  double expected = ExpectedBottomKAdsSize(k, 600);
  EXPECT_NEAR(sizes.mean(), expected, expected * 0.05);
}

TEST(BuilderTest, KPartitionSizeMatchesLemma22) {
  const uint32_t k = 4;
  Graph g = ErdosRenyi(500, 1500, true, 43);
  uint64_t reachable = CountReachable(g, 0);
  ASSERT_GT(reachable, 450u);  // essentially connected
  RunningStat sizes;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    AdsSet set = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kKPartition,
                                        RankAssignment::Uniform(seed));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      sizes.Add(static_cast<double>(set.of(v).size()));
    }
  }
  double expected = ExpectedKPartitionAdsSize(k, reachable);
  EXPECT_NEAR(sizes.mean(), expected, expected * 0.12);
}

TEST(BuilderTest, StatsArePopulated) {
  Graph g = ErdosRenyi(100, 300, true, 47);
  auto ranks = RankAssignment::Uniform(2);
  AdsBuildStats dj, dp, lu;
  BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK, ranks, &dj);
  BuildAdsDp(g, 4, SketchFlavor::kBottomK, ranks, &dp);
  BuildAdsLocalUpdates(g, 4, SketchFlavor::kBottomK, ranks, 0.0, &lu);
  EXPECT_GT(dj.insertions, 100u);
  EXPECT_GT(dj.relaxations, dj.insertions);
  EXPECT_EQ(dj.insertions, dp.insertions);  // identical output
  EXPECT_GT(dp.rounds, 0u);
  EXPECT_GE(lu.insertions, dj.insertions);  // LocalUpdates churns more
}

TEST(BuilderTest, DpRoundsBoundedByDiameter) {
  Graph g = Path(40);
  auto ranks = RankAssignment::Uniform(11);
  AdsBuildStats stats;
  AdsSet set = BuildAdsDp(g, 2, SketchFlavor::kBottomK, ranks, &stats);
  // Rounds never exceed hop diameter + 1, and propagation runs exactly one
  // round past the farthest inserted entry (where no candidate survives).
  EXPECT_LE(stats.rounds, 40u);
  double max_dist = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const AdsEntry& e : set.of(v).entries()) {
      max_dist = std::max(max_dist, e.dist);
    }
  }
  EXPECT_EQ(stats.rounds, static_cast<uint64_t>(max_dist) + 1);
}

TEST(BuilderTest, ApproximateLocalUpdatesInvariant) {
  // (1+eps)-approximate ADS: for every node u not in ADS(v), r(u) must
  // exceed the kth smallest rank among entries with dist < (1+eps) d_vu.
  const uint32_t k = 3;
  const double eps = 0.25;
  Graph g = RandomizeWeights(ErdosRenyi(50, 130, true, 53), 0.2, 2.0, 13);
  auto ranks = RankAssignment::Uniform(15);
  AdsSet set = BuildAdsLocalUpdates(g, k, SketchFlavor::kBottomK, ranks, eps);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto dist = ShortestPathDistances(g, v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == kInfDist || set.of(v).Contains(u)) continue;
      BottomKSketch closer(k);
      for (const AdsEntry& e : set.of(v).entries()) {
        if (e.dist < (1.0 + eps) * dist[u]) closer.Update(e.rank);
      }
      EXPECT_GE(ranks.rank(u), closer.Threshold())
          << "approx invariant violated for v=" << v << " u=" << u;
    }
  }
}

TEST(BuilderTest, ApproximateModeReducesChurn) {
  Graph g = RandomizeWeights(ErdosRenyi(150, 500, true, 59), 0.1, 5.0, 17);
  auto ranks = RankAssignment::Uniform(21);
  AdsBuildStats exact, approx;
  BuildAdsLocalUpdates(g, 4, SketchFlavor::kBottomK, ranks, 0.0, &exact);
  BuildAdsLocalUpdates(g, 4, SketchFlavor::kBottomK, ranks, 0.5, &approx);
  EXPECT_LE(approx.insertions, exact.insertions);
}

TEST(BuilderTest, BackwardAdsViaTranspose) {
  Graph g = Path(10, /*directed=*/true);
  auto ranks = RankAssignment::Uniform(25);
  AdsSet fwd = BuildAdsPrunedDijkstra(g, 2, SketchFlavor::kBottomK, ranks);
  AdsSet bwd = BuildAdsPrunedDijkstra(g.Transpose(), 2,
                                      SketchFlavor::kBottomK, ranks);
  // Node 9 reaches nothing forward, everything backward.
  EXPECT_EQ(fwd.of(9).size(), 1u);
  EXPECT_GE(bwd.of(9).size(), 2u);
  // Forward ADS of 0 on the path equals backward ADS of 0 on the transpose.
  AdsSet fwd_t = BuildAdsPrunedDijkstra(g.Transpose().Transpose(), 2,
                                        SketchFlavor::kBottomK, ranks);
  ASSERT_EQ(fwd.of(0).size(), fwd_t.of(0).size());
}

TEST(BuilderTest, ParallelDpIdenticalToSequential) {
  Graph g = BarabasiAlbert(400, 3, 67);
  auto ranks = RankAssignment::Uniform(13);
  for (SketchFlavor flavor :
       {SketchFlavor::kBottomK, SketchFlavor::kKMins,
        SketchFlavor::kKPartition}) {
    uint32_t k = flavor == SketchFlavor::kBottomK ? 8 : 4;
    AdsSet seq = BuildAdsDp(g, k, flavor, ranks);
    for (uint32_t threads : {1u, 2u, 4u}) {
      AdsSet par = BuildAdsDpParallel(g, k, flavor, ranks, threads);
      ExpectSameAdsSet(seq, par,
                       "parallel t=" + std::to_string(threads));
    }
  }
}

TEST(BuilderTest, ParallelDpStatsMatchSequential) {
  Graph g = ErdosRenyi(300, 900, true, 71);
  auto ranks = RankAssignment::Uniform(17);
  for (SketchFlavor flavor :
       {SketchFlavor::kBottomK, SketchFlavor::kKMins,
        SketchFlavor::kKPartition}) {
    uint32_t k = flavor == SketchFlavor::kBottomK ? 8 : 4;
    AdsBuildStats seq;
    BuildAdsDp(g, k, flavor, ranks, &seq);
    EXPECT_GT(seq.rounds, 0u);
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
      AdsBuildStats par;
      BuildAdsDpParallel(g, k, flavor, ranks, threads, &par);
      std::string label = "threads " + std::to_string(threads);
      EXPECT_EQ(seq.insertions, par.insertions) << label;
      EXPECT_EQ(seq.relaxations, par.relaxations) << label;
      EXPECT_EQ(seq.deletions, par.deletions) << label;
      EXPECT_EQ(seq.rounds, par.rounds) << label;
    }
  }
}

TEST(BuilderTest, ParallelDpDirectedGraph) {
  Graph g = Rmat(7, 4, 73, /*undirected=*/false);
  auto ranks = RankAssignment::Uniform(19);
  ExpectSameAdsSet(BuildAdsDp(g, 4, SketchFlavor::kBottomK, ranks),
                   BuildAdsDpParallel(g, 4, SketchFlavor::kBottomK, ranks,
                                      3),
                   "parallel-rmat");
}

TEST(BuilderTest, ExponentialRanksBuild) {
  Graph g = ErdosRenyi(50, 140, true, 61);
  auto ranks = RankAssignment::Exponential(
      5, [](uint64_t v) { return v % 2 == 0 ? 2.0 : 1.0; });
  AdsSet dij = BuildAdsPrunedDijkstra(g, 3, SketchFlavor::kBottomK, ranks);
  AdsSet ref = BuildAdsReference(g, 3, SketchFlavor::kBottomK, ranks);
  ExpectSameAdsSet(dij, ref, "exp-ranks");
}

}  // namespace
}  // namespace hipads
