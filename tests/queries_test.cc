#include "ads/queries.h"

#include <gtest/gtest.h>

#include "ads/builders.h"
#include "graph/exact.h"
#include "graph/generators.h"
#include "util/stats.h"

namespace hipads {
namespace {

// The builders return per-node AdsSets; the queries read an AdsBackend.
FlatAdsBackend Backend(const AdsSet& set) {
  return FlatAdsBackend(FlatAdsSet::FromAdsSet(set));
}

TEST(QueriesTest, DistanceDistributionUnbiasedOnCycle) {
  Graph g = Cycle(40);
  auto exact = ExactDistanceDistribution(g);
  const uint32_t k = 8;
  std::map<double, RunningStat> sums;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
        g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(seed)));
    auto est = EstimateDistanceDistribution(set).value();
    for (const auto& [d, count] : exact) {
      auto it = est.find(d);
      sums[d].Add(it == est.end() ? 0.0 : it->second);
    }
  }
  for (const auto& [d, stat] : sums) {
    EXPECT_NEAR(stat.mean() / static_cast<double>(exact[d]), 1.0, 0.15)
        << "distance " << d;
  }
}

TEST(QueriesTest, NeighborhoodFunctionIsRunningSum) {
  Graph g = ErdosRenyi(60, 200, true, 3);
  FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Uniform(1)));
  auto dist = EstimateDistanceDistribution(set).value();
  auto nf = EstimateNeighborhoodFunction(set).value();
  double running = 0.0;
  for (const auto& [d, v] : dist) {
    running += v;
    EXPECT_DOUBLE_EQ(nf[d], running);
  }
}

TEST(QueriesTest, ClosenessAllSizesAndAccuracy) {
  Graph g = BarabasiAlbert(200, 2, 9);
  const uint32_t k = 12;
  // Average estimates over seeds, then compare to exact for a few nodes.
  std::vector<RunningStat> acc(g.num_nodes());
  for (uint64_t seed = 0; seed < 30; ++seed) {
    FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
        g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(seed)));
    auto est = EstimateClosenessAll(
                   set, [](double d) { return 1.0 / (1.0 + d); },
                   [](NodeId) { return 1.0; })
                   .value();
    ASSERT_EQ(est.size(), g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) acc[v].Add(est[v]);
  }
  for (NodeId v : {0u, 50u, 150u}) {
    double exact = ExactClosenessCentrality(
        g, v, [](double d) { return 1.0 / (1.0 + d); },
        [](NodeId) { return 1.0; });
    EXPECT_NEAR(acc[v].mean() / exact, 1.0, 0.1) << "node " << v;
  }
}

TEST(QueriesTest, HarmonicAndDistanceSumAll) {
  Graph g = ErdosRenyi(80, 240, true, 13);
  FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
      g, 16, SketchFlavor::kBottomK, RankAssignment::Uniform(5)));
  auto harm = EstimateHarmonicCentralityAll(set).value();
  auto ds = EstimateDistanceSumAll(set).value();
  ASSERT_EQ(harm.size(), g.num_nodes());
  ASSERT_EQ(ds.size(), g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(harm[v], 0.0);
    EXPECT_GE(ds[v], 0.0);
  }
}

TEST(QueriesTest, NeighborhoodSizeAllExactBelowK) {
  Graph g = Path(20);
  FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
      g, 8, SketchFlavor::kBottomK, RankAssignment::Uniform(7)));
  auto sizes = EstimateNeighborhoodSizeAll(set, 2.0).value();
  for (NodeId v = 2; v < 18; ++v) {
    EXPECT_EQ(sizes[v], 5.0);  // exact: 5 nodes within distance 2 (< k)
  }
}

TEST(QueriesTest, TopKNodesOrdering) {
  std::vector<double> scores = {1.0, 5.0, 3.0, 5.0, 2.0};
  auto top = TopKNodes(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // ties broken by id
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(top[2], 2u);
}

TEST(QueriesTest, TopKNodesClampsCount) {
  std::vector<double> scores = {1.0, 2.0};
  EXPECT_EQ(TopKNodes(scores, 10).size(), 2u);
}

TEST(QueriesTest, EffectiveDiameterOnPath) {
  // On a path of 40 nodes the 0.9-effective diameter is large; on a star
  // it is 2. Sanity-check both from sketches.
  FlatAdsBackend path_set = Backend(BuildAdsPrunedDijkstra(
      Path(40), 16, SketchFlavor::kBottomK, RankAssignment::Uniform(3)));
  FlatAdsBackend star_set = Backend(BuildAdsPrunedDijkstra(
      Star(40), 16, SketchFlavor::kBottomK, RankAssignment::Uniform(3)));
  EXPECT_GT(EstimateEffectiveDiameter(path_set, 0.9).value(), 15.0);
  EXPECT_EQ(EstimateEffectiveDiameter(star_set, 0.9).value(), 2.0);
}

TEST(QueriesTest, EffectiveDiameterMonotoneInQuantile) {
  Graph g = BarabasiAlbert(300, 2, 5);
  FlatAdsBackend set = Backend(BuildAdsDp(
      g, 16, SketchFlavor::kBottomK, RankAssignment::Uniform(7)));
  EXPECT_LE(EstimateEffectiveDiameter(set, 0.5).value(),
            EstimateEffectiveDiameter(set, 0.9).value());
  EXPECT_LE(EstimateEffectiveDiameter(set, 0.9).value(),
            EstimateEffectiveDiameter(set, 1.0).value());
}

TEST(QueriesTest, MeanDistanceOnCompleteGraph) {
  // All pairs at distance 1.
  FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
      Complete(30), 8, SketchFlavor::kBottomK, RankAssignment::Uniform(9)));
  EXPECT_DOUBLE_EQ(EstimateMeanDistance(set).value(), 1.0);
}

TEST(QueriesTest, MeanDistanceTracksExactOnCycle) {
  Graph g = Cycle(30);
  // Exact mean distance on an even cycle of 30: distances 1..15, with 15
  // appearing once per node and the rest twice: (2*sum(1..14)+15)/29.
  double exact = (2.0 * (14.0 * 15.0 / 2.0) + 15.0) / 29.0;
  RunningStat est;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
        g, 8, SketchFlavor::kBottomK, RankAssignment::Uniform(seed)));
    est.Add(EstimateMeanDistance(set).value());
  }
  EXPECT_NEAR(est.mean() / exact, 1.0, 0.05);
}

TEST(QueriesTest, TopClosenessFindsStarCenter) {
  Graph g = Star(100);
  FlatAdsBackend set = Backend(BuildAdsPrunedDijkstra(
      g, 16, SketchFlavor::kBottomK, RankAssignment::Uniform(21)));
  auto harm = EstimateHarmonicCentralityAll(set).value();
  EXPECT_EQ(TopKNodes(harm, 1)[0], 0u);  // the hub
}

}  // namespace
}  // namespace hipads
