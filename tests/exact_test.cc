#include "graph/exact.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/generators.h"
#include "graph/traversal.h"

namespace hipads {
namespace {

TEST(ExactTest, NeighborhoodSizeOnPath) {
  Graph g = Path(10);
  EXPECT_EQ(ExactNeighborhoodSize(g, 0, 0.0), 1u);
  EXPECT_EQ(ExactNeighborhoodSize(g, 0, 3.0), 4u);
  EXPECT_EQ(ExactNeighborhoodSize(g, 5, 2.0), 5u);
  EXPECT_EQ(ExactNeighborhoodSize(g, 0, 100.0), 10u);
}

TEST(ExactTest, DistanceSumOnStar) {
  Graph g = Star(5);
  // Center: 4 leaves at distance 1.
  EXPECT_EQ(ExactDistanceSum(g, 0), 4.0);
  // Leaf: center at 1, three leaves at 2.
  EXPECT_EQ(ExactDistanceSum(g, 1), 7.0);
}

TEST(ExactTest, HarmonicCentralityOnPath) {
  Graph g = Path(4);
  // From node 0: distances 1,2,3 -> 1 + 1/2 + 1/3.
  EXPECT_NEAR(ExactHarmonicCentrality(g, 0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
}

TEST(ExactTest, QgWithCustomFunction) {
  Graph g = Path(4);
  // g(j, d) = 2^-d including self (d=0).
  double q = ExactQg(g, 0, [](NodeId, double d) { return std::pow(2.0, -d); });
  EXPECT_NEAR(q, 1.0 + 0.5 + 0.25 + 0.125, 1e-12);
}

TEST(ExactTest, ClosenessWithBetaFilter) {
  Graph g = Star(5);
  // beta selects odd nodes only; alpha = 1/(1+d).
  double c = ExactClosenessCentrality(
      g, 0, [](double d) { return 1.0 / (1.0 + d); },
      [](NodeId v) { return v % 2 == 1 ? 1.0 : 0.0; });
  // Nodes 1,3 at distance 1 -> 2 * 1/2 = 1.0.
  EXPECT_NEAR(c, 1.0, 1e-12);
}

TEST(ExactTest, DistanceDistributionOnCycle) {
  Graph g = Cycle(6);
  auto hist = ExactDistanceDistribution(g);
  // Every node sees 2 nodes at distance 1, 2 at 2, 1 at 3.
  EXPECT_EQ(hist[1.0], 12u);
  EXPECT_EQ(hist[2.0], 12u);
  EXPECT_EQ(hist[3.0], 6u);
}

TEST(ExactTest, DistanceDistributionExcludesSelf) {
  Graph g = Complete(4);
  auto hist = ExactDistanceDistribution(g);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[1.0], 12u);  // ordered pairs
}

TEST(ExactTest, AllPairsMatchesSingleSource) {
  Graph g = ErdosRenyi(60, 150, true, 31);
  auto all = AllPairsDistances(g);
  for (NodeId v : {0u, 17u, 59u}) {
    auto single = ShortestPathDistances(g, v);
    EXPECT_EQ(all[v], single);
  }
}

TEST(ExactTest, DirectedAsymmetry) {
  Graph g = Path(3, /*directed=*/true);
  EXPECT_EQ(ExactNeighborhoodSize(g, 0, 2.0), 3u);
  EXPECT_EQ(ExactNeighborhoodSize(g, 2, 2.0), 1u);
  // An unbounded radius still counts only the reachable nodes.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ExactNeighborhoodSize(g, 0, inf), 3u);
  EXPECT_EQ(ExactNeighborhoodSize(g, 2, inf), 1u);
}

}  // namespace
}  // namespace hipads
