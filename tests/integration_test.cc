// End-to-end integration tests: generate graphs, build ADS sets with each
// algorithm, estimate statistics with HIP, and compare against the exact
// brute-force oracles — the full pipeline a library user runs.

#include <gtest/gtest.h>

#include <cmath>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/queries.h"
#include "graph/exact.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/traversal.h"
#include "util/stats.h"

namespace hipads {
namespace {

TEST(IntegrationTest, NeighborhoodCardinalityPipelineOnBaGraph) {
  Graph g = BarabasiAlbert(400, 3, 5);
  const uint32_t k = 16;
  const NodeId probe = 17;
  const double d = 2.0;
  double exact = static_cast<double>(ExactNeighborhoodSize(g, probe, d));
  RunningStat est;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    AdsSet set = BuildAdsDp(g, k, SketchFlavor::kBottomK,
                            RankAssignment::Uniform(seed));
    HipEstimator hip(set.of(probe), k, SketchFlavor::kBottomK, set.ranks);
    est.Add(hip.NeighborhoodCardinality(d));
  }
  EXPECT_NEAR(est.mean() / exact, 1.0, 0.1);
}

TEST(IntegrationTest, WeightedGraphClosenessPipeline) {
  Graph g = RandomizeWeights(ErdosRenyi(150, 600, true, 3), 0.5, 2.0, 9);
  const uint32_t k = 16;
  const NodeId probe = 42;
  auto alpha = [](double d) { return std::exp(-d); };
  auto beta = [](NodeId v) { return v % 5 == 0 ? 2.0 : 1.0; };
  double exact = ExactClosenessCentrality(g, probe, alpha, beta);
  ASSERT_GT(exact, 0.0);
  RunningStat est;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    AdsSet set = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK,
                                        RankAssignment::Uniform(seed));
    HipEstimator hip(set.of(probe), k, SketchFlavor::kBottomK, set.ranks);
    est.Add(hip.Closeness(alpha, beta));
  }
  EXPECT_NEAR(est.mean() / exact, 1.0, 0.12);
}

TEST(IntegrationTest, BetaSpecifiedAfterSketchConstruction) {
  // The HIP flexibility claim: one ADS set, many beta filters.
  Graph g = BarabasiAlbert(300, 2, 13);
  const uint32_t k = 24;
  AdsSet set = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK,
                                      RankAssignment::Uniform(77));
  const NodeId probe = 9;
  HipEstimator hip(set.of(probe), k, SketchFlavor::kBottomK, set.ranks);
  auto alpha = [](double d) { return 1.0 / (1.0 + d); };
  for (uint32_t mod : {2u, 3u, 7u}) {
    auto beta = [mod](NodeId v) { return v % mod == 0 ? 1.0 : 0.0; };
    double exact = ExactClosenessCentrality(g, probe, alpha, beta);
    double est = hip.Closeness(alpha, beta);
    // Single sketch: just sanity-check the scale (within factor 2).
    EXPECT_GT(est, exact * 0.5) << "mod " << mod;
    EXPECT_LT(est, exact * 2.0) << "mod " << mod;
  }
}

TEST(IntegrationTest, DirectedReachabilityEstimation) {
  // alpha == 1 estimates the number of reachable nodes (transitive
  // closure size), the original ADS application.
  Graph g = Rmat(8, 3, 21, /*undirected=*/false);
  const uint32_t k = 16;
  const NodeId probe = 5;
  double exact = static_cast<double>(CountReachable(g, probe));
  RunningStat est;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    AdsSet set = BuildAdsDp(g, k, SketchFlavor::kBottomK,
                            RankAssignment::Uniform(seed));
    HipEstimator hip(set.of(probe), k, SketchFlavor::kBottomK, set.ranks);
    est.Add(hip.ReachableCount());
  }
  EXPECT_NEAR(est.mean() / exact, 1.0, 0.1);
}

TEST(IntegrationTest, AllThreeBuildersSameEstimates) {
  Graph g = ErdosRenyi(100, 350, true, 31);
  const uint32_t k = 8;
  auto ranks = RankAssignment::Uniform(11);
  AdsSet a = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK, ranks);
  AdsSet b = BuildAdsDp(g, k, SketchFlavor::kBottomK, ranks);
  AdsSet c = BuildAdsLocalUpdates(g, k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 13) {
    HipEstimator ea(a.of(v), k, SketchFlavor::kBottomK, ranks);
    HipEstimator eb(b.of(v), k, SketchFlavor::kBottomK, ranks);
    HipEstimator ec(c.of(v), k, SketchFlavor::kBottomK, ranks);
    EXPECT_DOUBLE_EQ(ea.ReachableCount(), eb.ReachableCount());
    EXPECT_DOUBLE_EQ(ea.ReachableCount(), ec.ReachableCount());
    EXPECT_DOUBLE_EQ(ea.HarmonicCentrality(), eb.HarmonicCentrality());
  }
}

TEST(IntegrationTest, NeighborhoodFunctionTracksExactOnGrid) {
  Graph g = Grid2D(12, 12);
  auto exact_hist = ExactDistanceDistribution(g);
  std::map<double, RunningStat> est_at;
  for (uint64_t seed = 0; seed < 25; ++seed) {
    FlatAdsBackend set(FlatAdsSet::FromAdsSet(BuildAdsDp(
        g, 12, SketchFlavor::kBottomK, RankAssignment::Uniform(seed))));
    auto nf = EstimateNeighborhoodFunction(set).value();
    double running = 0.0;
    auto it = nf.begin();
    for (const auto& [d, cnt] : exact_hist) {
      while (it != nf.end() && it->first <= d) {
        running = it->second;
        ++it;
      }
      est_at[d].Add(running);
    }
  }
  double exact_running = 0.0;
  for (const auto& [d, cnt] : exact_hist) {
    exact_running += static_cast<double>(cnt);
    EXPECT_NEAR(est_at[d].mean() / exact_running, 1.0, 0.1)
        << "distance " << d;
  }
}

TEST(IntegrationTest, GraphIoToEstimationRoundTrip) {
  // Directed-path arcs are written in increasing tail order, so the
  // reader's first-appearance id remapping is the identity and the rebuilt
  // sketches must match bit-for-bit.
  Graph g = Path(120, /*directed=*/true);
  std::string path = "/tmp/hipads_integration_graph.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto loaded = ReadEdgeListFile(path, /*undirected=*/false);
  ASSERT_TRUE(loaded.ok());
  const uint32_t k = 8;
  auto ranks = RankAssignment::Uniform(23);
  AdsSet s1 = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK, ranks);
  AdsSet s2 = BuildAdsPrunedDijkstra(loaded.value(), k,
                                     SketchFlavor::kBottomK, ranks);
  // Node ids are preserved by the writer (dense ids, first-appearance
  // order matches), so the sketches must be identical.
  ASSERT_EQ(s1.TotalEntries(), s2.TotalEntries());
  std::remove(path.c_str());
}

TEST(IntegrationTest, KMinsAndKPartitionPipelines) {
  Graph g = ErdosRenyi(120, 420, true, 41);
  const NodeId probe = 3;
  double exact = static_cast<double>(CountReachable(g, probe));
  for (SketchFlavor flavor :
       {SketchFlavor::kKMins, SketchFlavor::kKPartition}) {
    const uint32_t k = 16;
    RunningStat est;
    for (uint64_t seed = 0; seed < 60; ++seed) {
      AdsSet set =
          BuildAdsDp(g, k, flavor, RankAssignment::Uniform(seed));
      HipEstimator hip(set.of(probe), k, flavor, set.ranks);
      est.Add(hip.ReachableCount());
    }
    EXPECT_NEAR(est.mean() / exact, 1.0, 0.1)
        << (flavor == SketchFlavor::kKMins ? "k-mins" : "k-partition");
  }
}

}  // namespace
}  // namespace hipads
