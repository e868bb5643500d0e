// Social-network centrality analysis at sketch speed.
//
// The scenario from the paper's introduction: given a large social graph,
// rank users by distance-decay centrality, optionally weighting or
// filtering by per-user metadata (beta) that is only chosen at query time —
// e.g. "most central users with respect to the premium subscribers".
//
// One ADS set answers all of these; an exact answer would need a full
// shortest-path computation per user per query.
//
// Run:  ./social_centrality

#include <cstdio>
#include <map>

#include "ads/builders.h"
#include "ads/queries.h"
#include "graph/exact.h"
#include "graph/generators.h"

using namespace hipads;

namespace {

// Synthetic per-user metadata derived from the node id: ~20% of users are
// "premium", with heavier weight.
double PremiumWeight(NodeId v) { return v % 5 == 0 ? 1.0 : 0.0; }

void PrintTop(const char* title, const Graph& g,
              const std::vector<double>& scores,
              const std::vector<double>& exact) {
  std::printf("\n%s\n  %-6s %-10s %-12s %-12s %s\n", title, "rank", "user",
              "estimated", "exact", "degree");
  auto top = TopKNodes(scores, 5);
  for (size_t i = 0; i < top.size(); ++i) {
    NodeId v = top[i];
    std::printf("  #%-5zu %-10u %-12.1f %-12.1f %u\n", i + 1, v, scores[v],
                exact.empty() ? 0.0 : exact[v], g.OutDegree(v));
  }
}

}  // namespace

int main() {
  // 20k-user social graph (preferential attachment -> heavy-tailed hubs).
  Graph g = BarabasiAlbert(20000, 4, 2024);
  const uint32_t k = 32;
  std::printf("social graph: %u users, %llu friendships\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_arcs() / 2));

  // The builder's per-node sets are flattened once into the in-memory
  // backend every whole-graph query reads. An in-memory backend never
  // fails a load, so the queries' StatusOr values are always ok.
  FlatAdsBackend sketches(FlatAdsSet::FromAdsSet(
      BuildAdsDp(g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(7))));
  std::printf("sketches built: %.1f entries/user\n",
              static_cast<double>(sketches.TotalEntries()) / g.num_nodes());

  // Query 1: harmonic centrality of everyone (one sketch scan per user).
  std::vector<double> harmonic =
      EstimateHarmonicCentralityAll(sketches).value();

  // Exact harmonic centrality for the estimated top-5 only (cheap spot
  // check: 5 BFS instead of 20000).
  std::vector<double> exact(g.num_nodes(), 0.0);
  for (NodeId v : TopKNodes(harmonic, 5)) {
    exact[v] = ExactHarmonicCentrality(g, v);
  }
  PrintTop("Top users by harmonic centrality:", g, harmonic, exact);

  // Query 2: same sketches, exponential-decay kernel.
  std::vector<double> decay =
      EstimateClosenessAll(
          sketches, [](double d) { return std::pow(2.0, -d); },
          [](NodeId) { return 1.0; })
          .value();
  PrintTop("Top users by 2^-d decay centrality:", g, decay, {});

  // Query 3: same sketches, restricted to premium users (beta filter chosen
  // at query time — the HIP flexibility the paper highlights over
  // beta-specific sketch computations).
  std::vector<double> premium =
      EstimateClosenessAll(
          sketches, [](double d) { return 1.0 / (1.0 + d); }, PremiumWeight)
          .value();
  PrintTop("Top users by proximity to premium users:", g, premium, {});

  // Query 4: the graph's distance distribution (ANF-style), from the same
  // sketches.
  std::printf("\ndistance distribution (ordered pairs within d):\n");
  double total = static_cast<double>(g.num_nodes()) *
                 (g.num_nodes() - 1);
  std::map<double, double> nf = EstimateNeighborhoodFunction(sketches).value();
  for (const auto& [d, pairs] : nf) {
    std::printf("  d <= %-4.0f : %12.0f  (%.1f%% of pairs)\n", d, pairs,
                100.0 * pairs / total);
    if (pairs / total > 0.999) break;
  }
  return 0;
}
