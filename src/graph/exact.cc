#include "graph/exact.h"

#include "graph/traversal.h"

namespace hipads {

uint64_t ExactNeighborhoodSize(const Graph& g, NodeId v, double d) {
  uint64_t count = 0;
  for (double dist : ShortestPathDistances(g, v)) {
    // Unreachable nodes sit at kInfDist, which `<= d` admits at d = inf.
    if (dist != kInfDist && dist <= d) ++count;
  }
  return count;
}

double ExactQg(const Graph& g, NodeId v,
               const std::function<double(NodeId, double)>& fn) {
  double sum = 0.0;
  std::vector<double> dist = ShortestPathDistances(g, v);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (dist[u] != kInfDist) sum += fn(u, dist[u]);
  }
  return sum;
}

double ExactClosenessCentrality(const Graph& g, NodeId v,
                                const std::function<double(double)>& alpha,
                                const std::function<double(NodeId)>& beta) {
  return ExactQg(g, v, [&alpha, &beta](NodeId u, double d) {
    return alpha(d) * beta(u);
  });
}

double ExactDistanceSum(const Graph& g, NodeId v) {
  return ExactQg(g, v, [](NodeId, double d) { return d; });
}

double ExactHarmonicCentrality(const Graph& g, NodeId v) {
  return ExactQg(g, v,
                 [](NodeId, double d) { return d > 0.0 ? 1.0 / d : 0.0; });
}

std::map<double, uint64_t> ExactDistanceDistribution(const Graph& g) {
  std::map<double, uint64_t> hist;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (double d : ShortestPathDistances(g, v)) {
      if (d != kInfDist && d > 0.0) hist[d]++;
    }
  }
  return hist;
}

std::vector<std::vector<double>> AllPairsDistances(const Graph& g) {
  std::vector<std::vector<double>> all(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    all[v] = ShortestPathDistances(g, v);
  }
  return all;
}

}  // namespace hipads
