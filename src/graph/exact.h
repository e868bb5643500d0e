// Exact (brute force) distance-based statistics. These are the ground-truth
// oracles the estimator experiments compare against; they run one full
// shortest-path computation per node and are only meant for graphs small
// enough to validate on (the whole point of the paper is avoiding this cost
// at scale).

#ifndef HIPADS_GRAPH_EXACT_H_
#define HIPADS_GRAPH_EXACT_H_

#include <functional>
#include <map>
#include <vector>

#include "graph/graph.h"

namespace hipads {

/// Exact neighborhood cardinality n_d(v) = |{u reachable : d(v,u) <= d}|;
/// d = infinity counts every node reachable from v.
uint64_t ExactNeighborhoodSize(const Graph& g, NodeId v, double d);

/// Exact distance-based statistic Q_g(v) = sum over reachable u of
/// g(u, d(v,u))   (Eq. 1 of the paper).
double ExactQg(const Graph& g, NodeId v,
               const std::function<double(NodeId, double)>& fn);

/// Exact closeness centrality C_{alpha,beta}(v) = sum alpha(d(v,u)) beta(u)
/// (Eq. 2). alpha must treat unreachable as 0 (it is never called with
/// infinite distance).
double ExactClosenessCentrality(const Graph& g, NodeId v,
                                const std::function<double(double)>& alpha,
                                const std::function<double(NodeId)>& beta);

/// Sum of distances to all reachable nodes (inverse classic closeness).
double ExactDistanceSum(const Graph& g, NodeId v);

/// Harmonic centrality: sum over u != v reachable of 1 / d(v,u).
double ExactHarmonicCentrality(const Graph& g, NodeId v);

/// The graph's exact distance distribution: for each distinct finite
/// distance d > 0, the number of ordered pairs (u,v) with d(u,v) = d.
/// (The "neighbourhood function" of ANF/HyperANF is its running sum.)
std::map<double, uint64_t> ExactDistanceDistribution(const Graph& g);

/// All exact distances from every node (n x n); for small test graphs only.
std::vector<std::vector<double>> AllPairsDistances(const Graph& g);

}  // namespace hipads

#endif  // HIPADS_GRAPH_EXACT_H_
