// Compressed-sparse-row graph substrate.
//
// All ADS builders operate on this representation. Graphs may be directed or
// undirected (undirected graphs store both arc directions) and weighted or
// unweighted (unweighted arcs have length 1).

#ifndef HIPADS_GRAPH_GRAPH_H_
#define HIPADS_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/default_init.h"

namespace hipads {

using NodeId = uint32_t;

/// Outgoing arc: head node and arc length.
struct Arc {
  NodeId head;
  double weight;
};

/// Edge-list entry used during construction.
struct Edge {
  NodeId tail;
  NodeId head;
  double weight = 1.0;
};

/// Immutable CSR adjacency structure.
///
/// Build with GraphBuilder (or the generator / IO helpers). Node ids are
/// dense in [0, num_nodes).
class Graph {
 public:
  Graph() = default;

  /// Builds a CSR graph from an edge list. If `undirected`, every edge is
  /// inserted in both directions. Self loops are kept; parallel arcs are
  /// kept (they are harmless for shortest-path computations). Each node's
  /// arcs keep the order of `edges` (an undirected edge gives its tail's
  /// arc before its head's). The build runs on a pool of one thread per
  /// 64K arcs (at most HardwareThreads()); the result does not depend on
  /// the pool's width.
  Graph(NodeId num_nodes, const std::vector<Edge>& edges, bool undirected);

  NodeId num_nodes() const { return static_cast<NodeId>(offsets_.size() - 1); }
  uint64_t num_arcs() const { return arcs_.size(); }
  bool undirected() const { return undirected_; }

  /// Outgoing arcs of `v`.
  std::span<const Arc> OutArcs(NodeId v) const {
    return {arcs_.data() + offsets_[v], arcs_.data() + offsets_[v + 1]};
  }

  uint32_t OutDegree(NodeId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// True if every arc has weight exactly 1.
  bool IsUnitWeight() const;

  /// The transpose graph (all arcs reversed): node v's arcs are the arcs
  /// into v, ordered by tail and then by their place in the tail's list.
  /// For undirected graphs this holds the same arcs, possibly reordered.
  /// Built like the constructor's graph, on the same pool.
  Graph Transpose() const;

  /// Recovers the arc list (tail, head, weight) — mostly for tests and IO.
  std::vector<Edge> ToEdgeList() const;

 private:
  // Lays out the CSR arrays over `num_nodes` nodes from `arcs`, a source of
  // (tail, Arc) pairs in the order each tail keeps them (graph.cc).
  template <typename ArcSource>
  void Build(NodeId num_nodes, const ArcSource& arcs);

  DefaultInitVector<uint64_t> offsets_{0};  // size num_nodes + 1
  DefaultInitVector<Arc> arcs_;
  bool undirected_ = false;
};

}  // namespace hipads

#endif  // HIPADS_GRAPH_GRAPH_H_
