#include "graph/graph.h"

#include <algorithm>
#include <cassert>

#include "util/parallel.h"

namespace hipads {

namespace {

// Under this many arcs per thread a pool costs more than it saves.
constexpr uint64_t kArcsPerBuildThread = uint64_t{1} << 16;

// The arcs of Graph(n, edges, undirected), edge by edge: each edge's
// tail arc, then (undirected) its head arc.
struct EdgeArcs {
  const std::vector<Edge>& edges;
  bool undirected;

  uint64_t size() const { return edges.size() * (undirected ? 2 : 1); }

  template <typename Emit>
  void Forward(const Emit& emit) const {
    for (const Edge& e : edges) {
      emit(e.tail, Arc{e.head, e.weight});
      if (undirected) emit(e.head, Arc{e.tail, e.weight});
    }
  }
  template <typename Emit>
  void Backward(const Emit& emit) const {
    for (size_t i = edges.size(); i-- > 0;) {
      const Edge& e = edges[i];
      if (undirected) emit(e.head, Arc{e.tail, e.weight});
      emit(e.tail, Arc{e.head, e.weight});
    }
  }
};

// The arcs of g's transpose, tail by tail and arc by arc, each reversed.
struct ReversedArcs {
  const Graph& g;

  uint64_t size() const { return g.num_arcs(); }

  template <typename Emit>
  void Forward(const Emit& emit) const {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const Arc& a : g.OutArcs(v)) emit(a.head, Arc{v, a.weight});
    }
  }
  template <typename Emit>
  void Backward(const Emit& emit) const {
    for (NodeId v = g.num_nodes(); v-- > 0;) {
      std::span<const Arc> out = g.OutArcs(v);
      for (size_t i = out.size(); i-- > 0;) {
        emit(out[i].head, Arc{v, out[i].weight});
      }
    }
  }
};

}  // namespace

// Every task owns a range of nodes and scans all of `arcs`, keeping those
// whose tail it owns, so no two tasks write the same slot and the memory
// is the output's alone whatever the pool's width. The count pass leaves
// offsets_[v] at the end of v's arcs; the placement pass then scans
// backwards, filling each node's slots from its end, so every node keeps
// its arcs in source order and offsets_[v] ends at the start of v's.
template <typename ArcSource>
void Graph::Build(NodeId num_nodes, const ArcSource& arcs) {
  const size_t n = num_nodes;
  offsets_.resize(n + 1);
  ThreadPool pool(ThreadsForWork(arcs.size(), kArcsPerBuildThread));
  const uint32_t parts = pool.num_threads();

  // Count each node's arcs, equal node counts per task (every task pays
  // for the whole scan, so arc counts would not balance it better), and
  // prefix-sum them inside the range.
  std::vector<size_t> bounds(parts + 1);
  for (uint32_t t = 0; t <= parts; ++t) bounds[t] = n * t / parts;
  std::vector<uint64_t> range_arcs(parts, 0);
  pool.ParallelRanges(bounds, [&](size_t lo, size_t hi, uint32_t t) {
    std::fill(offsets_.begin() + lo, offsets_.begin() + hi, 0);
    arcs.Forward([&](NodeId v, const Arc&) {
      if (v - lo < hi - lo) ++offsets_[v];
    });
    uint64_t sum = 0;
    for (size_t v = lo; v < hi; ++v) {
      sum += offsets_[v];
      offsets_[v] = sum;
    }
    range_arcs[t] = sum;
  });
  uint64_t total = 0;
  std::vector<uint64_t> range_base(parts);
  for (uint32_t t = 0; t < parts; ++t) {
    range_base[t] = total;
    total += range_arcs[t];
  }
  pool.ParallelRanges(bounds, [&](size_t lo, size_t hi, uint32_t t) {
    for (size_t v = lo; v < hi; ++v) offsets_[v] += range_base[t];
  });
  offsets_[n] = total;

  // Place the arcs, now with ranges cut at equal arc counts: the writes
  // are the part of the work that follows the degrees.
  for (uint32_t t = 1; t < parts; ++t) {
    bounds[t] = static_cast<size_t>(
        std::lower_bound(offsets_.begin(), offsets_.begin() + n,
                         total * t / parts) -
        offsets_.begin());
  }
  arcs_.resize(total);
  pool.ParallelRanges(bounds, [&](size_t lo, size_t hi, uint32_t) {
    arcs.Backward([&](NodeId v, const Arc& a) {
      if (v - lo < hi - lo) arcs_[--offsets_[v]] = a;
    });
  });
}

Graph::Graph(NodeId num_nodes, const std::vector<Edge>& edges,
             bool undirected)
    : undirected_(undirected) {
  for ([[maybe_unused]] const Edge& e : edges) {
    assert(e.tail < num_nodes && e.head < num_nodes);
    assert(e.weight >= 0.0);
  }
  Build(num_nodes, EdgeArcs{edges, undirected});
}

bool Graph::IsUnitWeight() const {
  for (const Arc& a : arcs_) {
    if (a.weight != 1.0) return false;
  }
  return true;
}

Graph Graph::Transpose() const {
  Graph t;
  t.undirected_ = undirected_;
  t.Build(num_nodes(), ReversedArcs{*this});
  return t;
}

std::vector<Edge> Graph::ToEdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(arcs_.size());
  for (NodeId v = 0; v < num_nodes(); ++v) {
    for (const Arc& a : OutArcs(v)) {
      edges.push_back(Edge{v, a.head, a.weight});
    }
  }
  return edges;
}

}  // namespace hipads
