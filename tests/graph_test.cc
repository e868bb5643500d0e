#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "util/random.h"

namespace hipads {
namespace {

// What a CSR build must produce, by definition: each node's arcs in the
// order the source emits them.
using Adjacency = std::vector<std::vector<Arc>>;

Adjacency ReferenceAdjacency(NodeId n, const std::vector<Edge>& edges,
                             bool undirected) {
  Adjacency adj(n);
  for (const Edge& e : edges) {
    adj[e.tail].push_back(Arc{e.head, e.weight});
    if (undirected) adj[e.head].push_back(Arc{e.tail, e.weight});
  }
  return adj;
}

Adjacency ReferenceTranspose(const Graph& g) {
  Adjacency adj(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Arc& a : g.OutArcs(v)) adj[a.head].push_back(Arc{v, a.weight});
  }
  return adj;
}

void ExpectArcsEqual(const Graph& g, const Adjacency& want,
                     const std::string& what) {
  ASSERT_EQ(g.num_nodes(), want.size()) << what;
  uint64_t arcs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::span<const Arc> got = g.OutArcs(v);
    ASSERT_EQ(got.size(), want[v].size()) << what << " node " << v;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].head, want[v][i].head) << what << " node " << v;
      ASSERT_EQ(std::bit_cast<uint64_t>(got[i].weight),
                std::bit_cast<uint64_t>(want[v][i].weight))
          << what << " node " << v;
    }
    arcs += got.size();
  }
  EXPECT_EQ(g.num_arcs(), arcs) << what;
}

// A skewed random edge list with self loops, parallel arcs and distinct
// weights, large enough that the build runs on a pool of several threads
// (one per 64K arcs) wherever the affinity mask allows it. Every node's
// arcs must still come out in edge-list order, and the transpose's in
// tail order, whatever the pool's width.
TEST(GraphTest, PooledBuildKeepsEveryNodesArcsInSourceOrder) {
  const NodeId n = 5000;
  Rng rng(29);
  std::vector<Edge> edges;
  for (int i = 0; i < 150000; ++i) {
    // Squaring a uniform draw puts most endpoints on low ids: hubs.
    double x = rng.NextUnit(), y = rng.NextUnit();
    NodeId u = static_cast<NodeId>(x * x * n);
    NodeId v = i % 97 == 0 ? u : static_cast<NodeId>(y * n);
    edges.push_back(Edge{u, v, 0.5 + rng.NextUnit()});
    if (i % 50 == 0) {
      const Edge parallel = edges.back();
      edges.push_back(parallel);
    }
  }
  const NodeId isolated = n + 3;  // trailing nodes without arcs
  for (bool undirected : {false, true}) {
    const std::string what = undirected ? "undirected" : "directed";
    Graph g(isolated, edges, undirected);
    EXPECT_EQ(g.undirected(), undirected);
    ExpectArcsEqual(g, ReferenceAdjacency(isolated, edges, undirected), what);
    ExpectArcsEqual(g.Transpose(), ReferenceTranspose(g),
                    what + " transpose");
  }
}

TEST(GraphTest, BuildWithNoNodesOrNoArcs) {
  Graph none(0, {}, true);
  EXPECT_EQ(none.num_nodes(), 0u);
  EXPECT_EQ(none.num_arcs(), 0u);
  EXPECT_EQ(none.Transpose().num_nodes(), 0u);
  Graph empty(4, {}, false);
  EXPECT_EQ(empty.Transpose().num_arcs(), 0u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(empty.OutDegree(v), 0u);
}

TEST(GraphTest, EmptyGraph) {
  Graph g(3, {}, false);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_arcs(), 0u);
  EXPECT_TRUE(g.OutArcs(0).empty());
}

TEST(GraphTest, DirectedArcs) {
  Graph g(3, {{0, 1, 1.0}, {1, 2, 2.5}}, false);
  EXPECT_EQ(g.num_arcs(), 2u);
  ASSERT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutArcs(0)[0].head, 1u);
  EXPECT_EQ(g.OutArcs(1)[0].head, 2u);
  EXPECT_EQ(g.OutArcs(1)[0].weight, 2.5);
  EXPECT_EQ(g.OutDegree(2), 0u);
}

TEST(GraphTest, UndirectedStoresBothDirections) {
  Graph g(2, {{0, 1, 3.0}}, true);
  EXPECT_EQ(g.num_arcs(), 2u);
  EXPECT_EQ(g.OutArcs(0)[0].head, 1u);
  EXPECT_EQ(g.OutArcs(1)[0].head, 0u);
  EXPECT_EQ(g.OutArcs(1)[0].weight, 3.0);
  EXPECT_TRUE(g.undirected());
}

TEST(GraphTest, IsUnitWeight) {
  Graph unit(2, {{0, 1, 1.0}}, false);
  EXPECT_TRUE(unit.IsUnitWeight());
  Graph weighted(2, {{0, 1, 2.0}}, false);
  EXPECT_FALSE(weighted.IsUnitWeight());
}

TEST(GraphTest, TransposeReversesArcs) {
  Graph g(3, {{0, 1, 1.0}, {0, 2, 5.0}, {1, 2, 2.0}}, false);
  Graph t = g.Transpose();
  EXPECT_EQ(t.num_arcs(), 3u);
  EXPECT_EQ(t.OutDegree(0), 0u);
  EXPECT_EQ(t.OutDegree(1), 1u);
  EXPECT_EQ(t.OutArcs(1)[0].head, 0u);
  EXPECT_EQ(t.OutDegree(2), 2u);
  // Weights preserved.
  double w_sum = 0.0;
  for (const Arc& a : t.OutArcs(2)) w_sum += a.weight;
  EXPECT_EQ(w_sum, 7.0);
}

TEST(GraphTest, TransposeOfTransposeIsIdentity) {
  Graph g(4, {{0, 1, 1.0}, {1, 2, 2.0}, {3, 0, 4.0}, {2, 3, 1.5}}, false);
  Graph tt = g.Transpose().Transpose();
  auto e1 = g.ToEdgeList();
  auto e2 = tt.ToEdgeList();
  auto key = [](const Edge& e) {
    return std::tuple(e.tail, e.head, e.weight);
  };
  std::sort(e1.begin(), e1.end(),
            [&](const Edge& a, const Edge& b) { return key(a) < key(b); });
  std::sort(e2.begin(), e2.end(),
            [&](const Edge& a, const Edge& b) { return key(a) < key(b); });
  ASSERT_EQ(e1.size(), e2.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(key(e1[i]), key(e2[i]));
  }
}

TEST(GraphTest, ToEdgeListRoundTrip) {
  std::vector<Edge> edges = {{0, 1, 1.0}, {2, 0, 3.0}};
  Graph g(3, edges, false);
  auto back = g.ToEdgeList();
  ASSERT_EQ(back.size(), 2u);
}

TEST(GraphTest, SelfLoopsKept) {
  Graph g(2, {{0, 0, 1.0}}, false);
  EXPECT_EQ(g.num_arcs(), 1u);
  EXPECT_EQ(g.OutArcs(0)[0].head, 0u);
}

TEST(GraphTest, ParallelArcsKept) {
  Graph g(2, {{0, 1, 1.0}, {0, 1, 2.0}}, false);
  EXPECT_EQ(g.OutDegree(0), 2u);
}

}  // namespace
}  // namespace hipads
