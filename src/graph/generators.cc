#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/hash.h"
#include "util/random.h"

namespace hipads {

Graph ErdosRenyi(NodeId n, uint64_t m, bool undirected, uint64_t seed) {
  assert(n >= 2);
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(m);
  std::unordered_set<uint64_t> seen;
  seen.reserve(m * 2);
  uint64_t attempts = 0;
  const uint64_t max_attempts = 100 * m + 1000;
  while (edges.size() < m && attempts < max_attempts) {
    ++attempts;
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    uint64_t key = undirected
                       ? (static_cast<uint64_t>(std::min(u, v)) << 32) |
                             std::max(u, v)
                       : (static_cast<uint64_t>(u) << 32) | v;
    if (!seen.insert(key).second) continue;
    edges.push_back(Edge{u, v, 1.0});
  }
  return Graph(n, edges, undirected);
}

Graph BarabasiAlbert(NodeId n, uint32_t attach, uint64_t seed) {
  assert(attach >= 1 && n > attach);
  Rng rng(seed);
  std::vector<Edge> edges;
  // Repeated-endpoint list: picking a uniform element of `targets` samples a
  // node with probability proportional to its degree.
  std::vector<NodeId> targets;
  // Seed clique on the first attach+1 nodes.
  for (NodeId u = 0; u <= attach; ++u) {
    for (NodeId v = u + 1; v <= attach; ++v) {
      edges.push_back(Edge{u, v, 1.0});
      targets.push_back(u);
      targets.push_back(v);
    }
  }
  std::vector<NodeId> picked;
  for (NodeId v = attach + 1; v < n; ++v) {
    picked.clear();
    // Sample `attach` distinct neighbors by degree.
    while (picked.size() < attach) {
      NodeId t = targets[rng.NextBounded(targets.size())];
      if (std::find(picked.begin(), picked.end(), t) == picked.end()) {
        picked.push_back(t);
      }
    }
    for (NodeId t : picked) {
      edges.push_back(Edge{v, t, 1.0});
      targets.push_back(v);
      targets.push_back(t);
    }
  }
  return Graph(n, edges, /*undirected=*/true);
}

Graph Rmat(uint32_t scale, uint64_t edges_per_node, uint64_t seed,
           bool undirected, double a, double b, double c) {
  NodeId n = NodeId{1} << scale;
  uint64_t m = edges_per_node * n;
  Rng rng(seed);
  // One draw p per bit picks a quadrant: top-left if p < a, top-right if
  // p < a + b, bottom-left if p < a + b + c, else bottom-right. The three
  // comparisons become bits, so no branch depends on p; the bits equal
  // that if-chain's for any a, b and c, NaN included.
  const double ab = a + b;
  const double abc = ab + c;
  std::vector<Edge> edges;
  edges.reserve(m);
  for (uint64_t e = 0; e < m; ++e) {
    NodeId u = 0, v = 0;
    for (uint32_t bit = 0; bit < scale; ++bit) {
      const double p = rng.NextUnit();
      const NodeId past_a = !(p < a);
      const NodeId past_ab = !(p < ab);
      const NodeId past_abc = !(p < abc);
      u = (u << 1) | (past_a & past_ab);
      v = (v << 1) | (past_a & ((past_ab ^ 1) | past_abc));
    }
    if (u == v) continue;  // drop self loops
    edges.push_back(Edge{u, v, 1.0});
  }
  return Graph(n, edges, undirected);
}

Graph Grid2D(uint32_t rows, uint32_t cols) {
  assert(rows >= 1 && cols >= 1);
  NodeId n = rows * cols;
  std::vector<Edge> edges;
  auto id = [cols](uint32_t r, uint32_t c) { return r * cols + c; };
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(Edge{id(r, c), id(r, c + 1), 1.0});
      if (r + 1 < rows) edges.push_back(Edge{id(r, c), id(r + 1, c), 1.0});
    }
  }
  return Graph(n, edges, /*undirected=*/true);
}

Graph Path(NodeId n, bool directed) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back(Edge{v, v + 1, 1.0});
  return Graph(n, edges, /*undirected=*/!directed);
}

Graph Cycle(NodeId n, bool directed) {
  assert(n >= 3);
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back(Edge{v, (v + 1) % n, 1.0});
  return Graph(n, edges, /*undirected=*/!directed);
}

Graph Star(NodeId n) {
  assert(n >= 2);
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back(Edge{0, v, 1.0});
  return Graph(n, edges, /*undirected=*/true);
}

Graph Complete(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back(Edge{u, v, 1.0});
  }
  return Graph(n, edges, /*undirected=*/true);
}

Graph BinaryTree(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    NodeId l = 2 * v + 1, r = 2 * v + 2;
    if (l < n) edges.push_back(Edge{v, l, 1.0});
    if (r < n) edges.push_back(Edge{v, r, 1.0});
  }
  return Graph(n, edges, /*undirected=*/true);
}

Graph WattsStrogatz(NodeId n, uint32_t neighbors, double beta, uint64_t seed) {
  assert(n > 2 * neighbors);
  Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  auto key = [](NodeId u, NodeId v) {
    return (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
  };
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (uint32_t j = 1; j <= neighbors; ++j) {
      NodeId v = (u + j) % n;
      if (rng.NextBernoulli(beta)) {
        // Rewire to a uniform non-neighbor.
        for (int tries = 0; tries < 32; ++tries) {
          NodeId w = static_cast<NodeId>(rng.NextBounded(n));
          if (w != u && !seen.count(key(u, w))) {
            v = w;
            break;
          }
        }
      }
      if (u != v && seen.insert(key(u, v)).second) {
        edges.push_back(Edge{u, v, 1.0});
      }
    }
  }
  return Graph(n, edges, /*undirected=*/true);
}

Graph RandomizeWeights(const Graph& g, double min_w, double max_w,
                       uint64_t seed) {
  assert(max_w >= min_w && min_w >= 0.0);
  std::vector<Edge> edges = g.ToEdgeList();
  if (g.undirected()) {
    // An undirected CSR stores each edge twice; keep one representative so
    // both directions get the same weight when rebuilt.
    std::vector<Edge> uniq;
    uniq.reserve(edges.size() / 2);
    for (const Edge& e : edges) {
      if (e.tail <= e.head) uniq.push_back(e);
    }
    edges = std::move(uniq);
  }
  for (Edge& e : edges) {
    uint64_t h = HashCombine(
        seed, (static_cast<uint64_t>(e.tail) << 32) | e.head);
    e.weight = min_w + (max_w - min_w) * ToUnitInterval(h);
  }
  return Graph(g.num_nodes(), edges, g.undirected());
}

}  // namespace hipads
