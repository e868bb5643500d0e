#include "graph/generators.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <bit>
#include <functional>
#include <string>

#include "graph/traversal.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace hipads {
namespace {

// XXH64 of every node's arcs in order: the node count, the direction
// flag, then per node its degree and each arc's head and weight bits.
uint64_t ArcDigest(const Graph& g) {
  std::string bytes;
  auto put = [&bytes](auto x) {
    bytes.append(reinterpret_cast<const char*>(&x), sizeof(x));
  };
  put(g.num_nodes());
  put(static_cast<uint8_t>(g.undirected()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    put(g.OutDegree(v));
    for (const Arc& a : g.OutArcs(v)) {
      put(a.head);
      put(std::bit_cast<uint64_t>(a.weight));
    }
  }
  return Xxh64(bytes.data(), bytes.size(), 0);
}

// Every generator at a fixed seed, with the arc count and digest its graph
// had when each node's arcs were placed by one sequential pass over the
// edge list. The CLI's `generate` output and every sketch built from it
// follow from these arcs, so none of them may move. The scale-15 R-MAT
// graphs (262K and 524K arcs) and their transposes are large enough to
// build on a pool of several threads.
struct DigestCase {
  const char* name;
  std::function<Graph()> make;
  uint64_t arcs;
  uint64_t digest;
};

const std::vector<DigestCase>& DigestCases() {
  static const std::vector<DigestCase> cases = {
      {"Rmat(10, 8, 5)", [] { return Rmat(10, 8, 5); }, 8125u,
       0xf460597bfc762793ULL},
      {"Rmat(10, 8, 5, undirected)", [] { return Rmat(10, 8, 5, true); },
       16250u, 0xd02b3acd050738c4ULL},
      {"Rmat(15, 8, 7)", [] { return Rmat(15, 8, 7); }, 261939u,
       0xdfb36baa0a5ebb15ULL},
      {"Rmat(15, 8, 7, undirected)", [] { return Rmat(15, 8, 7, true); },
       523878u, 0x69806f79b91aadb8ULL},
      {"Rmat(15, 8, 7).Transpose()", [] { return Rmat(15, 8, 7).Transpose(); },
       261939u, 0x2bb09ff607c515e4ULL},
      {"Rmat(15, 8, 7, undirected).Transpose()",
       [] { return Rmat(15, 8, 7, true).Transpose(); }, 523878u,
       0x422636782f82476bULL},
      {"ErdosRenyi(2000, 8000, undirected)",
       [] { return ErdosRenyi(2000, 8000, true, 11); }, 16000u,
       0x301d289ee4f1d067ULL},
      {"ErdosRenyi(2000, 8000, directed)",
       [] { return ErdosRenyi(2000, 8000, false, 12); }, 8000u,
       0x60899c2850c755faULL},
      {"BarabasiAlbert(5000, 3)", [] { return BarabasiAlbert(5000, 3, 13); },
       29988u, 0xe1e0e97ed11b3b37ULL},
      {"Grid2D(40, 50)", [] { return Grid2D(40, 50); }, 7820u,
       0x75aac7fd41b50c1aULL},
      {"RandomizeWeights(Rmat(12, 8, 3, undirected))",
       [] { return RandomizeWeights(Rmat(12, 8, 3, true), 0.5, 2.0, 17); },
       65322u, 0x704e321aa123b177ULL},
      {"RandomizeWeights(ErdosRenyi(2000, 8000, directed))",
       [] {
         return RandomizeWeights(ErdosRenyi(2000, 8000, false, 12), 0.5, 2.0,
                                 19);
       },
       8000u, 0xa6cc9e04c23fa290ULL},
  };
  return cases;
}

void ExpectRecordedDigests(const std::string& where) {
  for (const DigestCase& c : DigestCases()) {
    Graph g = c.make();
    EXPECT_EQ(g.num_arcs(), c.arcs) << c.name << " " << where;
    EXPECT_EQ(ArcDigest(g), c.digest) << c.name << " " << where;
  }
}

// The pool width follows the affinity mask (HardwareThreads()), so the
// same graphs are built at the full mask and again pinned to one CPU,
// where every build runs on the calling thread alone.
TEST(GeneratorsTest, EveryGeneratorBuildsTheRecordedArcsAtAnyPoolWidth) {
  ExpectRecordedDigests("at the full affinity mask (" +
                        std::to_string(HardwareThreads()) + " CPUs)");
  cpu_set_t saved;
  if (sched_getaffinity(0, sizeof(saved), &saved) != 0) {
    GTEST_SKIP() << "the affinity mask cannot be read";
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    GTEST_SKIP() << "this thread cannot be pinned";
  }
  const uint32_t pinned = HardwareThreads();
  ExpectRecordedDigests("pinned to one CPU");
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
}

TEST(GeneratorsTest, ErdosRenyiEdgeCount) {
  Graph g = ErdosRenyi(100, 300, /*undirected=*/true, 1);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_EQ(g.num_arcs(), 600u);  // both directions
}

TEST(GeneratorsTest, ErdosRenyiDirected) {
  Graph g = ErdosRenyi(50, 200, /*undirected=*/false, 2);
  EXPECT_EQ(g.num_arcs(), 200u);
  EXPECT_FALSE(g.undirected());
}

TEST(GeneratorsTest, ErdosRenyiNoSelfLoops) {
  Graph g = ErdosRenyi(30, 100, false, 3);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Arc& a : g.OutArcs(v)) EXPECT_NE(a.head, v);
  }
}

TEST(GeneratorsTest, ErdosRenyiDeterministicSeed) {
  Graph a = ErdosRenyi(40, 80, true, 42);
  Graph b = ErdosRenyi(40, 80, true, 42);
  EXPECT_EQ(a.num_arcs(), b.num_arcs());
  for (NodeId v = 0; v < 40; ++v) {
    ASSERT_EQ(a.OutDegree(v), b.OutDegree(v));
  }
}

TEST(GeneratorsTest, BarabasiAlbertConnectedAndSized) {
  Graph g = BarabasiAlbert(500, 3, 7);
  EXPECT_EQ(g.num_nodes(), 500u);
  // Preferential attachment produces a connected graph.
  EXPECT_EQ(CountReachable(g, 0), 500u);
  // (attach+1 choose 2) seed edges + attach per later node, both directions.
  uint64_t expected_edges = 6 + (500 - 4) * 3;
  EXPECT_EQ(g.num_arcs(), expected_edges * 2);
}

TEST(GeneratorsTest, BarabasiAlbertHeavyTail) {
  Graph g = BarabasiAlbert(2000, 2, 11);
  uint32_t max_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.OutDegree(v));
  }
  // Hubs should exist: far above the mean degree of ~4.
  EXPECT_GT(max_deg, 40u);
}

TEST(GeneratorsTest, RmatSize) {
  Graph g = Rmat(10, 8, 5);
  EXPECT_EQ(g.num_nodes(), 1024u);
  EXPECT_LE(g.num_arcs(), 8192u);  // self loops dropped
  EXPECT_GT(g.num_arcs(), 7000u);
}

TEST(GeneratorsTest, RmatSkew) {
  Graph g = Rmat(11, 8, 9);
  uint32_t max_deg = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.OutDegree(v));
  }
  EXPECT_GT(max_deg, 50u);  // power-law out-degrees
}

TEST(GeneratorsTest, Grid2DStructure) {
  Graph g = Grid2D(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // 3*3 horizontal + 2*4 vertical edges, doubled.
  EXPECT_EQ(g.num_arcs(), 2u * (3 * 3 + 2 * 4));
  // Corner has degree 2, middle has degree 4.
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(5), 4u);
}

TEST(GeneratorsTest, PathDistances) {
  Graph g = Path(5);
  auto dist = ShortestPathDistances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(dist[v], v);
}

TEST(GeneratorsTest, DirectedPathUnreachableBackwards) {
  Graph g = Path(4, /*directed=*/true);
  auto dist = ShortestPathDistances(g, 2);
  EXPECT_EQ(dist[3], 1.0);
  EXPECT_EQ(dist[0], kInfDist);
}

TEST(GeneratorsTest, CycleDiameter) {
  Graph g = Cycle(10);
  auto dist = ShortestPathDistances(g, 0);
  EXPECT_EQ(dist[5], 5.0);
  EXPECT_EQ(dist[9], 1.0);
}

TEST(GeneratorsTest, StarStructure) {
  Graph g = Star(6);
  EXPECT_EQ(g.OutDegree(0), 5u);
  auto dist = ShortestPathDistances(g, 1);
  EXPECT_EQ(dist[0], 1.0);
  EXPECT_EQ(dist[2], 2.0);
}

TEST(GeneratorsTest, CompleteGraph) {
  Graph g = Complete(5);
  EXPECT_EQ(g.num_arcs(), 20u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.OutDegree(v), 4u);
}

TEST(GeneratorsTest, BinaryTreeDepth) {
  Graph g = BinaryTree(15);  // complete tree of depth 3
  auto dist = ShortestPathDistances(g, 0);
  EXPECT_EQ(dist[14], 3.0);
  EXPECT_EQ(dist[1], 1.0);
  EXPECT_EQ(CountReachable(g, 7), 15u);
}

TEST(GeneratorsTest, WattsStrogatzConnectedAtBetaZero) {
  Graph g = WattsStrogatz(100, 2, 0.0, 3);
  EXPECT_EQ(CountReachable(g, 0), 100u);
  // Ring lattice: every node has degree 4 with beta=0.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.OutDegree(v), 4u);
  }
}

TEST(GeneratorsTest, WattsStrogatzRewiringShrinksDiameter) {
  Graph lattice = WattsStrogatz(400, 2, 0.0, 5);
  Graph small_world = WattsStrogatz(400, 2, 0.3, 5);
  auto ecc = [](const Graph& g) {
    auto dist = ShortestPathDistances(g, 0);
    double m = 0.0;
    for (double d : dist) {
      if (d != kInfDist) m = std::max(m, d);
    }
    return m;
  };
  EXPECT_LT(ecc(small_world), ecc(lattice));
}

TEST(GeneratorsTest, RandomizeWeightsRangeAndSymmetry) {
  Graph g = Grid2D(5, 5);
  Graph w = RandomizeWeights(g, 1.0, 3.0, 17);
  EXPECT_EQ(w.num_arcs(), g.num_arcs());
  for (NodeId v = 0; v < w.num_nodes(); ++v) {
    for (const Arc& a : w.OutArcs(v)) {
      EXPECT_GE(a.weight, 1.0);
      EXPECT_LT(a.weight, 3.0);
      // Symmetric: find reverse arc and compare weight.
      bool found = false;
      for (const Arc& b : w.OutArcs(a.head)) {
        if (b.head == v && b.weight == a.weight) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

}  // namespace
}  // namespace hipads
