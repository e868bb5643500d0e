// Property-based tests: structural invariants of ADSs and estimators that
// must hold for every graph family, seed, flavor and k. Parameterized
// sweeps play the role of a property-testing harness with reproducible
// cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/shard.h"
#include "graph/generators.h"
#include "graph/traversal.h"

namespace hipads {
namespace {

struct PropertyCase {
  int graph_kind;  // 0 ER, 1 BA, 2 grid, 3 directed RMAT, 4 weighted ER
  uint32_t k;
  uint64_t seed;
};

// Unique scratch dir per test; removed on destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const {
    return (std::filesystem::path(path) / name).string();
  }
  std::string path;
};

Graph MakeGraph(const PropertyCase& c) {
  switch (c.graph_kind) {
    case 0:
      return ErdosRenyi(70, 180, true, c.seed + 100);
    case 1:
      return BarabasiAlbert(70, 2, c.seed + 200);
    case 2:
      return Grid2D(8, 9);
    case 3:
      return Rmat(6, 3, c.seed + 300, false);
    default:
      return RandomizeWeights(ErdosRenyi(60, 160, true, c.seed + 400), 0.3,
                              2.5, c.seed + 1);
  }
}

class AdsPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AdsPropertyTest, MembershipRuleHolds) {
  // Eq. (4): u in ADS(v) iff r(u) < kth smallest rank among nodes strictly
  // closer to v (with the (dist, rank) tie break).
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 7) {
    auto dist = ShortestPathDistances(g, v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == kInfDist) {
        EXPECT_FALSE(set.of(v).Contains(u));
        continue;
      }
      BottomKSketch closer(c.k);
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (dist[w] == kInfDist) continue;
        bool w_closer =
            dist[w] < dist[u] || (dist[w] == dist[u] && w < u);
        if (w_closer && w != u) closer.Update(ranks.rank(w));
      }
      EXPECT_EQ(set.of(v).Contains(u), ranks.rank(u) < closer.Threshold())
          << "v=" << v << " u=" << u;
    }
  }
}

TEST_P(AdsPropertyTest, EntriesSortedAndDistancesCorrect) {
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto dist = ShortestPathDistances(g, v);
    double prev = -1.0;
    for (const AdsEntry& e : set.of(v).entries()) {
      EXPECT_GE(e.dist, prev);
      prev = e.dist;
      EXPECT_DOUBLE_EQ(e.dist, dist[e.node]);
      EXPECT_DOUBLE_EQ(e.rank, ranks.rank(e.node));
    }
  }
}

TEST_P(AdsPropertyTest, KClosestAlwaysIncluded) {
  // The k nodes closest to v (under the tie-broken order) are always in
  // ADS(v).
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 11) {
    auto dist = ShortestPathDistances(g, v);
    std::vector<NodeId> reachable;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] != kInfDist) reachable.push_back(u);
    }
    std::sort(reachable.begin(), reachable.end(), [&](NodeId a, NodeId b) {
      if (dist[a] != dist[b]) return dist[a] < dist[b];
      return a < b;
    });
    size_t take = std::min<size_t>(c.k, reachable.size());
    for (size_t i = 0; i < take; ++i) {
      EXPECT_TRUE(set.of(v).Contains(reachable[i]))
          << "v=" << v << " missing " << i << "-th closest";
    }
  }
}

TEST_P(AdsPropertyTest, HipWeightsSumBelowKIsExact) {
  // For d covering fewer than k nodes, the HIP estimate equals the exact
  // count — on any graph.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 13) {
    auto dist = ShortestPathDistances(g, v);
    std::vector<double> finite;
    for (double d : dist) {
      if (d != kInfDist) finite.push_back(d);
    }
    std::sort(finite.begin(), finite.end());
    if (finite.size() < 2) continue;
    size_t take = std::min<size_t>(c.k, finite.size()) - 1;
    double d_small = finite[take > 0 ? take - 1 : 0];
    uint64_t exact = 0;
    for (double d : finite) {
      if (d <= d_small) ++exact;
    }
    if (exact > c.k) continue;  // ties can push past k; skip
    HipEstimator hip(set.of(v), c.k, SketchFlavor::kBottomK, ranks);
    EXPECT_DOUBLE_EQ(hip.NeighborhoodCardinality(d_small),
                     static_cast<double>(exact))
        << "v=" << v;
  }
}

TEST_P(AdsPropertyTest, MinHashExtractionMatchesDirectSketch) {
  // The bottom-k sketch extracted from the ADS at distance d equals the
  // sketch built directly from N_d(v).
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 17) {
    auto dist = ShortestPathDistances(g, v);
    for (double d : {1.0, 2.0, 4.0, 1e9}) {
      BottomKSketch direct(c.k);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (dist[u] <= d) direct.Update(ranks.rank(u));
      }
      BottomKSketch extracted = set.of(v).BottomKAt(d, c.k);
      EXPECT_EQ(extracted.ranks(), direct.ranks())
          << "v=" << v << " d=" << d;
    }
  }
}

TEST_P(AdsPropertyTest, SizeEstimatorMonotoneInDistance) {
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kBottomK, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 19) {
    double prev = -1.0;
    for (double d = 0.0; d < 12.0; d += 0.5) {
      double e = AdsSizeCardinality(set.of(v), d, c.k);
      EXPECT_GE(e, prev);
      prev = e;
    }
  }
}

TEST_P(AdsPropertyTest, KMinsMembershipRuleHolds) {
  // k-mins ADS: node u is in ADS(v) under permutation p iff r_p(u) beats
  // the minimum r_p over nodes lex-closer to v.
  const PropertyCase& c = GetParam();
  if (c.k > 8) GTEST_SKIP() << "k-mins sweep capped for test time";
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kKMins, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 23) {
    auto dist = ShortestPathDistances(g, v);
    // Collect per-part membership.
    std::vector<std::vector<bool>> member(
        c.k, std::vector<bool>(g.num_nodes(), false));
    for (const AdsEntry& e : set.of(v).entries()) {
      member[e.part][e.node] = true;
    }
    for (uint32_t p = 0; p < c.k; ++p) {
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (dist[u] == kInfDist) {
          EXPECT_FALSE(member[p][u]);
          continue;
        }
        double closest = 2.0;  // above sup
        for (NodeId w = 0; w < g.num_nodes(); ++w) {
          if (w == u || dist[w] == kInfDist) continue;
          bool w_closer =
              dist[w] < dist[u] || (dist[w] == dist[u] && w < u);
          if (w_closer) closest = std::min(closest, ranks.rank(w, p));
        }
        EXPECT_EQ(member[p][u], ranks.rank(u, p) < closest)
            << "v=" << v << " u=" << u << " p=" << p;
      }
    }
  }
}

TEST_P(AdsPropertyTest, KPartitionMembershipRuleHolds) {
  // k-partition ADS: u in ADS(v) iff r(u) beats the minimum rank over
  // lex-closer nodes of u's own bucket.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set =
      BuildAdsPrunedDijkstra(g, c.k, SketchFlavor::kKPartition, ranks);
  for (NodeId v = 0; v < g.num_nodes(); v += 29) {
    auto dist = ShortestPathDistances(g, v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] == kInfDist) {
        EXPECT_FALSE(set.of(v).Contains(u));
        continue;
      }
      uint32_t bucket = BucketHash(ranks.seed(), u, c.k);
      double closest = 2.0;
      for (NodeId w = 0; w < g.num_nodes(); ++w) {
        if (w == u || dist[w] == kInfDist) continue;
        if (BucketHash(ranks.seed(), w, c.k) != bucket) continue;
        bool w_closer = dist[w] < dist[u] || (dist[w] == dist[u] && w < u);
        if (w_closer) closest = std::min(closest, ranks.rank(w));
      }
      EXPECT_EQ(set.of(v).Contains(u), ranks.rank(u) < closest)
          << "v=" << v << " u=" << u;
    }
  }
}

TEST_P(AdsPropertyTest, SelfLoopsAndParallelArcsAreHarmless) {
  // Adding self loops and duplicated arcs must not change any ADS.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  std::vector<Edge> edges = g.ToEdgeList();
  size_t orig = edges.size();
  for (NodeId v = 0; v < g.num_nodes(); v += 5) {
    edges.push_back(Edge{v, v, 1.0});  // self loop
  }
  for (size_t i = 0; i < orig; i += 7) {
    edges.push_back(edges[i]);  // parallel arc
  }
  Graph noisy(g.num_nodes(), edges, /*undirected=*/false);
  // Rebuild the original as directed arcs too so both are comparable.
  Graph plain(g.num_nodes(), g.ToEdgeList(), /*undirected=*/false);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet a = BuildAdsPrunedDijkstra(plain, c.k, SketchFlavor::kBottomK,
                                    ranks);
  AdsSet b = BuildAdsPrunedDijkstra(noisy, c.k, SketchFlavor::kBottomK,
                                    ranks);
  ASSERT_EQ(a.TotalEntries(), b.TotalEntries());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(a.of(v).size(), b.of(v).size()) << "node " << v;
  }
}

TEST_P(AdsPropertyTest, IsolatedNodesSketchOnlyThemselves) {
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  // Append 3 isolated nodes.
  Graph with_isolated(g.num_nodes() + 3, g.ToEdgeList(),
                      /*undirected=*/false);
  auto ranks = RankAssignment::Uniform(c.seed);
  AdsSet set = BuildAdsPrunedDijkstra(with_isolated, c.k,
                                      SketchFlavor::kBottomK, ranks);
  for (NodeId v = g.num_nodes(); v < with_isolated.num_nodes(); ++v) {
    ASSERT_EQ(set.of(v).size(), 1u);
    EXPECT_EQ(set.of(v).entries()[0].node, v);
  }
}

// True iff n doubles at a and b are the same bits.
bool SameDoubles(const double* a, const double* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST_P(AdsPropertyTest, ResidentHipSurvivesStorageBitwiseForEveryRankKind) {
  // The storage contract of the precomputed HIP section, across random
  // sketches, every flavor (k-mins with its zero filler slots) and every
  // servable rank kind (including the weighted exponential/priority ranks,
  // whose beta must round-trip consistently): PrecomputeHipWeights' arrays
  // equal a fresh per-node scan, and the file keeps only tau, so every
  // reader derives the weights — the copying readers (into a fresh set and
  // into a recycled one), the mmap open, and sharded directories in copy
  // and mmap mode. A copy of the file and one shard are cut to their base
  // images, whose readers compute tau too. Every tau and weight served
  // must be bitwise PrecomputeHipWeights' in-memory one.
  const PropertyCase& c = GetParam();
  Graph g = MakeGraph(c);
  auto beta = [](uint64_t v) { return 0.5 + static_cast<double>(v % 5) * 0.4; };
  struct RankCase {
    const char* name;
    RankAssignment ranks;
  };
  const RankCase rank_cases[] = {
      {"uniform", RankAssignment::Uniform(c.seed)},
      {"base-b", RankAssignment::BaseB(c.seed, 2.0)},
      {"exponential", RankAssignment::Exponential(c.seed, beta)},
      {"priority", RankAssignment::Priority(c.seed, beta)},
  };
  // Read into by every case in turn, so each load lands in the storage of
  // the one before, with stale weights left in it.
  FlatAdsSet recycled;
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    for (const RankCase& rc : rank_cases) {
      const std::string what =
          std::string(rc.name) + " flavor " +
          std::to_string(static_cast<int>(flavor));
      FlatAdsSet set = FlatAdsSet::FromAdsSet(
          BuildAdsPrunedDijkstra(g, c.k, flavor, rc.ranks));
      PrecomputeHipWeights(&set, 2);
      const size_t m = set.TotalEntries();
      ASSERT_EQ(set.hip_weight.size(), m) << what;
      if (flavor == SketchFlavor::kKMins && c.k > 1) {
        // Each owner enters its own sketch once per permutation: k - 1
        // fillers per node at least.
        EXPECT_GE(std::count(set.hip_tau.begin(), set.hip_tau.end(), 0.0),
                  static_cast<std::ptrdiff_t>(set.num_nodes() * (c.k - 1)))
            << what;
      }

      HipScratch scratch;
      std::vector<double> tau, weight;
      for (NodeId v = 0; v < set.num_nodes(); ++v) {
        AdsView ads = set.of(v);
        tau.assign(ads.size(), -1.0);
        weight.assign(ads.size(), -1.0);
        ComputeHipWeightsAligned(ads, c.k, flavor, rc.ranks, &scratch,
                                 tau.data(), weight.data());
        const uint64_t off = set.offsets[v];
        ASSERT_TRUE(SameDoubles(tau.data(), &set.hip_tau[off], ads.size()))
            << what << " v=" << v;
        ASSERT_TRUE(
            SameDoubles(weight.data(), &set.hip_weight[off], ads.size()))
            << what << " v=" << v;
      }

      ScratchDir dir(std::string("hipads_property_test_hip_") + rc.name +
                     "_" + std::to_string(static_cast<int>(flavor)) + "_" +
                     std::to_string(c.seed) + "_" +
                     std::to_string(c.graph_kind));
      std::string path = dir.file("set.ads2");
      std::string shard_dir = dir.file("shards");
      ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
      ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());
      // A copy of the file cut to its base image, as an older build wrote
      // it: its readers compute the weights on load.
      const std::string base = dir.file("base.ads2");
      std::filesystem::copy_file(path, base);
      std::filesystem::resize_file(base,
                                   AdsBinaryFileSize(set.num_nodes(), m));
      // Cut one shard the same way: the mixed directory serves stored
      // weights from two shards and computed ones from the third.
      auto layout = ShardedAdsSet::Open(shard_dir, ShardedOptions{beta});
      ASSERT_TRUE(layout.ok()) << layout.status().ToString();
      const ShardInfo& cut = layout.value().shards()[2];
      std::filesystem::resize_file(
          std::filesystem::path(shard_dir) / cut.file,
          AdsBinaryFileSize(cut.end - cut.begin, cut.num_entries));

      // The whole arrays, from each single-file reader, with and without
      // the stored section.
      for (const std::string& file : {path, base}) {
        const std::string image = what + (file == base ? " base" : " full");
        auto copied = ReadFlatAdsSetFile(file, beta);
        ASSERT_TRUE(copied.ok())
            << image << ": " << copied.status().ToString();
        std::fill(recycled.hip_tau.begin(), recycled.hip_tau.end(), -3.0);
        std::fill(recycled.hip_weight.begin(), recycled.hip_weight.end(),
                  -3.0);
        Status into = ReadFlatAdsSetFileInto(file, beta, &recycled);
        ASSERT_TRUE(into.ok()) << image << ": " << into.ToString();
        auto mapped = MmapAdsSet::Open(file, beta);
        ASSERT_TRUE(mapped.ok())
            << image << ": " << mapped.status().ToString();
        auto arena = mapped.value().Range(0);
        ASSERT_TRUE(arena.ok());
        struct Loaded {
          const char* reader;
          const double* tau;
          const double* weight;
          size_t size;
        };
        for (const Loaded& l :
             {Loaded{"file", copied.value().hip_tau.data(),
                     copied.value().hip_weight.data(),
                     copied.value().hip_weight.size()},
              Loaded{"recycled", recycled.hip_tau.data(),
                     recycled.hip_weight.data(), recycled.hip_weight.size()},
              Loaded{"mmap", arena.value().hip_tau, arena.value().hip_weight,
                     arena.value().num_entries()}}) {
          ASSERT_EQ(l.size, m) << image << " " << l.reader;
          EXPECT_TRUE(SameDoubles(l.tau, set.hip_tau.data(), m))
              << image << " " << l.reader;
          EXPECT_TRUE(SameDoubles(l.weight, set.hip_weight.data(), m))
              << image << " " << l.reader;
        }
      }

      // Node by node, from the mixed sharded set in both modes.
      for (bool use_mmap : {true, false}) {
        ShardedOptions options;
        options.beta = beta;
        options.max_resident = use_mmap ? 2 : 1;
        options.use_mmap = use_mmap;
        auto sharded = ShardedAdsSet::Open(shard_dir, options);
        ASSERT_TRUE(sharded.ok())
            << what << ": " << sharded.status().ToString();
        for (NodeId v = 0; v < set.num_nodes(); ++v) {
          const size_t size = set.of(v).size();
          const uint64_t off = set.offsets[v];
          auto hip = sharded.value().HipOf(v);
          ASSERT_TRUE(hip.ok()) << what << ": " << hip.status().ToString();
          EXPECT_TRUE(SameDoubles(hip.value().tau, &set.hip_tau[off], size))
              << what << " mmap=" << use_mmap << " v=" << v;
          EXPECT_TRUE(
              SameDoubles(hip.value().weight, &set.hip_weight[off], size))
              << what << " mmap=" << use_mmap << " v=" << v;
        }
      }
    }
  }
}

std::string PropertyCaseName(
    const ::testing::TestParamInfo<PropertyCase>& info) {
  static const char* const kKinds[] = {"ER", "BA", "Grid", "Rmat",
                                       "WeightedER"};
  return std::string(kKinds[info.param.graph_kind]) + "_k" +
         std::to_string(info.param.k) + "_s" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdsPropertyTest,
    ::testing::Values(PropertyCase{0, 1, 1}, PropertyCase{0, 4, 2},
                      PropertyCase{1, 2, 3}, PropertyCase{1, 8, 4},
                      PropertyCase{2, 3, 5}, PropertyCase{3, 4, 6},
                      PropertyCase{4, 2, 7}, PropertyCase{4, 6, 8},
                      PropertyCase{0, 16, 9}, PropertyCase{1, 5, 10}),
    PropertyCaseName);

}  // namespace
}  // namespace hipads
