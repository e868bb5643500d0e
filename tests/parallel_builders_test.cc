// Determinism suite for the parallel ADS machinery: the rank-window
// pruned-Dijkstra builder and the round-sharded DP builder must produce
// entry-for-entry (bit-identical) copies of their one-thread entry points
// for every thread count, flavor, seed, and weighted/unweighted graph, at
// pinned work counts; the flat CSR storage, flattened on a pool, must be
// an exact re-packaging of the per-node-vector builder output.

#include "ads/builders.h"

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ads/flat_ads.h"
#include "ads/serialize.h"
#include "graph/generators.h"
#include "util/parallel.h"

namespace hipads {
namespace {

// Exact (bitwise) comparison: the parallel builders replay the sequential
// inclusion decisions, so even the floating-point dist/rank values must
// match to the last bit, not just to a tolerance.
void ExpectIdenticalAdsSet(const AdsSet& a, const AdsSet& b,
                           const std::string& label) {
  ASSERT_EQ(a.ads.size(), b.ads.size()) << label;
  for (NodeId v = 0; v < a.ads.size(); ++v) {
    const auto& ea = a.of(v).entries();
    const auto& eb = b.of(v).entries();
    ASSERT_EQ(ea.size(), eb.size()) << label << " node " << v;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].node, eb[i].node) << label << " node " << v << " #" << i;
      EXPECT_EQ(ea[i].part, eb[i].part) << label << " node " << v << " #" << i;
      EXPECT_EQ(ea[i].rank, eb[i].rank) << label << " node " << v << " #" << i;
      EXPECT_EQ(ea[i].dist, eb[i].dist) << label << " node " << v << " #" << i;
    }
  }
}

std::vector<SketchFlavor> AllFlavors() {
  return {SketchFlavor::kBottomK, SketchFlavor::kKMins,
          SketchFlavor::kKPartition};
}

const char* FlavorName(SketchFlavor flavor) {
  switch (flavor) {
    case SketchFlavor::kBottomK:
      return "bottom-k";
    case SketchFlavor::kKMins:
      return "k-mins";
    case SketchFlavor::kKPartition:
      return "k-partition";
  }
  return "?";
}

struct TestGraph {
  std::string name;
  Graph g;
};

std::vector<TestGraph> TestGraphs() {
  std::vector<TestGraph> graphs;
  graphs.push_back({"er-unweighted",
                    ErdosRenyi(120, 480, /*undirected=*/true, 7)});
  graphs.push_back(
      {"er-weighted", RandomizeWeights(
                          ErdosRenyi(120, 480, /*undirected=*/true, 7),
                          0.5, 2.0, 3)});
  graphs.push_back({"ba", BarabasiAlbert(150, 3, 11)});
  graphs.push_back({"grid", Grid2D(9, 9)});
  graphs.push_back({"er-directed-weighted",
                    RandomizeWeights(
                        ErdosRenyi(100, 500, /*undirected=*/false, 13),
                        0.1, 5.0, 17)});
  return graphs;
}

TEST(ParallelPrunedDijkstraTest, BitIdenticalAcrossThreadCounts) {
  for (const TestGraph& tg : TestGraphs()) {
    for (SketchFlavor flavor : AllFlavors()) {
      for (uint64_t seed : {1ULL, 42ULL}) {
        auto ranks = RankAssignment::Uniform(seed);
        AdsSet reference =
            BuildAdsPrunedDijkstra(tg.g, 4, flavor, ranks);
        for (uint32_t threads : {1u, 2u, 8u}) {
          AdsSet parallel = BuildAdsPrunedDijkstraParallel(
              tg.g, 4, flavor, ranks, threads);
          ExpectIdenticalAdsSet(
              reference, parallel,
              tg.name + " " + FlavorName(flavor) + " seed " +
                  std::to_string(seed) + " threads " +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST(ParallelPrunedDijkstraTest, BitIdenticalWithBaseBRanks) {
  Graph g = RandomizeWeights(ErdosRenyi(100, 400, true, 5), 0.5, 2.0, 9);
  auto ranks = RankAssignment::BaseB(3, 2.0);
  AdsSet reference =
      BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK, ranks);
  for (uint32_t threads : {2u, 8u}) {
    AdsSet parallel = BuildAdsPrunedDijkstraParallel(
        g, 4, SketchFlavor::kBottomK, ranks, threads);
    ExpectIdenticalAdsSet(reference, parallel,
                          "base-b threads " + std::to_string(threads));
  }
}

TEST(ParallelPrunedDijkstraTest, InsertionCountMatchesSequential) {
  // The frozen-state searches explore more (relaxations grow) but accept
  // exactly the sequential entries.
  Graph g = RandomizeWeights(ErdosRenyi(150, 600, true, 21), 0.5, 2.0, 2);
  auto ranks = RankAssignment::Uniform(4);
  AdsBuildStats seq_stats, par_stats;
  AdsSet reference = BuildAdsPrunedDijkstra(g, 8, SketchFlavor::kBottomK,
                                            ranks, &seq_stats);
  AdsSet parallel = BuildAdsPrunedDijkstraParallel(
      g, 8, SketchFlavor::kBottomK, ranks, 4, &par_stats);
  ExpectIdenticalAdsSet(reference, parallel, "stats run");
  EXPECT_EQ(seq_stats.insertions, par_stats.insertions);
  EXPECT_EQ(seq_stats.insertions, reference.TotalEntries());
  EXPECT_GE(par_stats.relaxations, seq_stats.relaxations);
  EXPECT_GT(par_stats.rounds, 0u);
}

// A hub that every source reaches: a star's center joined to an R-MAT
// graph, so in every window the center takes candidates from every task,
// and its per-task runs interleave. Base-2 ranks tie in long runs, which
// windows never split and the replay orders by (distance, node id).
TEST(ParallelPrunedDijkstraTest, HubTargetIsBitIdenticalAtEveryThreadCount) {
  const Graph rmat = Rmat(10, 4, 7, /*undirected=*/true);
  std::vector<Edge> edges = rmat.ToEdgeList();
  const std::vector<Edge> star = Star(rmat.num_nodes()).ToEdgeList();
  edges.insert(edges.end(), star.begin(), star.end());
  const Graph hub(rmat.num_nodes(), edges, /*undirected=*/false);
  const auto ranks = RankAssignment::BaseB(11, 2.0);
  for (SketchFlavor flavor : AllFlavors()) {
    const uint32_t k = flavor == SketchFlavor::kBottomK ? 16 : 4;
    AdsBuildStats one_stats;
    const AdsSet one_thread =
        BuildAdsPrunedDijkstraParallel(hub, k, flavor, ranks, 1, &one_stats);
    for (uint32_t threads : {2u, 3u, 4u, 8u}) {
      const std::string label = std::string(FlavorName(flavor)) +
                                " threads " + std::to_string(threads);
      AdsBuildStats stats;
      const AdsSet parallel = BuildAdsPrunedDijkstraParallel(
          hub, k, flavor, ranks, threads, &stats);
      ExpectIdenticalAdsSet(one_thread, parallel, label);
      EXPECT_EQ(stats.insertions, one_stats.insertions) << label;
      EXPECT_GT(stats.candidates, 0u) << label;
    }
  }
}

// The work a build does, pinned: a faster search kernel may change how
// long a build takes, never how many arcs it relaxes, entries it inserts
// or windows it runs. Unit weights take the BFS, real weights Dijkstra;
// bottom-k runs one pass and k-mins k of them. The 4-thread rows follow
// the window rule (a window holds a quarter as many sources as all before
// it): a rule with smaller windows relaxes fewer arcs in more rounds, and
// the replay keeps every insertion count.
TEST(ParallelPrunedDijkstraTest, WorkCountersArePinned) {
  const Graph unit = Rmat(10, 8, 5, /*undirected=*/true);
  const Graph weighted = RandomizeWeights(
      Rmat(10, 8, 5, /*undirected=*/false), 0.5, 2.0, 9);
  ASSERT_TRUE(unit.IsUnitWeight());
  ASSERT_FALSE(weighted.IsUnitWeight());
  struct Pinned {
    const Graph* g;
    SketchFlavor flavor;
    uint32_t k;
    uint32_t threads;
    // relaxations, insertions, deletions, rounds, candidates
    AdsBuildStats stats;
  };
  const SketchFlavor kBottomK = SketchFlavor::kBottomK;
  const SketchFlavor kKMins = SketchFlavor::kKMins;
  const Pinned pinned[] = {
      {&unit, kBottomK, 16, 1, {1122864, 55741, 0, 1024, 0}},
      {&unit, kBottomK, 16, 4, {1245148, 55741, 0, 17, 61745}},
      {&unit, kKMins, 4, 1, {471169, 24346, 0, 4096, 0}},
      {&unit, kKMins, 4, 4, {617972, 24346, 0, 92, 31240}},
      {&weighted, kBottomK, 16, 1, {551957, 48266, 0, 1024, 0}},
      {&weighted, kBottomK, 16, 4, {611332, 48266, 0, 17, 53475}},
      {&weighted, kKMins, 4, 1, {242253, 22316, 0, 4096, 0}},
      {&weighted, kKMins, 4, 4, {305109, 22316, 0, 92, 27898}},
  };
  for (const Pinned& p : pinned) {
    const std::string label = std::string(p.g == &unit ? "unit " : "weighted ") +
                              FlavorName(p.flavor) + " threads " +
                              std::to_string(p.threads);
    AdsBuildStats stats;
    AdsSet set = BuildAdsPrunedDijkstraParallel(
        *p.g, p.k, p.flavor, RankAssignment::Uniform(3), p.threads, &stats);
    EXPECT_EQ(stats.relaxations, p.stats.relaxations) << label;
    EXPECT_EQ(stats.insertions, p.stats.insertions) << label;
    EXPECT_EQ(stats.deletions, 0u) << label;
    EXPECT_EQ(stats.rounds, p.stats.rounds) << label;
    EXPECT_EQ(stats.candidates, p.stats.candidates) << label;
    EXPECT_EQ(set.TotalEntries(), p.stats.insertions) << label;
  }
}

// A unit-weight graph is searched by pruned BFS, the same topology with
// every arc weight 2.0 by pruned Dijkstra. Both must keep the same entries
// (distances doubled, exactly) after the same work, at every thread count.
// R-MAT's hubs give targets candidates from every task of a window.
TEST(ParallelPrunedDijkstraTest, UnitWeightBfsMatchesDijkstraOnTheSameTopology) {
  const Graph unit = Rmat(10, 8, 5, /*undirected=*/true);
  ASSERT_TRUE(unit.IsUnitWeight());
  std::vector<Edge> edges = unit.ToEdgeList();
  for (Edge& e : edges) e.weight = 2.0;
  const Graph doubled(unit.num_nodes(), edges, /*undirected=*/false);
  ASSERT_EQ(doubled.num_arcs(), unit.num_arcs());

  for (SketchFlavor flavor : AllFlavors()) {
    const uint32_t k = flavor == SketchFlavor::kBottomK ? 16 : 4;
    for (bool base2 : {false, true}) {
      auto ranks = base2 ? RankAssignment::BaseB(3, 2.0)
                         : RankAssignment::Uniform(3);
      AdsSet one_thread;
      for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        const std::string label = std::string(FlavorName(flavor)) +
                                  (base2 ? " base-2" : " uniform") +
                                  " threads " + std::to_string(threads);
        AdsBuildStats bfs_stats, dijkstra_stats;
        AdsSet bfs = BuildAdsPrunedDijkstraParallel(unit, k, flavor, ranks,
                                                    threads, &bfs_stats);
        AdsSet dijkstra = BuildAdsPrunedDijkstraParallel(
            doubled, k, flavor, ranks, threads, &dijkstra_stats);
        ASSERT_EQ(bfs.ads.size(), dijkstra.ads.size()) << label;
        for (NodeId v = 0; v < bfs.ads.size(); ++v) {
          const auto& eb = bfs.of(v).entries();
          const auto& ed = dijkstra.of(v).entries();
          ASSERT_EQ(eb.size(), ed.size()) << label << " node " << v;
          for (size_t i = 0; i < eb.size(); ++i) {
            EXPECT_EQ(eb[i].node, ed[i].node) << label << " node " << v;
            EXPECT_EQ(eb[i].part, ed[i].part) << label << " node " << v;
            EXPECT_EQ(eb[i].rank, ed[i].rank) << label << " node " << v;
            EXPECT_EQ(2.0 * eb[i].dist, ed[i].dist) << label << " node " << v;
          }
        }
        EXPECT_EQ(bfs_stats.relaxations, dijkstra_stats.relaxations) << label;
        EXPECT_EQ(bfs_stats.insertions, dijkstra_stats.insertions) << label;
        EXPECT_EQ(bfs_stats.rounds, dijkstra_stats.rounds) << label;
        if (threads == 1) {
          one_thread = std::move(bfs);
        } else {
          ExpectIdenticalAdsSet(one_thread, bfs, label);
        }
      }
    }
  }
}

TEST(ParallelLocalUpdatesTest, BitIdenticalAcrossThreadCounts) {
  for (const TestGraph& tg : TestGraphs()) {
    for (SketchFlavor flavor : AllFlavors()) {
      auto ranks = RankAssignment::Uniform(42);
      AdsSet reference = BuildAdsLocalUpdates(tg.g, 4, flavor, ranks);
      for (uint32_t threads : {1u, 2u, 8u}) {
        AdsSet parallel = BuildAdsLocalUpdatesParallel(
            tg.g, 4, flavor, ranks, /*epsilon=*/0.0, threads);
        ExpectIdenticalAdsSet(reference, parallel,
                              tg.name + " " + FlavorName(flavor) +
                                  " threads " + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelLocalUpdatesTest, BitIdenticalInApproximateMode) {
  // The (1+epsilon) slack changes which updates are accepted, not the
  // determinism: the parallel rounds must replay the sequential decisions
  // for any epsilon.
  Graph g = RandomizeWeights(ErdosRenyi(100, 400, true, 31), 0.5, 2.0, 7);
  auto ranks = RankAssignment::Uniform(8);
  for (double epsilon : {0.0, 0.25, 1.0}) {
    AdsSet reference =
        BuildAdsLocalUpdates(g, 4, SketchFlavor::kBottomK, ranks, epsilon);
    for (uint32_t threads : {2u, 8u}) {
      AdsSet parallel = BuildAdsLocalUpdatesParallel(
          g, 4, SketchFlavor::kBottomK, ranks, epsilon, threads);
      ExpectIdenticalAdsSet(reference, parallel,
                            "epsilon " + std::to_string(epsilon) +
                                " threads " + std::to_string(threads));
    }
  }
}

TEST(ParallelLocalUpdatesTest, WorkCountersMatchSequentialExactly) {
  // Chunked rounds replay the sequential per-target decisions exactly, so
  // even the churn counters (not just the output) must agree.
  Graph g = RandomizeWeights(ErdosRenyi(120, 480, true, 3), 0.5, 2.0, 11);
  auto ranks = RankAssignment::Uniform(9);
  AdsBuildStats seq_stats, par_stats;
  AdsSet reference = BuildAdsLocalUpdates(g, 8, SketchFlavor::kBottomK,
                                          ranks, 0.0, &seq_stats);
  AdsSet parallel = BuildAdsLocalUpdatesParallel(
      g, 8, SketchFlavor::kBottomK, ranks, 0.0, 4, &par_stats);
  ExpectIdenticalAdsSet(reference, parallel, "local-updates stats run");
  EXPECT_EQ(seq_stats.insertions, par_stats.insertions);
  EXPECT_EQ(seq_stats.deletions, par_stats.deletions);
  EXPECT_EQ(seq_stats.relaxations, par_stats.relaxations);
  EXPECT_EQ(seq_stats.rounds, par_stats.rounds);
}

TEST(ParallelDpTest, BitIdenticalAcrossThreadCounts) {
  for (const TestGraph& tg : TestGraphs()) {
    if (!tg.g.IsUnitWeight()) continue;
    for (SketchFlavor flavor : AllFlavors()) {
      for (uint64_t seed : {1ULL, 42ULL}) {
        auto ranks = RankAssignment::Uniform(seed);
        AdsSet reference = BuildAdsDp(tg.g, 4, flavor, ranks);
        for (uint32_t threads : {1u, 2u, 8u}) {
          AdsSet parallel =
              BuildAdsDpParallel(tg.g, 4, flavor, ranks, threads);
          ExpectIdenticalAdsSet(
              reference, parallel,
              tg.name + " " + FlavorName(flavor) + " seed " +
                  std::to_string(seed) + " threads " +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST(FlatAdsSetTest, RoundTripsThroughFlatStorage) {
  Graph g = ErdosRenyi(80, 320, true, 3);
  auto ranks = RankAssignment::Uniform(1);
  AdsSet set = BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kBottomK, ranks);
  FlatAdsSet flat = FlatAdsSet::FromAdsSet(set);

  ASSERT_EQ(flat.num_nodes(), set.num_nodes());
  EXPECT_EQ(flat.TotalEntries(), set.TotalEntries());
  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    auto view = flat.of(v);
    const auto& entries = set.of(v).entries();
    ASSERT_EQ(view.size(), entries.size()) << "node " << v;
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(view.entries()[i].node, entries[i].node);
      EXPECT_EQ(view.entries()[i].dist, entries[i].dist);
      EXPECT_EQ(view.entries()[i].rank, entries[i].rank);
    }
  }
}

TEST(FlatAdsSetTest, SerializationMatchesAndParsesFlat) {
  Graph g = ErdosRenyi(60, 240, true, 9);
  auto ranks = RankAssignment::Uniform(5);
  FlatAdsSet flat = FlatAdsSet::FromAdsSet(
      BuildAdsPrunedDijkstra(g, 4, SketchFlavor::kKPartition, ranks));

  std::string text = SerializeAdsSet(flat);

  auto parsed = ParseFlatAdsSet(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const FlatAdsSet& loaded = parsed.value();
  ASSERT_EQ(loaded.num_nodes(), flat.num_nodes());
  EXPECT_EQ(loaded.TotalEntries(), flat.TotalEntries());
  EXPECT_EQ(loaded.k, flat.k);
  EXPECT_EQ(SerializeAdsSet(loaded), text);
}

// What FromAdsSet must equal: the nodes appended one by one, in order.
FlatAdsSet SerialFlatten(const AdsSet& set) {
  FlatAdsSet flat;
  flat.flavor = set.flavor;
  flat.k = set.k;
  flat.ranks = set.ranks;
  for (const Ads& ads : set.ads) flat.AppendNode(ads.entries());
  return flat;
}

// An Ads of `size` synthetic entries at distinct distances.
Ads SyntheticAds(uint32_t size, uint32_t salt) {
  std::vector<AdsEntry> entries;
  for (uint32_t i = 0; i < size; ++i) {
    entries.push_back(AdsEntry{(i * 7 + salt) % 100003, 0,
                               ((i * 61 + salt) % 1009) / 1009.0,
                               static_cast<double>(i)});
  }
  return Ads(std::move(entries));
}

// FromAdsSet copies ranges of nodes on a pool sized to the entries. It
// must equal the serial flatten with no nodes, one node, and fewer nodes
// than pool threads: three nodes of ~940 KiB each get a pool of
// min(11, HardwareThreads()) threads, more than three on a host with four
// CPUs or more.
TEST(FlatAdsSetTest, PooledFlattenEqualsSerialFlatten) {
  std::vector<AdsSet> sets(4);
  sets[1].ads.push_back(SyntheticAds(5, 1));
  for (uint32_t v = 0; v < 3; ++v) {
    sets[2].ads.push_back(SyntheticAds(40000, v));
  }
  sets[3] = BuildAdsPrunedDijkstra(ErdosRenyi(300, 1200, true, 3), 8,
                                   SketchFlavor::kBottomK,
                                   RankAssignment::Uniform(2));
  for (size_t i = 0; i < sets.size(); ++i) {
    const FlatAdsSet pooled = FlatAdsSet::FromAdsSet(sets[i]);
    const FlatAdsSet serial = SerialFlatten(sets[i]);
    ASSERT_EQ(pooled.num_nodes(), sets[i].num_nodes()) << "set " << i;
    EXPECT_EQ(pooled.k, serial.k) << "set " << i;
    EXPECT_TRUE(pooled.offsets == serial.offsets) << "set " << i;
    ASSERT_EQ(pooled.TotalEntries(), serial.TotalEntries()) << "set " << i;
    if (!serial.entries.empty()) {  // memcmp takes no null pointer
      EXPECT_EQ(std::memcmp(pooled.entries.data(), serial.entries.data(),
                            serial.entries.size() * sizeof(AdsEntry)),
                0)
          << "set " << i;
    }
    EXPECT_FALSE(pooled.has_hip()) << "set " << i;
  }
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.RunTasks(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, ParallelForCoversRangeWithoutOverlap) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(hits.size(), [&](size_t begin, size_t end, uint32_t) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelRangesRespectsBounds) {
  ThreadPool pool(2);
  std::vector<size_t> bounds = {0, 10, 10, 25};
  std::vector<int> visited(25, 0);
  std::vector<uint32_t> range_of(25, ~0u);
  pool.ParallelRanges(bounds, [&](size_t begin, size_t end, uint32_t t) {
    for (size_t i = begin; i < end; ++i) {
      ++visited[i];
      range_of[i] = t;
    }
  });
  for (size_t i = 0; i < visited.size(); ++i) {
    EXPECT_EQ(visited[i], 1);
    EXPECT_EQ(range_of[i], i < 10 ? 0u : 2u);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int counter = 0;
  pool.RunTasks(17, [&](size_t) { ++counter; });
  EXPECT_EQ(counter, 17);
}

// Wire and command-line thread counts are bounded by the hardware count
// before any pool sees them; 0 keeps meaning "the hardware count". No pool
// is created here, so the extreme values start no thread.
TEST(ThreadPoolTest, ClampThreadsBoundsRequestsToTheHardwareCount) {
  const uint32_t hw = HardwareThreads();
  EXPECT_EQ(ClampThreads(0), 0u);
  EXPECT_EQ(ClampThreads(1), 1u);
  EXPECT_EQ(ClampThreads(uint64_t{hw} + 1), hw);
  EXPECT_EQ(ClampThreads(UINT64_MAX), hw);
}

// The mask's width bounded by the cgroup CPU quota, if one is set.
uint32_t QuotaBounded(const cpu_set_t& mask) {
  const uint32_t cpus = static_cast<uint32_t>(CPU_COUNT(&mask));
  const uint32_t quota = CgroupCpuLimit();
  return quota != 0 ? std::min(cpus, quota) : cpus;
}

// HardwareThreads() is the size of the calling thread's affinity mask, so
// a process pinned with `taskset` or a cpuset sizes its pools to the CPUs
// it may use. Pins this thread to one CPU of its mask, then restores it.
TEST(ThreadPoolTest, HardwareThreadsFollowsTheAffinityMask) {
  cpu_set_t saved;
  if (sched_getaffinity(0, sizeof(saved), &saved) != 0) {
    GTEST_SKIP() << "the affinity mask cannot be read";
  }
  EXPECT_EQ(HardwareThreads(), QuotaBounded(saved));
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
  const uint32_t clamped = ClampThreads(8);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned, 1u);
  EXPECT_EQ(clamped, 1u);
  EXPECT_EQ(HardwareThreads(), QuotaBounded(saved));
}

// A CPU quota bounds every default pool: quota / period CPUs, rounded up.
// These read strings only; no cgroup is created, changed or read.
TEST(CgroupQuotaTest, QuotasRoundUpToWholeCpus) {
  EXPECT_EQ(CpusFromQuota(200000, 100000), 2u);
  EXPECT_EQ(CpusFromQuota(150000, 100000), 2u);
  EXPECT_EQ(CpusFromQuota(1000, 100000), 1u);
  EXPECT_EQ(CpusFromQuota(100000, 100000), 1u);
  EXPECT_EQ(CpusFromQuota(100001, 100000), 2u);
  EXPECT_EQ(CpusFromQuota(-1, 100000), 0u);
  EXPECT_EQ(CpusFromQuota(0, 100000), 0u);
  EXPECT_EQ(CpusFromQuota(100000, 0), 0u);
  EXPECT_EQ(CpusFromQuota(INT64_MAX, 1), UINT32_MAX);

  EXPECT_EQ(ParseCgroupV2CpuMax("200000 100000\n"), 2u);
  EXPECT_EQ(ParseCgroupV2CpuMax("250000 100000"), 3u);
  EXPECT_EQ(ParseCgroupV2CpuMax("max 100000\n"), 0u);
  EXPECT_EQ(ParseCgroupV2CpuMax(""), 0u);
  EXPECT_EQ(ParseCgroupV2CpuMax("200000\n"), 0u);
  EXPECT_EQ(ParseCgroupV2CpuMax("2e5 100000"), 0u);
  EXPECT_EQ(ParseCgroupV2CpuMax("200000 100000 7"), 0u);

  EXPECT_EQ(ParseCgroupV1CpuQuota("-1\n", "100000\n"), 0u);
  EXPECT_EQ(ParseCgroupV1CpuQuota("200000\n", "100000\n"), 2u);
  EXPECT_EQ(ParseCgroupV1CpuQuota("50000", "100000"), 1u);
  EXPECT_EQ(ParseCgroupV1CpuQuota("", "100000"), 0u);
  EXPECT_EQ(ParseCgroupV1CpuQuota("200000", "junk"), 0u);
}

std::vector<std::string> Paths(const std::vector<CgroupCpuDir>& dirs,
                               bool v2) {
  std::vector<std::string> paths;
  for (const CgroupCpuDir& dir : dirs) {
    if (dir.v2 == v2) paths.push_back(dir.path);
  }
  return paths;
}

// The quota is read at every level from the process's own cgroup up to
// the mount point of its hierarchy: cgroup v2, and the v1 hierarchy that
// carries the cpu controller (alone or joined with cpuacct).
TEST(CgroupQuotaTest, DirectoriesRunFromTheOwnCgroupToTheMountPoint) {
  const std::string cgroup =
      "12:cpu,cpuacct:/jobs/a7\n"
      "4:memory:/jobs/a7\n"
      "1:name=systemd:/\n"
      "0::/user.slice/app.scope\n";
  const std::string mountinfo =
      "24 1 0:22 / /sys/fs/cgroup rw - cgroup2 cgroup2 rw,nsdelegate\n"
      "33 32 0:29 / /sys/fs/cgroup/cpu,cpuacct rw,relatime shared:9 - cgroup "
      "cgroup rw,cpu,cpuacct\n"
      "36 32 0:32 / /sys/fs/cgroup/memory rw,relatime - cgroup cgroup "
      "rw,memory\n"
      "41 32 0:37 / /sys/fs/cgroup/systemd rw - cgroup cgroup "
      "rw,name=systemd\n";
  const std::vector<CgroupCpuDir> dirs = CgroupCpuDirs(cgroup, mountinfo);
  EXPECT_EQ(Paths(dirs, true),
            (std::vector<std::string>{"/sys/fs/cgroup/user.slice/app.scope",
                                      "/sys/fs/cgroup/user.slice",
                                      "/sys/fs/cgroup"}));
  EXPECT_EQ(Paths(dirs, false),
            (std::vector<std::string>{"/sys/fs/cgroup/cpu,cpuacct/jobs/a7",
                                      "/sys/fs/cgroup/cpu,cpuacct/jobs",
                                      "/sys/fs/cgroup/cpu,cpuacct"}));

  // A mount of a subtree maps the path below its root; a cgroup namespace
  // shows the process at "/", its mount point.
  EXPECT_EQ(Paths(CgroupCpuDirs("0::/jobs/a7/task\n",
                                "50 1 0:40 /jobs /cg rw - cgroup2 none rw\n"),
                  true),
            (std::vector<std::string>{"/cg/a7/task", "/cg/a7", "/cg"}));
  EXPECT_EQ(Paths(CgroupCpuDirs("0::/\n",
                                "50 1 0:40 / /sys/fs/cgroup rw - cgroup2 "
                                "cgroup2 rw\n"),
                  true),
            (std::vector<std::string>{"/sys/fs/cgroup"}));
  EXPECT_EQ(Paths(CgroupCpuDirs("0::/other\n",
                                "50 1 0:40 /jobs /cg rw - cgroup2 none rw\n"),
                  true),
            (std::vector<std::string>{"/cg"}));

  // No cpu hierarchy, a cpuacct-only one or malformed lines: nothing to
  // read, so no quota.
  EXPECT_TRUE(CgroupCpuDirs("3:cpuacct:/a\n",
                            "34 32 0:30 / /c rw - cgroup cgroup rw,cpuacct\n")
                  .empty());
  EXPECT_TRUE(CgroupCpuDirs("", "").empty());
  EXPECT_TRUE(CgroupCpuDirs("garbage\n0::\n", "1 2 3\n- - -\n").empty());
  // A path that is empty or not absolute names no directory to walk up.
  const std::string mount = "50 1 0:40 / /cg rw - cgroup2 none rw\n";
  EXPECT_TRUE(CgroupCpuDirs("0::\n", mount).empty());
  EXPECT_TRUE(CgroupCpuDirs("0::jobs/a7\n", mount).empty());
}

}  // namespace
}  // namespace hipads
