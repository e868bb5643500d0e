// The fused sweep-execution engine (ads/sweep.h). The serving contract:
// a SweepPlan with K collectors produces results bitwise identical to
// running the K statistics as standalone queries — on every storage
// engine (in-memory arena, zero-copy mmap, sharded with and without
// prefetch at every lookahead depth) and for every thread count — while
// costing exactly ONE backend pass (observable through the sharded
// backend's shard-load counter). Plus the failure contract (a truncated
// shard fails the whole plan) and a plain-loop reference for the executor.

#include "ads/sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ads/builders.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "ads/shard.h"
#include "graph/generators.h"
#include "serve/protocol.h"

namespace hipads {
namespace {

FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  return FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(graph_seed + 1)));
}

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

double AlphaFn(double d) { return 1.0 / (1.0 + d); }
double BetaFn(NodeId v) { return v % 2 == 0 ? 1.0 : 0.5; }

// The acceptance plan: six distinct statistics (and within the histogram
// collector, four derived ones) fused into one pass.
struct SixStatPlan {
  SweepPlan plan;
  DistanceHistogramCollector* hist;
  ClosenessCollector* closeness;
  DistanceSumCollector* distsum;
  HarmonicCentralityCollector* harmonic;
  NeighborhoodSizeCollector* nsize;
  ReachableCountCollector* reach;
  TopKCollector* top;

  SixStatPlan() {
    hist = plan.Emplace<DistanceHistogramCollector>();
    closeness = plan.Emplace<ClosenessCollector>(AlphaFn, BetaFn);
    distsum = plan.Emplace<DistanceSumCollector>();
    harmonic = plan.Emplace<HarmonicCentralityCollector>();
    nsize = plan.Emplace<NeighborhoodSizeCollector>(2.0);
    reach = plan.Emplace<ReachableCountCollector>();
    top = plan.Emplace<TopKCollector>(5, [](const HipEstimator& est) {
      return est.HarmonicCentrality();
    });
  }

  // Bitwise comparison of every collected statistic against the
  // standalone whole-graph queries on the reference arena.
  void ExpectMatchesStandalone(const FlatAdsSet& flat) const {
    FlatAdsBackend ref(&flat);
    EXPECT_EQ(hist->Distribution(),
              EstimateDistanceDistribution(ref, 1).value());
    EXPECT_EQ(hist->NeighborhoodFunction(),
              EstimateNeighborhoodFunction(ref, 1).value());
    EXPECT_EQ(hist->EffectiveDiameter(),
              EstimateEffectiveDiameter(ref).value());
    EXPECT_EQ(hist->MeanDistance(), EstimateMeanDistance(ref).value());
    EXPECT_EQ(closeness->values(),
              EstimateClosenessAll(ref, AlphaFn, BetaFn, 1).value());
    EXPECT_EQ(distsum->values(), EstimateDistanceSumAll(ref, 1).value());
    EXPECT_EQ(harmonic->values(),
              EstimateHarmonicCentralityAll(ref, 1).value());
    EXPECT_EQ(nsize->values(),
              EstimateNeighborhoodSizeAll(ref, 2.0, 1).value());
    EXPECT_EQ(reach->values(), EstimateReachableCountAll(ref, 1).value());
    EXPECT_EQ(top->TopNodes(),
              TopKNodes(EstimateHarmonicCentralityAll(ref, 1).value(), 5));
  }
};

TEST(SweepTest, FusedPlanMatchesStandaloneOnSingleArenas) {
  FlatAdsSet flat = BuildFlat(180, 3, 8);
  for (uint32_t threads : {1u, 2u, 4u}) {
    SixStatPlan fused;
    RunSweep(flat, fused.plan, threads);
    fused.ExpectMatchesStandalone(flat);
  }
}

// The acceptance matrix: the fused plan over every backend engine at
// several thread counts, bitwise identical to the standalone queries.
TEST(SweepTest, FusedPlanBitwiseIdenticalAcrossBackends) {
  FlatAdsSet set = BuildFlat(230, 7, 8);
  ScratchDir dir("hipads_sweep_test_matrix");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 5).ok());

  for (uint32_t threads : {1u, 2u, 4u}) {
    {
      FlatAdsBackend flat(&set);
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(flat, fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(set);
    }
    {
      auto mapped = MmapAdsSet::Open(file_path);
      ASSERT_TRUE(mapped.ok());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(mapped.value(), fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(set);
    }
    for (bool use_mmap : {false, true}) {
      for (uint32_t depth : {0u, 1u, 2u, 3u}) {  // 0 = prefetch off
        ShardedOptions options;
        options.max_resident = 1;
        options.prefetch = depth > 0;
        options.prefetch_depth = depth == 0 ? 1 : depth;
        options.use_mmap = use_mmap;
        auto sharded = ShardedAdsSet::Open(shard_dir, options);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        SixStatPlan fused;
        ASSERT_TRUE(RunSweep(sharded.value(), fused.plan, threads).ok())
            << "mmap=" << use_mmap << " depth=" << depth;
        fused.ExpectMatchesStandalone(set);
        EXPECT_LE(sharded.value().NumResident(), 1u);
      }
    }
  }
}

// Storage-resident HIP weights feed the same fused plan: every engine
// serving the precomputed section, at every thread count, stays bitwise
// identical to the standalone scan-path queries on the hip-less reference.
TEST(SweepTest, FusedPlanBitwiseIdenticalWithResidentHipWeights) {
  FlatAdsSet reference = BuildFlat(230, 7, 8);  // same set as the matrix test
  FlatAdsSet with_hip = BuildFlat(230, 7, 8);
  PrecomputeHipWeights(&with_hip, 2);
  ScratchDir dir("hipads_sweep_test_hip");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(
      WriteAdsSetFile(with_hip, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(with_hip, shard_dir, 5).ok());

  for (uint32_t threads : {1u, 2u, 4u}) {
    {
      FlatAdsBackend flat(&with_hip);
      ASSERT_TRUE(flat.HipResident());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(flat, fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(reference);
    }
    {
      auto mapped = MmapAdsSet::Open(file_path);
      ASSERT_TRUE(mapped.ok());
      ASSERT_TRUE(mapped.value().HipResident());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(mapped.value(), fused.plan, threads).ok());
      fused.ExpectMatchesStandalone(reference);
    }
    for (bool use_mmap : {false, true}) {
      ShardedOptions options;
      options.max_resident = 1;
      options.use_mmap = use_mmap;
      auto sharded = ShardedAdsSet::Open(shard_dir, options);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      ASSERT_TRUE(sharded.value().HipResident());
      SixStatPlan fused;
      ASSERT_TRUE(RunSweep(sharded.value(), fused.plan, threads).ok())
          << "mmap=" << use_mmap;
      fused.ExpectMatchesStandalone(reference);
    }
  }
}

// The fusion guarantee the engine exists for: K statistics over a sharded
// backend cost exactly ONE shard sweep — each shard file is loaded once —
// where the standalone queries cost K sweeps.
TEST(SweepTest, SixStatisticPlanSweepsShardsExactlyOnce) {
  FlatAdsSet set = BuildFlat(200, 11, 8);
  ScratchDir dir("hipads_sweep_test_loads");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 5).ok());

  for (bool prefetch : {false, true}) {
    ShardedOptions options;
    options.max_resident = 1;
    options.prefetch = prefetch;
    options.prefetch_depth = 2;
    auto opened = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(opened.ok());
    const ShardedAdsSet& sharded = opened.value();
    ASSERT_EQ(sharded.num_shards(), 5u);
    EXPECT_EQ(sharded.NumShardLoads(), 0u);  // open loads nothing

    SixStatPlan fused;
    ASSERT_TRUE(RunSweep(sharded, fused.plan, 1).ok());
    EXPECT_EQ(sharded.NumShardLoads(), 5u) << "prefetch=" << prefetch;
    fused.ExpectMatchesStandalone(set);
  }

  // The same six statistics as standalone queries: six full sweeps, six
  // loads of every shard (max_resident=1 keeps nothing across sweeps).
  {
    auto opened = ShardedAdsSet::Open(shard_dir, ShardedOptions{});
    ASSERT_TRUE(opened.ok());
    const ShardedAdsSet& sharded = opened.value();
    ASSERT_TRUE(EstimateDistanceDistribution(sharded, 1).ok());
    ASSERT_TRUE(EstimateClosenessAll(sharded, AlphaFn, BetaFn, 1).ok());
    ASSERT_TRUE(EstimateDistanceSumAll(sharded, 1).ok());
    ASSERT_TRUE(EstimateHarmonicCentralityAll(sharded, 1).ok());
    ASSERT_TRUE(EstimateNeighborhoodSizeAll(sharded, 2.0, 1).ok());
    ASSERT_TRUE(EstimateReachableCountAll(sharded, 1).ok());
    EXPECT_EQ(sharded.NumShardLoads(), 30u);  // 6 statistics x 5 shards
  }
}

TEST(SweepTest, EmptyPlanTouchesNoShards) {
  FlatAdsSet set = BuildFlat(120, 13, 4);
  ScratchDir dir("hipads_sweep_test_empty");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());
  auto opened = ShardedAdsSet::Open(shard_dir, ShardedOptions{});
  ASSERT_TRUE(opened.ok());
  SweepPlan plan;
  ASSERT_TRUE(RunSweep(opened.value(), plan, 1).ok());
  EXPECT_EQ(opened.value().NumShardLoads(), 0u);
}

// Error propagation: a shard truncated mid-plan fails the whole sweep
// with Corruption — no partial results are reported as success.
TEST(SweepTest, TruncatedShardFailsThePlan) {
  FlatAdsSet set = BuildFlat(160, 17, 4);
  ScratchDir dir("hipads_sweep_test_truncated");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 4).ok());
  std::string victim =
      (std::filesystem::path(shard_dir) / "shard-00002.ads2").string();
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(victim, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(victim, size - 24, ec);
  ASSERT_FALSE(ec);

  for (bool use_mmap : {false, true}) {
    for (bool prefetch : {false, true}) {
      ShardedOptions options;
      options.use_mmap = use_mmap;
      options.prefetch = prefetch;
      options.prefetch_depth = 2;
      auto opened = ShardedAdsSet::Open(shard_dir, options);
      ASSERT_TRUE(opened.ok());
      SixStatPlan fused;
      Status swept = RunSweep(opened.value(), fused.plan, 1);
      ASSERT_FALSE(swept.ok())
          << "mmap=" << use_mmap << " prefetch=" << prefetch;
      EXPECT_EQ(swept.code(), Status::Code::kCorruption);
      // Shards 0 and 1 were swept before the failure; the error must
      // still surface from the plan as a whole.
    }
  }
}

// tsan target: deep prefetch pipelines (lookahead 2 and 3) overlap
// multiple background loads with consumer sweeps; repeated runs must stay
// deterministic, race-free, and bitwise equal to non-prefetching serving.
TEST(SweepTest, DeepPrefetchSweepsAreDeterministic) {
  FlatAdsSet set = BuildFlat(210, 19, 8);
  ScratchDir dir("hipads_sweep_test_depth");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 6).ok());

  std::vector<double> reference =
      EstimateHarmonicCentralityAll(FlatAdsBackend(&set), 1).value();
  for (bool use_mmap : {false, true}) {
    for (uint32_t depth : {2u, 3u}) {
      ShardedOptions options;
      options.max_resident = 2;
      options.prefetch = true;
      options.prefetch_depth = depth;
      options.use_mmap = use_mmap;
      auto opened = ShardedAdsSet::Open(shard_dir, options);
      ASSERT_TRUE(opened.ok());
      const ShardedAdsSet& sharded = opened.value();
      for (int round = 0; round < 3; ++round) {
        auto scores = EstimateHarmonicCentralityAll(sharded, 2);
        ASSERT_TRUE(scores.ok());
        EXPECT_EQ(scores.value(), reference)
            << "depth=" << depth << " round=" << round;
        // Point lookups fault shards in out of sweep order between runs.
        for (NodeId v : {0u, 209u, 100u}) {
          ASSERT_TRUE(sharded.ViewOf(v).ok());
        }
        EXPECT_LE(sharded.NumResident(), 2u);
      }
    }
  }
}

// The executor against a plain-loop reference. The cross-engine tests
// compare backends that all run the one executor; this checks the
// executor itself. Every per-node collector must equal the scanning
// HipEstimator evaluated node by node, and the distance histogram must
// equal an exact per-distance fold of every node's HIP entries — over
// FlatAdsBackend with and without precomputed HIP weights, and with and
// without the histogram in the plan.
TEST(SweepTest, QuantileAndQgCollectorsMatchPerNodeEstimators) {
  FlatAdsSet scanned = BuildFlat(150, 31, 8);
  FlatAdsSet resident = scanned;
  PrecomputeHipWeights(&resident, 2);
  auto g = [](NodeId, double d) { return std::pow(0.5, d); };
  for (const FlatAdsSet* set : {&scanned, &resident}) {
    for (bool with_histogram : {false, true}) {
      SweepPlan plan;
      auto* median = plan.Emplace<DistanceQuantileCollector>(0.5);
      auto* q90 = plan.Emplace<DistanceQuantileCollector>(0.9);
      auto* qg = plan.Emplace<QgCollector>(g);
      auto* closeness = plan.Emplace<ClosenessCollector>(AlphaFn, BetaFn);
      auto* distsum = plan.Emplace<DistanceSumCollector>();
      auto* harmonic = plan.Emplace<HarmonicCentralityCollector>();
      auto* nsize = plan.Emplace<NeighborhoodSizeCollector>(2.0);
      auto* reach = plan.Emplace<ReachableCountCollector>();
      DistanceHistogramCollector hist;
      if (with_histogram) plan.Add(&hist);
      ASSERT_TRUE(RunSweep(FlatAdsBackend(set), plan, 2).ok());

      std::map<double, ExactSum> folded;
      for (NodeId v = 0; v < set->num_nodes(); ++v) {
        HipEstimator est(set->of(v), set->k, set->flavor, set->ranks);
        EXPECT_EQ(median->values()[v], est.DistanceQuantile(0.5)) << v;
        EXPECT_EQ(q90->values()[v], est.DistanceQuantile(0.9)) << v;
        EXPECT_EQ(qg->values()[v], est.Qg(g)) << v;
        EXPECT_EQ(closeness->values()[v], est.Closeness(AlphaFn, BetaFn))
            << v;
        EXPECT_EQ(distsum->values()[v], est.DistanceSum()) << v;
        EXPECT_EQ(harmonic->values()[v], est.HarmonicCentrality()) << v;
        EXPECT_EQ(nsize->values()[v], est.NeighborhoodCardinality(2.0)) << v;
        EXPECT_EQ(reach->values()[v], est.ReachableCount()) << v;
        est.ForEachEntry([&folded](const HipEntry& e) {
          if (e.dist > 0.0) folded[e.dist].Add(e.weight);
        });
      }
      if (with_histogram) {
        std::map<double, double> expected;
        for (const auto& [d, sum] : folded) expected[d] = sum.Round();
        EXPECT_FALSE(expected.empty());
        EXPECT_EQ(hist.Distribution(), expected);
      }
    }
  }
}

// The distributed partial-state seam at the collector level: sweeping a
// node-range split separately, encoding each range's partial and absorbing
// them in node order reproduces the single-process sweep bitwise —
// including the histogram fold, whose partial is the O(distinct distances)
// exact per-distance superaccumulator state merged without rounding.
TEST(SweepTest, EncodedPartialsReplayToTheSingleProcessResultBitwise) {
  FlatAdsSet set = BuildFlat(170, 37, 8);
  size_t n = set.num_nodes();

  SweepPlan full_plan;
  auto* full_hist = full_plan.Emplace<DistanceHistogramCollector>();
  auto* full_harmonic = full_plan.Emplace<HarmonicCentralityCollector>();
  RunSweep(set, full_plan, 1);

  for (std::vector<NodeId> splits :
       {std::vector<NodeId>{0, 85, 170}, {0, 40, 90, 170}}) {
    DistanceHistogramCollector merged_hist;
    HarmonicCentralityCollector merged_harmonic;
    merged_hist.Begin(n);
    merged_harmonic.Begin(n);
    for (size_t r = 0; r + 1 < splits.size(); ++r) {
      // One "range server": a standalone sweep over the slice.
      FlatAdsSet slice;
      slice.flavor = set.flavor;
      slice.k = set.k;
      slice.ranks = set.ranks;
      for (NodeId v = splits[r]; v < splits[r + 1]; ++v) {
        auto entries = set.of(v).entries();
        slice.AppendNode(
            std::vector<AdsEntry>(entries.begin(), entries.end()));
      }
      SweepPlan range_plan;
      auto* hist = range_plan.Emplace<DistanceHistogramCollector>();
      auto* harmonic = range_plan.Emplace<HarmonicCentralityCollector>();
      RunSweep(slice, range_plan, 2);

      NodeId slice_nodes = splits[r + 1] - splits[r];
      std::string hist_partial, harmonic_partial;
      ASSERT_TRUE(hist->EncodePartial(0, slice_nodes, &hist_partial).ok());
      ASSERT_TRUE(
          harmonic->EncodePartial(0, slice_nodes, &harmonic_partial).ok());
      ASSERT_TRUE(
          merged_hist.AbsorbPartial(splits[r], splits[r + 1], hist_partial)
              .ok());
      ASSERT_TRUE(merged_harmonic
                      .AbsorbPartial(splits[r], splits[r + 1],
                                     harmonic_partial)
                      .ok());
    }
    EXPECT_EQ(merged_hist.Distribution(), full_hist->Distribution());
    EXPECT_EQ(merged_harmonic.values(), full_harmonic->values());
  }

  // The superaccumulator partial is compact: its size is bounded by the
  // number of distinct distances, not by the number of HIP entries folded.
  std::string full_partial;
  ASSERT_TRUE(
      full_hist->EncodePartial(0, static_cast<NodeId>(n), &full_partial).ok());
  size_t distinct = full_hist->Distribution().size();
  EXPECT_LE(full_partial.size(),
            sizeof(uint64_t) + distinct * (sizeof(double) + 8 + 70 * 4));

  // The bound holds however many slots folded the sweep: the partial
  // merges them first, into the same bytes.
  SweepPlan wide_plan;
  auto* wide_hist = wide_plan.Emplace<DistanceHistogramCollector>();
  RunSweep(set, wide_plan, 8);
  std::string wide_partial;
  ASSERT_TRUE(
      wide_hist->EncodePartial(0, static_cast<NodeId>(n), &wide_partial).ok());
  EXPECT_LE(wide_partial.size(),
            sizeof(uint64_t) + distinct * (sizeof(double) + 8 + 70 * 4));
  EXPECT_EQ(wide_partial, full_partial);

  // A per-node slice outside the collected range must be rejected.
  std::string ignored;
  EXPECT_FALSE(full_harmonic
                   ->EncodePartial(0, static_cast<NodeId>(n + 1), &ignored)
                   .ok());

  // Malformed histogram partials fail cleanly and leave the collector's
  // state untouched (the bytes arrive from the network).
  DistanceHistogramCollector absorber;
  absorber.Begin(n);
  ASSERT_TRUE(
      absorber.AbsorbPartial(0, static_cast<NodeId>(n), full_partial).ok());
  auto before = absorber.Distribution();
  std::string truncated = full_partial.substr(0, full_partial.size() - 3);
  EXPECT_FALSE(
      absorber.AbsorbPartial(0, static_cast<NodeId>(n), truncated).ok());
  std::string trailing = full_partial + "xx";
  EXPECT_FALSE(
      absorber.AbsorbPartial(0, static_cast<NodeId>(n), trailing).ok());
  EXPECT_EQ(absorber.Distribution(), before);
}

// The histogram's worst case for per-slot folding: a real-weighted graph
// where nearly every HIP entry sits at its own distance, so every sweep
// slot grows its own large map. The merged result — Distribution() and
// the partial's bytes — must not depend on the thread count or engine.
TEST(SweepTest, WeightedHistogramIsIdenticalAtEveryThreadCount) {
  Graph g = RandomizeWeights(ErdosRenyi(600, 2400, true, 9), 0.5, 2.0, 4);
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 16, SketchFlavor::kBottomK, RankAssignment::Uniform(3)));
  // 43,459 entries at 35,379 distinct positive distances.
  std::set<double> distances;
  for (const AdsEntry& e : set.entries) {
    if (e.dist > 0.0) distances.insert(e.dist);
  }
  EXPECT_GT(distances.size(), set.TotalEntries() * 3 / 4);

  ScratchDir dir("hipads_sweep_test_weighted");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 5).ok());
  auto mapped = MmapAdsSet::Open(file_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ShardedOptions options;
  options.max_resident = 1;
  options.prefetch = true;
  auto sharded = ShardedAdsSet::Open(shard_dir, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  FlatAdsBackend flat(&set);

  auto sweep = [](const AdsBackend& backend, uint32_t threads,
                  std::map<double, double>* distribution,
                  std::string* partial) {
    DistanceHistogramCollector hist;
    SweepPlan plan;
    plan.Add(&hist);
    ASSERT_TRUE(RunSweep(backend, plan, threads).ok());
    *distribution = hist.Distribution();
    ASSERT_TRUE(hist.EncodePartial(0, 0, partial).ok());
  };
  std::map<double, double> expected;
  std::string expected_partial;
  sweep(flat, 1, &expected, &expected_partial);
  EXPECT_EQ(expected.size(), distances.size());
  const std::vector<std::pair<const char*, const AdsBackend*>> backends = {
      {"flat", &flat},
      {"mmap", &mapped.value()},
      {"sharded", &sharded.value()}};
  for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const auto& [name, backend] : backends) {
      std::map<double, double> distribution;
      std::string partial;
      sweep(*backend, threads, &distribution, &partial);
      EXPECT_EQ(distribution, expected) << name << " threads=" << threads;
      EXPECT_EQ(partial, expected_partial) << name << " threads=" << threads;
    }
  }
}

// A collector that declares nothing and forwards to another, as a tracing
// wrapper does: the executor must run the inner collector through Map.
class ForwardingCollector : public SweepCollector {
 public:
  explicit ForwardingCollector(SweepCollector* inner) : inner_(inner) {}
  void Begin(size_t num_nodes) override { inner_->Begin(num_nodes); }
  void Map(NodeId v, const HipEstimator& est) override { inner_->Map(v, est); }

 private:
  SweepCollector* inner_;
};

// The per-statistic walks the executor ran before it fused them: each
// statistic's own loop over a node's HIP entries, with its own g. Every
// declared sum must reproduce these bit for bit.
struct StandaloneWalks {
  static double Reachable(const std::vector<HipEntry>& es) {
    double sum = 0.0;
    for (const HipEntry& e : es) sum += e.weight;
    return sum;
  }
  static double Neighborhood(const std::vector<HipEntry>& es, double d) {
    double sum = 0.0;
    for (const HipEntry& e : es) {
      if (e.dist > d) break;
      sum += e.weight;
    }
    return sum;
  }
  template <typename G>
  static double Qg(const std::vector<HipEntry>& es, G g) {
    double sum = 0.0;
    for (const HipEntry& e : es) sum += e.weight * g(e.node, e.dist);
    return sum;
  }
};

// The fusion matrix: every declared sum (the neighbourhood at D = 0, 1.5,
// +inf and NaN, every wire score kind plain and as a top-k score, both
// wire g's), the histogram fold, a Map-only quantile and two wrapped
// collectors in ONE plan, on every flavour (k-mins with its tau = 0
// filler slots), on unit and real weights, over flat, mmap and 8-shard
// backends with and without stored HIP weights, at 1, 2 and 4 threads.
// Every value equals its standalone walk bit for bit.
TEST(SweepTest, FusedSumsMatchTheirStandaloneWalksBitwise) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> bounds = {0.0, 1.5, kInf, kNan};
  auto harmonic_g = [](NodeId, double d) { return d > 0.0 ? 1.0 / d : 0.0; };
  auto distance_g = [](NodeId, double d) { return d; };
  auto exp_g = [](NodeId, double d) { return std::pow(0.5, d); };
  auto invsq_g = [](NodeId, double d) {
    return 1.0 / ((1.0 + d) * (1.0 + d));
  };
  const std::vector<CollectorSpec> spec = {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kHarmonic, 0, 0, 0.0},
      {CollectorKind::kDistanceSum, 0, 0, 0.0},
      {CollectorKind::kReachableCount, 0, 0, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kHarmonic), 7,
       0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kDistanceSum),
       7, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kReachable), 7,
       0.0},
      {CollectorKind::kQg, static_cast<uint32_t>(QgKind::kExpDecay), 0, 0.5},
      {CollectorKind::kQg, static_cast<uint32_t>(QgKind::kInverseSquare), 0,
       0.5},
      {CollectorKind::kDistanceQuantile, 0, 0, 0.5},
  };

  const Graph unit = ErdosRenyi(160, 480, true, 41);
  const Graph weighted = RandomizeWeights(unit, 0.5, 2.0, 43);
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    for (const Graph* g : {&unit, &weighted}) {
      const FlatAdsSet scanned = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
          *g, 4, flavor, RankAssignment::Uniform(45)));
      const FlatAdsSet stored = [&scanned] {
        FlatAdsSet with_hip = scanned;
        PrecomputeHipWeights(&with_hip, 2);
        return with_hip;
      }();
      const size_t n = scanned.num_nodes();

      // The standalone walks, node by node, over a scanning estimator.
      std::vector<std::vector<double>> within(bounds.size(),
                                              std::vector<double>(n));
      std::vector<double> reach(n), harmonic(n), distsum(n), exp_decay(n),
          invsq(n), quantile(n);
      std::map<double, ExactSum> folded;
      for (NodeId v = 0; v < n; ++v) {
        HipEstimator est(scanned.of(v), scanned.k, flavor, scanned.ranks);
        const std::vector<HipEntry> es = est.CopyEntries();
        for (size_t b = 0; b < bounds.size(); ++b) {
          within[b][v] = StandaloneWalks::Neighborhood(es, bounds[b]);
        }
        reach[v] = StandaloneWalks::Reachable(es);
        harmonic[v] = StandaloneWalks::Qg(es, harmonic_g);
        distsum[v] = StandaloneWalks::Qg(es, distance_g);
        exp_decay[v] = StandaloneWalks::Qg(es, exp_g);
        invsq[v] = StandaloneWalks::Qg(es, invsq_g);
        quantile[v] = est.DistanceQuantile(0.5);
        for (const HipEntry& e : es) {
          if (e.dist > 0.0) folded[e.dist].Add(e.weight);
        }
      }
      std::map<double, double> distribution;
      for (const auto& [d, sum] : folded) distribution[d] = sum.Round();

      for (const FlatAdsSet* set : {&scanned, &stored}) {
        ScratchDir dir("hipads_sweep_test_fusion");
        ASSERT_TRUE(
            WriteAdsSetFile(*set, dir.file("set.ads2"), AdsFileFormat::kBinaryV2)
                .ok());
        ASSERT_TRUE(WriteShardedAdsSet(*set, dir.file("shards"), 8).ok());
        auto mapped = MmapAdsSet::Open(dir.file("set.ads2"));
        ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
        ShardedOptions options;
        options.max_resident = 1;
        options.prefetch = true;
        auto sharded = ShardedAdsSet::Open(dir.file("shards"), options);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        ASSERT_EQ(sharded.value().num_shards(), 8u);
        FlatAdsBackend flat(set);
        const std::vector<std::pair<const char*, const AdsBackend*>> backends =
            {{"flat", &flat},
             {"mmap", &mapped.value()},
             {"sharded", &sharded.value()}};
        for (const auto& [name, backend] : backends) {
          for (uint32_t threads : {1u, 2u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << "flavor=" << static_cast<int>(flavor)
                         << " weighted=" << (g == &weighted)
                         << " hip=" << set->has_hip() << " " << name
                         << " threads=" << threads);
            SweepPlan plan;
            auto built = BuildPlanFromSpec(spec, &plan);
            ASSERT_TRUE(built.ok()) << built.status().ToString();
            const auto& c = built.value();
            std::vector<NeighborhoodSizeCollector*> nsize;
            for (double d : bounds) {
              nsize.push_back(plan.Emplace<NeighborhoodSizeCollector>(d));
            }
            // Wrapped: a declared sum and the histogram, both through Map.
            NeighborhoodSizeCollector wrapped_nsize(1.5);
            DistanceHistogramCollector wrapped_hist;
            ForwardingCollector wrap_nsize(&wrapped_nsize);
            ForwardingCollector wrap_hist(&wrapped_hist);
            plan.Add(&wrap_nsize).Add(&wrap_hist);
            ASSERT_TRUE(RunSweep(*backend, plan, threads).ok());

            auto values = [&c](size_t i) {
              return static_cast<PerNodeCollector*>(c[i])->values();
            };
            auto top = [&c](size_t i) {
              return static_cast<TopKCollector*>(c[i])->TopNodes();
            };
            EXPECT_EQ(
                static_cast<DistanceHistogramCollector*>(c[0])->Distribution(),
                distribution);
            EXPECT_EQ(values(1), harmonic);
            EXPECT_EQ(values(2), distsum);
            EXPECT_EQ(values(3), reach);
            EXPECT_EQ(values(4), harmonic);
            EXPECT_EQ(top(4), TopKNodes(harmonic, 7));
            EXPECT_EQ(values(5), distsum);
            EXPECT_EQ(top(5), TopKNodes(distsum, 7));
            EXPECT_EQ(values(6), reach);
            EXPECT_EQ(top(6), TopKNodes(reach, 7));
            EXPECT_EQ(values(7), exp_decay);
            EXPECT_EQ(values(8), invsq);
            EXPECT_EQ(values(9), quantile);
            for (size_t b = 0; b < bounds.size(); ++b) {
              EXPECT_EQ(nsize[b]->values(), within[b]) << "D=" << bounds[b];
            }
            EXPECT_EQ(wrapped_nsize.values(), within[1]);
            EXPECT_EQ(wrapped_hist.Distribution(), distribution);
          }
        }
      }
    }
  }
}

// Borrowed collectors (Add) and owned collectors (Emplace) behave
// identically; a collector reused across sweeps resets in Begin.
TEST(SweepTest, CollectorsResetBetweenSweeps) {
  FlatAdsSet set = BuildFlat(100, 29, 4);
  DistanceHistogramCollector hist;
  HarmonicCentralityCollector harmonic;
  SweepPlan plan;
  plan.Add(&hist).Add(&harmonic);
  RunSweep(set, plan, 1);
  auto first_hist = hist.Distribution();
  auto first_harmonic = harmonic.values();
  RunSweep(set, plan, 2);  // rerun: Begin must clear, not accumulate
  EXPECT_EQ(hist.Distribution(), first_hist);
  EXPECT_EQ(harmonic.values(), first_harmonic);
}

}  // namespace
}  // namespace hipads
