// ShardedAdsSet: sharded write/open round-trips, lazy loading with bounded
// residency, and — the serving contract — whole-graph estimator sweeps that
// match the unsharded FlatAdsSet results bitwise.

#include "ads/shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "graph/generators.h"
#include "util/metrics.h"

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
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string path;
};

TEST(ShardTest, BalancedSplitsTileTheNodeRange) {
  FlatAdsSet set = BuildFlat(200, 5, 8);
  for (uint32_t shards : {1u, 3u, 7u, 200u, 500u}) {
    auto begins = BalancedShardSplits(set, shards);
    ASSERT_FALSE(begins.empty());
    EXPECT_EQ(begins.front(), 0u);
    EXPECT_LE(begins.size(), std::min<size_t>(shards, set.num_nodes()));
    for (size_t i = 1; i < begins.size(); ++i) {
      EXPECT_GT(begins[i], begins[i - 1]);
      EXPECT_LT(begins[i], set.num_nodes());
    }
  }
}

TEST(ShardTest, RoundTripPointLookupsBitIdentical) {
  FlatAdsSet set = BuildFlat(150, 9, 8);
  ScratchDir dir("hipads_shard_test_roundtrip");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 4).ok());

  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedAdsSet& sharded = opened.value();
  EXPECT_EQ(sharded.num_nodes(), set.num_nodes());
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.TotalEntries(), set.TotalEntries());
  EXPECT_EQ(sharded.k(), set.k);
  EXPECT_EQ(sharded.flavor(), set.flavor);
  EXPECT_EQ(sharded.ranks().seed(), set.ranks.seed());

  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    auto view = sharded.ViewOf(v);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto expect = set.of(v).entries();
    auto got = view.value().entries();
    ASSERT_EQ(expect.size(), got.size()) << "node " << v;
    EXPECT_EQ(std::memcmp(expect.data(), got.data(),
                          expect.size() * sizeof(AdsEntry)),
              0)
        << "node " << v;
  }
}

TEST(ShardTest, LazyLoadingBoundsResidentShards) {
  FlatAdsSet set = BuildFlat(120, 13, 4);
  ScratchDir dir("hipads_shard_test_lazy");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 6).ok());
  auto opened =
      ShardedAdsSet::Open(dir.path, ShardedOptions{.max_resident = 2});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedAdsSet& sharded = opened.value();
  EXPECT_EQ(sharded.NumResident(), 0u);  // nothing loaded at open
  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    ASSERT_TRUE(sharded.ViewOf(v).ok());
    EXPECT_LE(sharded.NumResident(), 2u);
  }
  EXPECT_EQ(sharded.NumResident(), 2u);
}

TEST(ShardTest, SweepsMatchUnshardedBitwise) {
  FlatAdsSet set = BuildFlat(180, 21, 8);
  ScratchDir dir("hipads_shard_test_sweeps");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 5).ok());
  // max_resident = 1: every sweep must still match with only one shard
  // arena in memory at a time.
  auto opened =
      ShardedAdsSet::Open(dir.path, ShardedOptions{.max_resident = 1});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedAdsSet& sharded = opened.value();
  FlatAdsBackend flat(&set);

  auto harmonic = EstimateHarmonicCentralityAll(sharded, 1);
  ASSERT_TRUE(harmonic.ok());
  EXPECT_EQ(harmonic.value(), EstimateHarmonicCentralityAll(flat, 1).value());

  auto distsum = EstimateDistanceSumAll(sharded, 1);
  ASSERT_TRUE(distsum.ok());
  EXPECT_EQ(distsum.value(), EstimateDistanceSumAll(flat, 1).value());

  auto reach = EstimateReachableCountAll(sharded, 1);
  ASSERT_TRUE(reach.ok());
  EXPECT_EQ(reach.value(), EstimateReachableCountAll(flat, 1).value());

  auto nsize = EstimateNeighborhoodSizeAll(sharded, 2.0, 1);
  ASSERT_TRUE(nsize.ok());
  EXPECT_EQ(nsize.value(), EstimateNeighborhoodSizeAll(flat, 2.0, 1).value());

  auto dd = EstimateDistanceDistribution(sharded, 1);
  ASSERT_TRUE(dd.ok());
  EXPECT_EQ(dd.value(), EstimateDistanceDistribution(flat, 1).value());

  auto nf = EstimateNeighborhoodFunction(sharded, 1);
  ASSERT_TRUE(nf.ok());
  EXPECT_EQ(nf.value(), EstimateNeighborhoodFunction(flat, 1).value());

  auto eff = EstimateEffectiveDiameter(sharded);
  ASSERT_TRUE(eff.ok());
  EXPECT_EQ(eff.value(), EstimateEffectiveDiameter(flat).value());

  auto mean = EstimateMeanDistance(sharded);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean.value(), EstimateMeanDistance(flat).value());
}

TEST(ShardTest, SweepsThreadCountIndependent) {
  FlatAdsSet set = BuildFlat(100, 33, 4);
  ScratchDir dir("hipads_shard_test_threads");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 3).ok());
  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  auto one = EstimateDistanceDistribution(opened.value(), 1);
  auto four = EstimateDistanceDistribution(opened.value(), 4);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(one.value(), four.value());
}

TEST(ShardTest, SingleShardEqualsWholeSet) {
  FlatAdsSet set = BuildFlat(60, 41, 4);
  ScratchDir dir("hipads_shard_test_single");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 1).ok());
  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  auto range = opened.value().Range(0);
  ASSERT_TRUE(range.ok());
  const AdsArenaView& arena = range.value();
  EXPECT_EQ(arena.begin, 0u);
  EXPECT_EQ(arena.end, set.num_nodes());
  ASSERT_EQ(arena.num_entries(), set.entries.size());
  EXPECT_EQ(std::memcmp(arena.offsets, set.offsets.data(),
                        set.offsets.size() * sizeof(uint64_t)),
            0);
  EXPECT_EQ(std::memcmp(arena.entries, set.entries.data(),
                        set.entries.size() * sizeof(AdsEntry)),
            0);
}

TEST(ShardTest, MissingShardFileFailsCleanly) {
  FlatAdsSet set = BuildFlat(80, 43, 4);
  ScratchDir dir("hipads_shard_test_missing");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 4).ok());
  std::filesystem::remove(std::filesystem::path(dir.path) /
                          "shard-00002.ads2");
  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok());  // manifest opens; the hole surfaces lazily
  auto result = EstimateHarmonicCentralityAll(opened.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

TEST(ShardTest, CorruptShardFileFailsCleanly) {
  FlatAdsSet set = BuildFlat(80, 47, 4);
  ScratchDir dir("hipads_shard_test_corrupt");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 2).ok());
  std::string shard_path =
      (std::filesystem::path(dir.path) / "shard-00001.ads2").string();
  // Flip one payload byte in place.
  std::fstream f(shard_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekp(-3, std::ios::end);
  char c;
  f.seekg(f.tellp());
  f.get(c);
  f.seekp(-3, std::ios::end);
  f.put(static_cast<char>(c ^ 0x10));
  f.close();

  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  auto result = EstimateHarmonicCentralityAll(opened.value());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(ShardTest, ShardInconsistentWithManifestRejected) {
  FlatAdsSet set = BuildFlat(80, 53, 4);
  ScratchDir dir("hipads_shard_test_mismatch");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 2).ok());
  // Replace shard 1 with a structurally valid file of different params.
  FlatAdsSet other = BuildFlat(10, 59, 2);
  ASSERT_TRUE(WriteAdsSetFile(
                  other,
                  (std::filesystem::path(dir.path) / "shard-00001.ads2")
                      .string(),
                  AdsFileFormat::kBinaryV2)
                  .ok());
  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  auto result = opened.value().Range(1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

// Shard files are written straight from spans of the parent arena with
// only the offsets rebased. The bytes must equal serializing a copied
// slice of the set — the arena, HIP weights and all.
TEST(ShardTest, ShardFilesEqualSerializedSlices) {
  FlatAdsSet set = BuildFlat(90, 67, 4);
  PrecomputeHipWeights(&set, 1);
  ScratchDir dir("hipads_shard_test_slices");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 3).ok());
  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const ShardInfo& info : opened.value().shards()) {
    FlatAdsSet slice;
    slice.flavor = set.flavor;
    slice.k = set.k;
    slice.ranks = set.ranks;
    const uint64_t first = set.offsets[info.begin];
    const uint64_t last = set.offsets[info.end];
    for (NodeId v = info.begin + 1; v <= info.end; ++v) {
      slice.offsets.push_back(set.offsets[v] - first);  // after the 0
    }
    slice.entries.assign(set.entries.begin() + first,
                         set.entries.begin() + last);
    slice.hip_tau.assign(set.hip_tau.begin() + first,
                         set.hip_tau.begin() + last);
    slice.hip_weight.assign(set.hip_weight.begin() + first,
                            set.hip_weight.begin() + last);
    std::ifstream f(std::filesystem::path(dir.path) / info.file,
                    std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes, SerializeAdsSetBinary(slice)) << info.file;
  }
}

std::string FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

std::string ShardName(size_t s) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%05zu.ads2", s);
  return name;
}

// The shard files are written concurrently. Each must hold exactly the
// bytes a one-range write of the same nodes produces, at every shard count
// (17 is more shards than pool threads), with and without HIP weights.
TEST(ShardTest, ConcurrentShardWritesEqualRangeWrites) {
  FlatAdsSet plain = BuildFlat(120, 71, 4);
  FlatAdsSet with_hip = plain;
  PrecomputeHipWeights(&with_hip, 1);
  for (const FlatAdsSet* set : {&plain, &with_hip}) {
    for (uint32_t shards : {1u, 3u, 8u, 17u}) {
      const std::string label = std::string(set->has_hip() ? "hip " : "") +
                                std::to_string(shards) + " shards";
      ScratchDir dir("hipads_shard_test_concurrent");
      ScratchDir ranges("hipads_shard_test_ranges");
      ASSERT_TRUE(WriteShardedAdsSet(*set, dir.path, shards).ok()) << label;
      std::filesystem::create_directories(ranges.path);
      const std::vector<NodeId> begins = BalancedShardSplits(*set, shards);
      ASSERT_EQ(begins.size(), shards) << label;
      for (size_t s = 0; s < begins.size(); ++s) {
        const NodeId end = s + 1 < begins.size()
                               ? begins[s + 1]
                               : static_cast<NodeId>(set->num_nodes());
        const std::string path = ranges.path + "/" + ShardName(s);
        ASSERT_TRUE(WriteAdsSetRangeFile(*set, begins[s], end, path).ok());
        const std::string written = FileBytes(dir.path + "/" + ShardName(s));
        EXPECT_FALSE(written.empty()) << label << " " << ShardName(s);
        EXPECT_EQ(written, FileBytes(path)) << label << " " << ShardName(s);
      }
      EXPECT_FALSE(std::filesystem::exists(
          std::filesystem::path(dir.path) / ShardName(begins.size())))
          << label;
      EXPECT_TRUE(ShardedAdsSet::Open(dir.path).ok()) << label;
    }
  }
}

// A directory standing where a shard file goes fails that shard's write.
// With two shards blocked, the call reports the first in shard order,
// whichever thread failed first, and writes no manifest.
TEST(ShardTest, BlockedShardPathFailsWithoutManifest) {
  FlatAdsSet set = BuildFlat(120, 73, 4);
  ScratchDir dir("hipads_shard_test_blocked");
  const std::filesystem::path root(dir.path);
  std::filesystem::create_directories(root / ShardName(5));
  std::filesystem::create_directories(root / ShardName(2));
  Status s = WriteShardedAdsSet(set, dir.path, 8);
  EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
  EXPECT_NE(s.message().find(ShardName(2)), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(root / kShardManifestName));
  EXPECT_FALSE(IsShardedAdsPath(dir.path));
}

// The manifest marks a shard directory complete, so a manifest write that
// fails only when close flushes it (here: MANIFEST is a link to a full
// device) must fail the whole write instead of reporting Ok.
TEST(ShardTest, ManifestWriteErrorAtCloseIsReported) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  FlatAdsSet set = BuildFlat(40, 61, 4);
  ScratchDir dir("hipads_shard_test_full_manifest");
  std::filesystem::create_directories(dir.path);
  std::filesystem::create_symlink(
      "/dev/full", std::filesystem::path(dir.path) / kShardManifestName);
  Status s = WriteShardedAdsSet(set, dir.path, 2);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
}

// The reload path a max_resident = 1 sweep takes once warm: every shard
// load after the first reads into the storage an eviction freed, except
// that with prefetch the first shard the worker stages while another is
// resident needs a fresh arena too (unless the consumer loaded every
// shard inline before the worker got to it). These pin its counter and
// check that recycled storage changes no result, no failure and no HIP
// presence.

// A sharded set at max_resident = 1, with or without the prefetch thread.
ShardedAdsSet OpenOneResident(const std::string& dir, bool prefetch) {
  ShardedOptions options;
  options.max_resident = 1;
  options.prefetch = prefetch;
  auto opened = ShardedAdsSet::Open(dir, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

uint64_t ReusedLoadsCounter() {
  return MetricsRegistry::Get().Counter("ads.shard.loads_reused")->value();
}

TEST(ShardTest, ReloadsReuseEvictedStorage) {
  FlatAdsSet set = BuildFlat(240, 71, 4);
  PrecomputeHipWeights(&set, 2);
  ScratchDir dir("hipads_shard_test_reuse");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 8).ok());
  std::vector<double> expected =
      EstimateHarmonicCentralityAll(FlatAdsBackend(&set), 1).value();
  for (bool prefetch : {false, true}) {
    ShardedAdsSet sharded = OpenOneResident(dir.path, prefetch);
    ASSERT_EQ(sharded.num_shards(), 8u);
    const uint64_t counter_before = ReusedLoadsCounter();
    for (int sweep = 0; sweep < 3; ++sweep) {
      auto scores = EstimateHarmonicCentralityAll(sharded, 2);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      EXPECT_EQ(scores.value(), expected) << "sweep " << sweep;
      EXPECT_LE(sharded.NumResident(), 1u);
    }
    const uint64_t reused = sharded.NumLoadsReused();
    EXPECT_EQ(sharded.NumShardLoads(), 24u) << "prefetch=" << prefetch;
    EXPECT_LE(reused, 23u) << "prefetch=" << prefetch;
    EXPECT_GE(reused, prefetch ? 22u : 23u) << "prefetch=" << prefetch;
    EXPECT_EQ(ReusedLoadsCounter() - counter_before, reused);
  }
  // mmap arenas are mapped, not read: no storage to recycle.
  ShardedOptions options;
  options.max_resident = 1;
  options.use_mmap = true;
  auto mapped = ShardedAdsSet::Open(dir.path, options);
  ASSERT_TRUE(mapped.ok());
  for (int sweep = 0; sweep < 2; ++sweep) {
    EXPECT_EQ(EstimateHarmonicCentralityAll(mapped.value(), 2).value(),
              expected);
  }
  EXPECT_EQ(mapped.value().NumLoadsReused(), 0u);
}

// A shard damaged in place (same size, one entry byte flipped) between two
// sweeps of one open set: the load into recycled storage runs the full
// validation and fails exactly as a fresh open does; once the byte is
// restored, the next sweep succeeds again.
TEST(ShardTest, ShardCorruptedBetweenSweepsFailsLikeAFreshOpen) {
  FlatAdsSet set = BuildFlat(200, 73, 4);
  ScratchDir dir("hipads_shard_test_reuse_corrupt");
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, 8).ok());
  std::vector<double> expected =
      EstimateHarmonicCentralityAll(FlatAdsBackend(&set), 1).value();

  auto opened = ShardedAdsSet::Open(dir.path);
  ASSERT_TRUE(opened.ok());
  const ShardInfo& victim = opened.value().shards()[5];
  const std::string victim_path =
      (std::filesystem::path(dir.path) / victim.file).string();
  // A byte of the victim's middle entry: past the header and offsets.
  const uint64_t at = kAdsBinaryHeaderBytes +
                      (victim.end - victim.begin + 1) * sizeof(uint64_t) +
                      victim.num_entries / 2 * sizeof(AdsEntry) + 9;
  auto flip = [&] {
    std::fstream f(victim_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(at));
    char c;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(static_cast<char>(c ^ 0x01));
  };
  const uint64_t size = std::filesystem::file_size(victim_path);

  for (bool prefetch : {false, true}) {
    ShardedAdsSet sharded = OpenOneResident(dir.path, prefetch);
    auto first = EstimateHarmonicCentralityAll(sharded, 2);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), expected);

    flip();
    ASSERT_EQ(std::filesystem::file_size(victim_path), size);
    ShardedAdsSet fresh = OpenOneResident(dir.path, prefetch);
    Status fresh_status = EstimateHarmonicCentralityAll(fresh, 2).status();
    ASSERT_EQ(fresh_status.code(), Status::Code::kCorruption);
    // Shards 1..5 reuse storage, 5 failing (one fewer with prefetch).
    EXPECT_LE(fresh.NumLoadsReused(), 5u);
    EXPECT_GE(fresh.NumLoadsReused(), prefetch ? 4u : 5u);
    auto second = EstimateHarmonicCentralityAll(sharded, 2);
    ASSERT_FALSE(second.ok()) << "prefetch=" << prefetch;
    EXPECT_EQ(second.status().ToString(), fresh_status.ToString());
    EXPECT_GT(sharded.NumLoadsReused(), 6u);

    flip();  // restored
    auto third = EstimateHarmonicCentralityAll(sharded, 2);
    ASSERT_TRUE(third.ok()) << third.status().ToString();
    EXPECT_EQ(third.value(), expected);
  }
}

// Shards that mix files with and without the HIP section load into each
// other's storage: a file without the section must come back without
// weights, and every answer must equal the flat set's.
TEST(ShardTest, MixedHipShardsReloadIntoEachOthersStorage) {
  FlatAdsSet plain = BuildFlat(220, 79, 4);
  FlatAdsSet with_hip = plain;
  PrecomputeHipWeights(&with_hip, 2);
  ScratchDir dir("hipads_shard_test_reuse_mixed");
  ScratchDir plain_dir("hipads_shard_test_reuse_mixed_plain");
  ASSERT_TRUE(WriteShardedAdsSet(with_hip, dir.path, 8).ok());
  ASSERT_TRUE(WriteShardedAdsSet(plain, plain_dir.path, 8).ok());
  // Shards 1, 2 and 5 lose their HIP section.
  const std::vector<bool> has_hip = {true, false, false, true,
                                     true, false, true, true};
  for (uint32_t s = 0; s < 8; ++s) {
    if (has_hip[s]) continue;
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%05u.ads2", s);
    std::filesystem::copy_file(
        std::filesystem::path(plain_dir.path) / name,
        std::filesystem::path(dir.path) / name,
        std::filesystem::copy_options::overwrite_existing);
  }

  FlatAdsBackend flat(&with_hip);
  for (bool prefetch : {false, true}) {
    ShardedAdsSet sharded = OpenOneResident(dir.path, prefetch);
    EXPECT_FALSE(sharded.HipResident());
    for (int sweep = 0; sweep < 2; ++sweep) {
      SCOPED_TRACE(testing::Message() << "prefetch=" << prefetch
                                      << " sweep=" << sweep);
      EXPECT_EQ(EstimateHarmonicCentralityAll(sharded, 2).value(),
                EstimateHarmonicCentralityAll(flat, 1).value());
      EXPECT_EQ(EstimateDistanceDistribution(sharded, 2).value(),
                EstimateDistanceDistribution(flat, 1).value());
      // Point reads walk the shards in order, loading each into the
      // storage of the one before it.
      for (NodeId v = 0; v < with_hip.num_nodes(); ++v) {
        auto hip = sharded.HipOf(v);
        ASSERT_TRUE(hip.ok());
        ASSERT_EQ(hip.value().present(), has_hip[sharded.ShardOf(v)])
            << "node " << v;
        if (!hip.value().present()) continue;
        const uint64_t off = with_hip.offsets[v];
        const size_t len = with_hip.offsets[v + 1] - off;
        EXPECT_EQ(std::memcmp(hip.value().tau, &with_hip.hip_tau[off],
                              len * sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(hip.value().weight, &with_hip.hip_weight[off],
                              len * sizeof(double)),
                  0);
      }
    }
    EXPECT_GT(sharded.NumLoadsReused(), 0u);
  }
}

// Uneven splits: a small shard reloads into a large one's storage and a
// large one into a small one's. Results equal the flat set's.
TEST(ShardTest, UnevenShardsReloadIntoEachOthersStorage) {
  FlatAdsSet set = BuildFlat(200, 83, 4);
  PrecomputeHipWeights(&set, 2);
  FlatAdsBackend flat(&set);
  std::vector<double> expected =
      EstimateHarmonicCentralityAll(flat, 1).value();
  auto expected_hist = EstimateDistanceDistribution(flat, 1).value();
  for (const std::vector<NodeId>& splits :
       {std::vector<NodeId>{0, 150, 155, 190, 192},
        std::vector<NodeId>{0, 3, 160, 162, 199}}) {
    ScratchDir dir("hipads_shard_test_reuse_uneven");
    ASSERT_TRUE(WriteShardedAdsSet(set, dir.path, splits).ok());
    for (bool prefetch : {false, true}) {
      ShardedAdsSet sharded = OpenOneResident(dir.path, prefetch);
      for (int sweep = 0; sweep < 2; ++sweep) {
        EXPECT_EQ(EstimateHarmonicCentralityAll(sharded, 2).value(),
                  expected);
        EXPECT_EQ(EstimateDistanceDistribution(sharded, 2).value(),
                  expected_hist);
      }
      EXPECT_LE(sharded.NumLoadsReused(), 4u * splits.size() - 1);
      EXPECT_GE(sharded.NumLoadsReused(),
                4u * splits.size() - (prefetch ? 2 : 1));
    }
  }
}

TEST(ShardTest, ManifestGarbageRejected) {
  ScratchDir dir("hipads_shard_test_manifest");
  std::filesystem::create_directories(dir.path);
  auto write_manifest = [&](const std::string& text) {
    std::ofstream f(std::filesystem::path(dir.path) / kShardManifestName);
    f << text;
  };
  write_manifest("not-a-manifest\n");
  EXPECT_FALSE(ShardedAdsSet::Open(dir.path).ok());
  write_manifest("hipads-shards-v1\nflavor bottom-k\nk 4\n");
  EXPECT_FALSE(ShardedAdsSet::Open(dir.path).ok());
  // Ranges that do not tile [0, nodes).
  write_manifest(
      "hipads-shards-v1\nflavor bottom-k\nk 4\nranks uniform 1\nnodes 10\n"
      "shards 2\nshard 0 4 0 a.ads2\nshard 5 10 0 b.ads2\n");
  EXPECT_FALSE(ShardedAdsSet::Open(dir.path).ok());
  // Trailing garbage after the shard table.
  write_manifest(
      "hipads-shards-v1\nflavor bottom-k\nk 4\nranks uniform 1\nnodes 10\n"
      "shards 1\nshard 0 10 0 a.ads2\nextra\n");
  EXPECT_FALSE(ShardedAdsSet::Open(dir.path).ok());
  // Open of a missing directory is an IOError.
  auto missing = ShardedAdsSet::Open(dir.path + "_nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kIOError);
}

}  // namespace
}  // namespace hipads
