// The unified AdsBackend storage layer: the serving contract is that the
// in-memory arena (FlatAdsBackend), the zero-copy mmap open (MmapAdsSet)
// and the sharded set (ShardedAdsSet, with and without the background
// prefetch thread, copying and mmap shard opens) produce bitwise identical
// query and estimator results on the same sketch set — plus the failure
// contract: missing/truncated/corrupt backing files and v1 text surface as
// errors, not partial results.

#include "ads/backend.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "ads/shard.h"
#include "ads/similarity.h"
#include "graph/generators.h"

namespace hipads {
namespace {

// A built set as the builders hand it over: no HIP weights yet.
FlatAdsSet BuildFlatWithoutHip(uint32_t n, uint64_t graph_seed, uint32_t k) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  return FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(graph_seed + 1)));
}

// A built set with its HIP weights, ready to write and serve.
FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k) {
  FlatAdsSet set = BuildFlatWithoutHip(n, graph_seed, k);
  PrecomputeHipWeights(&set, 1);
  return set;
}

// Cuts the v2 file at `path`, holding `nodes` nodes and `entries` entries,
// to its base image: the file an older build wrote without the HIP
// section.
void CutToBaseImage(const std::string& path, uint64_t nodes,
                    uint64_t entries) {
  ASSERT_EQ(std::filesystem::file_size(path),
            AdsBinaryFileSize(nodes, entries) + AdsHipSectionBytes(entries));
  std::filesystem::resize_file(path, AdsBinaryFileSize(nodes, entries));
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

// Runs the full whole-graph query battery through the backend surface and
// checks every result bitwise against the same queries over the in-memory
// reference arena.
void ExpectBitwiseEqualQueries(const AdsBackend& backend,
                               const FlatAdsSet& flat) {
  FlatAdsBackend reference(&flat);
  auto harmonic = EstimateHarmonicCentralityAll(backend, 1);
  ASSERT_TRUE(harmonic.ok()) << harmonic.status().ToString();
  EXPECT_EQ(harmonic.value(),
            EstimateHarmonicCentralityAll(reference, 1).value());

  auto distsum = EstimateDistanceSumAll(backend, 1);
  ASSERT_TRUE(distsum.ok());
  EXPECT_EQ(distsum.value(), EstimateDistanceSumAll(reference, 1).value());

  auto reach = EstimateReachableCountAll(backend, 1);
  ASSERT_TRUE(reach.ok());
  EXPECT_EQ(reach.value(), EstimateReachableCountAll(reference, 1).value());

  auto nsize = EstimateNeighborhoodSizeAll(backend, 2.0, 1);
  ASSERT_TRUE(nsize.ok());
  EXPECT_EQ(nsize.value(),
            EstimateNeighborhoodSizeAll(reference, 2.0, 1).value());

  auto closeness = EstimateClosenessAll(
      backend, [](double d) { return 1.0 / (1.0 + d); },
      [](NodeId v) { return v % 2 == 0 ? 1.0 : 0.5; }, 1);
  ASSERT_TRUE(closeness.ok());
  EXPECT_EQ(closeness.value(),
            EstimateClosenessAll(
                reference, [](double d) { return 1.0 / (1.0 + d); },
                [](NodeId v) { return v % 2 == 0 ? 1.0 : 0.5; }, 1)
                .value());

  auto dd = EstimateDistanceDistribution(backend, 1);
  ASSERT_TRUE(dd.ok());
  EXPECT_EQ(dd.value(), EstimateDistanceDistribution(reference, 1).value());

  auto nf = EstimateNeighborhoodFunction(backend, 1);
  ASSERT_TRUE(nf.ok());
  EXPECT_EQ(nf.value(), EstimateNeighborhoodFunction(reference, 1).value());

  auto eff = EstimateEffectiveDiameter(backend);
  ASSERT_TRUE(eff.ok());
  EXPECT_EQ(eff.value(), EstimateEffectiveDiameter(reference).value());

  auto mean = EstimateMeanDistance(backend);
  ASSERT_TRUE(mean.ok());
  EXPECT_EQ(mean.value(), EstimateMeanDistance(reference).value());
}

TEST(BackendTest, FlatBackendMatchesReference) {
  FlatAdsSet set = BuildFlat(150, 3, 8);
  FlatAdsBackend owning(set);          // copy-owning
  FlatAdsBackend aliasing(&set);       // non-owning
  ExpectBitwiseEqualQueries(owning, set);
  ExpectBitwiseEqualQueries(aliasing, set);
  EXPECT_EQ(owning.num_nodes(), set.num_nodes());
  EXPECT_EQ(owning.TotalEntries(), set.TotalEntries());
  EXPECT_EQ(owning.NumRanges(), 1u);
}

TEST(BackendTest, MmapOpenIsZeroCopyAndBitwiseEqual) {
  FlatAdsSet set = BuildFlat(200, 7, 8);
  ScratchDir dir("hipads_backend_test_mmap");
  std::string path = dir.file("set.ads2");
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());

  auto opened = MmapAdsSet::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const MmapAdsSet& mapped = opened.value();
  EXPECT_EQ(mapped.num_nodes(), set.num_nodes());
  EXPECT_EQ(mapped.TotalEntries(), set.TotalEntries());
  EXPECT_EQ(mapped.k(), set.k);
  EXPECT_EQ(mapped.flavor(), set.flavor);
  EXPECT_EQ(mapped.ranks().seed(), set.ranks.seed());

  // Every per-node view is byte-identical to the in-memory arena.
  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    auto view = mapped.ViewOf(v);
    ASSERT_TRUE(view.ok());
    auto expect = set.of(v).entries();
    auto got = view.value().entries();
    ASSERT_EQ(expect.size(), got.size()) << "node " << v;
    EXPECT_EQ(std::memcmp(expect.data(), got.data(),
                          expect.size() * sizeof(AdsEntry)),
              0)
        << "node " << v;
  }
  ExpectBitwiseEqualQueries(mapped, set);
}

TEST(BackendTest, MmapMoveKeepsServing) {
  FlatAdsSet set = BuildFlat(80, 11, 4);
  ScratchDir dir("hipads_backend_test_mmap_move");
  std::string path = dir.file("set.ads2");
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
  auto opened = MmapAdsSet::Open(path);
  ASSERT_TRUE(opened.ok());
  MmapAdsSet moved = std::move(opened).value();
  ExpectBitwiseEqualQueries(moved, set);
  // The moved-from set is a valid empty one.
  EXPECT_EQ(opened.value().num_nodes(), 0u);
  EXPECT_EQ(opened.value().TotalEntries(), 0u);
}

// v1 text is convert-only: every engine refuses it with the one message
// the v2 readers share, which names `hipads_cli convert`.
TEST(BackendTest, EveryEngineRejectsV1Text) {
  FlatAdsSet set = BuildFlat(100, 13, 4);
  ScratchDir dir("hipads_backend_test_v1_text");
  std::string path = dir.file("set.ads");
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kTextV1).ok());
  const std::string expected =
      ParseFlatAdsSetBinary(SerializeAdsSet(set)).status().message();
  EXPECT_NE(expected.find("hipads_cli convert"), std::string::npos);
  for (BackendMode mode : {BackendMode::kCopy, BackendMode::kMmap}) {
    AdsBackendOptions options;
    options.mode = mode;
    auto opened = OpenAdsBackend(path, options);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), Status::Code::kCorruption);
    EXPECT_EQ(opened.status().message(), expected);
  }

  // A shard file holding v1 text fails to load the same way.
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 2).ok());
  ASSERT_TRUE(WriteAdsSetFile(
                  set,
                  (std::filesystem::path(shard_dir) / "shard-00001.ads2")
                      .string(),
                  AdsFileFormat::kTextV1)
                  .ok());
  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.use_mmap = use_mmap;
    auto opened = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(opened.ok());
    auto range = opened.value().Range(1);
    ASSERT_FALSE(range.ok()) << "mmap=" << use_mmap;
    EXPECT_EQ(range.status().message(), expected);
  }
}

TEST(BackendTest, MmapRejectsCorruptAndTruncatedV2) {
  FlatAdsSet set = BuildFlat(120, 17, 4);
  ScratchDir dir("hipads_backend_test_mmap_corrupt");
  std::string path = dir.file("set.ads2");
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());

  // Flip one payload byte: checksum mismatch, not a silent fallback.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    char c;
    f.seekg(f.tellp());
    f.get(c);
    f.seekp(-5, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto corrupt = MmapAdsSet::Open(path);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), Status::Code::kCorruption);

  // Truncate a fresh copy: length mismatch against the header.
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, size - 16, ec);
  ASSERT_FALSE(ec);
  auto truncated = MmapAdsSet::Open(path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), Status::Code::kCorruption);
}

// The acceptance matrix: every serving engine, same sketches, bitwise
// identical answers.
TEST(BackendTest, AllBackendsBitwiseEqualOnSameShardSet) {
  FlatAdsSet set = BuildFlat(250, 19, 8);
  ScratchDir dir("hipads_backend_test_matrix");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 5).ok());

  FlatAdsBackend flat(&set);
  ExpectBitwiseEqualQueries(flat, set);

  auto mapped = MmapAdsSet::Open(file_path);
  ASSERT_TRUE(mapped.ok());
  ExpectBitwiseEqualQueries(mapped.value(), set);

  for (bool use_mmap : {false, true}) {
    for (bool prefetch : {false, true}) {
      ShardedOptions options;
      options.max_resident = 1;
      options.prefetch = prefetch;
      options.use_mmap = use_mmap;
      auto sharded = ShardedAdsSet::Open(shard_dir, options);
      ASSERT_TRUE(sharded.ok())
          << "mmap=" << use_mmap << " prefetch=" << prefetch << ": "
          << sharded.status().ToString();
      ExpectBitwiseEqualQueries(sharded.value(), set);
      EXPECT_LE(sharded.value().NumResident(), 1u);  // strict bound
    }
  }
}

// tsan target: the prefetch worker overlaps loads with consumer-side
// sweeps; repeated sweeps and point lookups must stay deterministic and
// race-free, bitwise equal to the non-prefetching engines.
TEST(BackendTest, PrefetchSweepsAreDeterministic) {
  FlatAdsSet set = BuildFlat(220, 23, 8);
  ScratchDir dir("hipads_backend_test_prefetch");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 6).ok());

  std::vector<double> reference =
      EstimateHarmonicCentralityAll(FlatAdsBackend(&set), 1).value();
  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.max_resident = 2;
    options.prefetch = true;
    options.use_mmap = use_mmap;
    auto opened = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(opened.ok());
    const ShardedAdsSet& sharded = opened.value();
    for (int round = 0; round < 3; ++round) {
      auto scores = EstimateHarmonicCentralityAll(sharded, 2);
      ASSERT_TRUE(scores.ok());
      EXPECT_EQ(scores.value(), reference) << "round " << round;
      // Interleave point lookups that fault shards in out of sweep order.
      for (NodeId v : {0u, 219u, 110u}) {
        ASSERT_TRUE(sharded.ViewOf(v).ok());
      }
      EXPECT_LE(sharded.NumResident(), 2u);  // strict max_resident bound
    }
  }
}

TEST(BackendTest, ShardedValidateFilesCatchesMissingAndTruncated) {
  FlatAdsSet set = BuildFlat(160, 29, 4);
  ScratchDir dir("hipads_backend_test_validate");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 4).ok());
  std::string victim =
      (std::filesystem::path(shard_dir) / "shard-00002.ads2").string();

  {
    auto opened = ShardedAdsSet::Open(shard_dir);
    ASSERT_TRUE(opened.ok());
    EXPECT_TRUE(opened.value().ValidateFiles().ok());
  }

  // Truncated shard: ValidateFiles names the file; sweeps fail Corruption
  // under both copy and mmap opens.
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(victim, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(victim, size - 24, ec);
  ASSERT_FALSE(ec);
  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.use_mmap = use_mmap;
    auto opened = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(opened.ok());
    Status valid = opened.value().ValidateFiles();
    EXPECT_FALSE(valid.ok());
    EXPECT_EQ(valid.code(), Status::Code::kCorruption);
    EXPECT_NE(valid.message().find("shard-00002.ads2"), std::string::npos);
    auto swept = EstimateHarmonicCentralityAll(opened.value());
    EXPECT_FALSE(swept.ok()) << "mmap=" << use_mmap;
    EXPECT_EQ(swept.status().code(), Status::Code::kCorruption);
  }

  // Missing shard: IOError from ValidateFiles and from the sweep.
  std::filesystem::remove(victim);
  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.use_mmap = use_mmap;
    auto opened = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(opened.ok());
    Status valid = opened.value().ValidateFiles();
    EXPECT_FALSE(valid.ok());
    EXPECT_EQ(valid.code(), Status::Code::kIOError);
    auto swept = EstimateHarmonicCentralityAll(opened.value());
    EXPECT_FALSE(swept.ok());
    EXPECT_EQ(swept.status().code(), Status::Code::kIOError);
  }

  // The factory checks shard file sizes, so it refuses the whole open.
  auto refused = OpenAdsBackend(shard_dir);
  EXPECT_FALSE(refused.ok());
}

TEST(BackendTest, OpenAdsBackendDispatchesOnPathAndMode) {
  FlatAdsSet set = BuildFlat(140, 31, 4);
  ScratchDir dir("hipads_backend_test_factory");
  std::string file_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, file_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());

  for (BackendMode mode : {BackendMode::kCopy, BackendMode::kMmap}) {
    for (const std::string& path : {file_path, shard_dir}) {
      AdsBackendOptions options;
      options.mode = mode;
      auto opened = OpenAdsBackend(path, options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      ExpectBitwiseEqualQueries(*opened.value(), set);
    }
  }

  auto missing = OpenAdsBackend(dir.file("nope.ads2"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Status::Code::kIOError);
}

TEST(BackendTest, NodeIndexMatchesLinearLookups) {
  FlatAdsSet set = BuildFlat(130, 37, 8);
  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    AdsView view = set.of(v);
    AdsNodeIndex index(view);
    EXPECT_EQ(index.size(), view.size());
    // Every sketched node resolves identically; a spread of absent ids too.
    for (const AdsEntry& e : view.entries()) {
      EXPECT_TRUE(index.Contains(e.node));
      EXPECT_EQ(index.DistanceOf(e.node), view.DistanceOf(e.node));
    }
    for (NodeId probe = 0; probe < 140; probe += 7) {
      EXPECT_EQ(index.Contains(probe), view.Contains(probe)) << probe;
      EXPECT_EQ(index.DistanceOf(probe), view.DistanceOf(probe)) << probe;
    }
  }
}

// --- storage-resident HIP weights through the backend surface --------------

// Every node's HipOf must hand back exactly the reference set's aligned
// arrays, and an estimator wrapped around them must answer every query
// bitwise identically to a fresh scan of the same view.
void ExpectHipMatchesReference(const AdsBackend& backend,
                               const FlatAdsSet& reference) {
  ASSERT_TRUE(reference.has_hip());
  for (NodeId v = 0; v < reference.num_nodes(); ++v) {
    auto hip = backend.HipOf(v);
    ASSERT_TRUE(hip.ok()) << hip.status().ToString();
    auto view = backend.ViewOf(v);
    ASSERT_TRUE(view.ok());
    const uint64_t off = reference.offsets[v];
    for (size_t i = 0; i < view.value().size(); ++i) {
      EXPECT_EQ(std::memcmp(&hip.value().tau[i], &reference.hip_tau[off + i],
                            sizeof(double)),
                0)
          << "node " << v;
      EXPECT_EQ(std::memcmp(&hip.value().weight[i],
                            &reference.hip_weight[off + i], sizeof(double)),
                0)
          << "node " << v;
    }
    HipEstimator pre(view.value(), hip.value().tau, hip.value().weight);
    HipEstimator scan(view.value(), backend.k(), backend.flavor(),
                      backend.ranks());
    EXPECT_EQ(pre.ReachableCount(), scan.ReachableCount()) << "node " << v;
    EXPECT_EQ(pre.HarmonicCentrality(), scan.HarmonicCentrality());
    EXPECT_EQ(pre.NeighborhoodCardinality(2.0),
              scan.NeighborhoodCardinality(2.0));
    EXPECT_EQ(pre.DistanceQuantile(0.5), scan.DistanceQuantile(0.5));
  }
}

// A built set without HIP weights fails closed: the in-memory backend
// refuses to serve weights it does not hold (the entries stay readable),
// and every v2 writer refuses the set before it creates a file.
TEST(BackendTest, BuiltSetWithoutHipWeightsFailsClosed) {
  FlatAdsSet bare = BuildFlatWithoutHip(90, 43, 4);
  FlatAdsSet short_tau = BuildFlat(90, 43, 4);
  short_tau.hip_tau.pop_back();  // not one per entry
  ScratchDir dir("hipads_backend_test_hip_absent");
  for (const FlatAdsSet* set : {&bare, &short_tau}) {
    const std::string what = set == &bare ? "bare" : "short tau";
    FlatAdsBackend flat(set);
    auto view = flat.ViewOf(0);
    ASSERT_TRUE(view.ok()) << what;
    EXPECT_EQ(view.value().size(), (set->offsets[1] - set->offsets[0]));
    auto range = flat.Range(0);
    ASSERT_FALSE(range.ok()) << what;
    EXPECT_EQ(range.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_NE(range.status().message().find("PrecomputeHipWeights"),
              std::string::npos)
        << range.status().ToString();
    auto hip = flat.HipOf(0);
    ASSERT_FALSE(hip.ok()) << what;
    EXPECT_EQ(hip.status().code(), Status::Code::kFailedPrecondition);
    SweepPlan plan;
    plan.Emplace<HarmonicCentralityCollector>();
    Status swept = RunSweep(*set, plan, 1);
    EXPECT_EQ(swept.code(), Status::Code::kFailedPrecondition) << what;
    EXPECT_EQ(EstimateHarmonicCentralityAll(flat, 1).status().code(),
              Status::Code::kFailedPrecondition);

    const std::string path = dir.file("set.ads2");
    const std::string shard_dir = dir.file("shards");
    std::vector<Status> written = {
        WriteAdsSetFile(*set, path, AdsFileFormat::kBinaryV2),
        WriteAdsSetRangeFile(*set, 0, 10, path),
        WriteShardedAdsSet(*set, shard_dir, 3),
        SerializeAdsSetBinary(*set).status()};
    for (const Status& st : written) {
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
          << what << ": " << st.ToString();
      EXPECT_NE(st.message().find("PrecomputeHipWeights"), std::string::npos)
          << st.ToString();
    }
    EXPECT_FALSE(std::filesystem::exists(path)) << what;
    EXPECT_FALSE(std::filesystem::exists(shard_dir)) << what;
  }
  // v1 text stores no HIP weights, so it takes the set as it is.
  EXPECT_TRUE(
      WriteAdsSetFile(bare, dir.file("set.ads"), AdsFileFormat::kTextV1).ok());
}

// A file cut to its base image (as an older build wrote it) serves the
// weights its reader computes on load, in every engine — and they are the
// weights PrecomputeHipWeights stores, bit for bit.
TEST(BackendTest, BaseImageServesComputedHipWeights) {
  FlatAdsSet set = BuildFlat(90, 43, 4);
  ScratchDir dir("hipads_backend_test_hip_base");
  std::string path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 3).ok());
  CutToBaseImage(path, set.num_nodes(), set.TotalEntries());
  auto layout = ShardedAdsSet::Open(shard_dir, ShardedOptions{});
  ASSERT_TRUE(layout.ok());
  for (const ShardInfo& info : layout.value().shards()) {
    CutToBaseImage(dir.file("shards/" + info.file), info.end - info.begin,
                   info.num_entries);
  }

  auto read = ReadFlatAdsSetFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  FlatAdsBackend flat(&read.value());
  auto mapped = MmapAdsSet::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectHipMatchesReference(flat, set);
  ExpectHipMatchesReference(mapped.value(), set);
  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.use_mmap = use_mmap;
    auto sharded = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_TRUE(sharded.value().ValidateFiles().ok());  // base-sized shards
    ExpectHipMatchesReference(sharded.value(), set);
    ExpectBitwiseEqualQueries(sharded.value(), set);
  }
}

TEST(BackendTest, EveryEngineServesStoredHipWeights) {
  FlatAdsSet set = BuildFlat(180, 47, 8);
  PrecomputeHipWeights(&set, 1);
  ScratchDir dir("hipads_backend_test_hip_matrix");
  std::string path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 4).ok());

  FlatAdsBackend flat(&set);
  ExpectHipMatchesReference(flat, set);

  auto mapped = MmapAdsSet::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectHipMatchesReference(mapped.value(), set);

  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.use_mmap = use_mmap;
    auto sharded = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_TRUE(sharded.value().ValidateFiles().ok());  // hip-sized shards
    ExpectHipMatchesReference(sharded.value(), set);
    // Range views carry the hip arrays with range-local indexing.
    auto range = sharded.value().Range(1);
    ASSERT_TRUE(range.ok());
    const NodeId begin = range.value().begin;
    HipView local = range.value().hip_of_local(1);
    EXPECT_EQ(local.tau[0], set.hip_tau[set.offsets[begin + 1]]);
  }
}

// An empty node range writes a file with an empty HIP section. Every
// engine — the copying reader, mmap, and either kind of sharded set
// holding it as a shard — loads it as a store with no nodes.
TEST(BackendTest, EmptyStoreLoadsInEveryEngine) {
  FlatAdsSet set = BuildFlat(60, 17, 4);
  ScratchDir dir("hipads_backend_test_hip_empty");
  const std::string path = dir.file("empty.ads2");
  ASSERT_TRUE(WriteAdsSetRangeFile(set, 20, 20, path).ok());
  ASSERT_EQ(std::filesystem::file_size(path),
            AdsBinaryFileSize(0, 0) + AdsHipSectionBytes(0));

  auto read = ReadFlatAdsSetFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read.value().has_hip());
  FlatAdsBackend copied(&read.value());
  auto mapped = MmapAdsSet::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  for (const AdsBackend* backend :
       {static_cast<const AdsBackend*>(&copied),
        static_cast<const AdsBackend*>(&mapped.value())}) {
    EXPECT_EQ(backend->num_nodes(), 0u);
    auto range = backend->Range(0);
    ASSERT_TRUE(range.ok()) << range.status().ToString();
    EXPECT_EQ(range.value().num_entries(), 0u);
  }

  // Shard 2 is the empty range [60, 60), with its empty HIP section.
  const std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(
      WriteShardedAdsSet(set, shard_dir, std::vector<NodeId>{0, 30, 60}).ok());
  ASSERT_EQ(std::filesystem::file_size(
                std::filesystem::path(shard_dir) / "shard-00002.ads2"),
            AdsBinaryFileSize(0, 0) + AdsHipSectionBytes(0));
  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.use_mmap = use_mmap;
    const std::string what = use_mmap ? "mmap" : "copy";
    auto sharded = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(sharded.ok()) << what << ": " << sharded.status().ToString();
    EXPECT_TRUE(sharded.value().ValidateFiles().ok()) << what;
    auto empty = sharded.value().Range(2);
    ASSERT_TRUE(empty.ok()) << what;
    EXPECT_EQ(empty.value().num_nodes(), 0u) << what;
    ExpectBitwiseEqualQueries(sharded.value(), set);
  }
}

// A shard directory may mix shards with and without the HIP section (one
// cut to its base image here): every shard serves the same weights, and
// whole-graph answers do not change.
TEST(BackendTest, MixedShardedSetServesStoredAndComputedWeights) {
  FlatAdsSet set = BuildFlat(160, 53, 4);
  ScratchDir dir("hipads_backend_test_hip_mixed");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(set, shard_dir, 4).ok());
  auto layout = ShardedAdsSet::Open(shard_dir, ShardedOptions{});
  ASSERT_TRUE(layout.ok());
  const ShardInfo& victim = layout.value().shards()[1];
  CutToBaseImage(dir.file("shards/" + victim.file), victim.end - victim.begin,
                 victim.num_entries);

  for (bool use_mmap : {false, true}) {
    ShardedOptions options;
    options.max_resident = 2;
    options.use_mmap = use_mmap;
    auto opened = ShardedAdsSet::Open(shard_dir, options);
    ASSERT_TRUE(opened.ok());
    const ShardedAdsSet& sharded = opened.value();
    EXPECT_TRUE(sharded.ValidateFiles().ok());  // both sizes are legal
    ExpectHipMatchesReference(sharded, set);
    ExpectBitwiseEqualQueries(sharded, set);
  }
}

TEST(BackendTest, SimilarityOverBackendViewsMatchesAdsOverloads) {
  Graph g = ErdosRenyi(150, 3ULL * 150, true, 41);
  AdsSet owning = BuildAdsPrunedDijkstra(g, 8, SketchFlavor::kBottomK,
                                         RankAssignment::Uniform(42));
  FlatAdsSet flat = FlatAdsSet::FromAdsSet(owning);
  PrecomputeHipWeights(&flat, 1);
  ScratchDir dir("hipads_backend_test_similarity");
  std::string path = dir.file("set.ads2");
  ASSERT_TRUE(WriteAdsSetFile(flat, path, AdsFileFormat::kBinaryV2).ok());
  auto mapped = MmapAdsSet::Open(path);
  ASSERT_TRUE(mapped.ok());
  for (NodeId u : {5u, 60u}) {
    for (NodeId v : {6u, 120u}) {
      auto uv = mapped.value().ViewOf(u);
      auto vv = mapped.value().ViewOf(v);
      ASSERT_TRUE(uv.ok());
      ASSERT_TRUE(vv.ok());
      for (double d : {1.0, 3.0}) {
        EXPECT_EQ(JaccardSimilarity(uv.value(), vv.value(), d, flat.k),
                  JaccardSimilarity(owning.of(u), owning.of(v), d, flat.k));
        EXPECT_EQ(
            IntersectionCardinality(uv.value(), vv.value(), d, flat.k),
            IntersectionCardinality(owning.of(u), owning.of(v), d, flat.k));
      }
    }
  }
}

}  // namespace
}  // namespace hipads
