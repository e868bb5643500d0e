// The distributed serving subsystem (src/serve/). The acceptance
// contract: every sweep statistic computed through the scatter/gather
// router — loopback transport, >= 2 range servers, every backend engine
// (in-memory copy, zero-copy mmap, sharded-with-prefetch, mixed fleets),
// multiple per-server thread counts — is bitwise identical to a
// single-process RunSweep over the same sketches; point requests route to
// the owning range server (cross-server similarity runs router-side on
// fetched sketches); a dead or missing range server fails the whole
// operation closed; and the CLI's remote paths exit nonzero with no
// partial output on any failure.

#include "serve/router.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/serialize.h"
#include "ads/shard.h"
#include "ads/similarity.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/parallel.h"

namespace hipads {
namespace {

FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  return FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(graph_seed + 1)));
}

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

// The sketches of global nodes [begin, end) as a standalone set (what a
// shard file holds: local node i = global node begin + i, entry target ids
// stay global).
FlatAdsSet SliceSet(const FlatAdsSet& set, NodeId begin, NodeId end) {
  FlatAdsSet slice;
  slice.flavor = set.flavor;
  slice.k = set.k;
  slice.ranks = set.ranks;
  for (NodeId v = begin; v < end; ++v) {
    auto entries = set.of(v).entries();
    slice.AppendNode(std::vector<AdsEntry>(entries.begin(), entries.end()));
  }
  return slice;
}

// Every wire-expressible collector kind, with parameters exercised.
std::vector<CollectorSpec> FullSpec() {
  return {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kDistanceSum, 0, 0, 0.0},
      {CollectorKind::kHarmonic, 0, 0, 0.0},
      {CollectorKind::kNeighborhoodSize, 0, 0, 2.0},
      {CollectorKind::kReachableCount, 0, 0, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kHarmonic), 5,
       0.0},
      {CollectorKind::kDistanceQuantile, 0, 0, 0.5},
      {CollectorKind::kQg, static_cast<uint32_t>(QgKind::kExpDecay), 0, 0.5},
  };
}

// Bitwise comparison of two collector sets built from the same spec.
void ExpectCollectorsIdentical(const std::vector<CollectorSpec>& spec,
                               const std::vector<SweepCollector*>& expected,
                               const std::vector<SweepCollector*>& actual,
                               const std::string& label) {
  ASSERT_EQ(expected.size(), spec.size());
  ASSERT_EQ(actual.size(), spec.size());
  for (size_t i = 0; i < spec.size(); ++i) {
    if (spec[i].kind == CollectorKind::kDistanceHistogram) {
      auto* e = static_cast<DistanceHistogramCollector*>(expected[i]);
      auto* a = static_cast<DistanceHistogramCollector*>(actual[i]);
      EXPECT_EQ(e->Distribution(), a->Distribution()) << label;
      EXPECT_EQ(e->NeighborhoodFunction(), a->NeighborhoodFunction())
          << label;
      EXPECT_EQ(e->EffectiveDiameter(), a->EffectiveDiameter()) << label;
      EXPECT_EQ(e->MeanDistance(), a->MeanDistance()) << label;
    } else {
      auto* e = static_cast<PerNodeCollector*>(expected[i]);
      auto* a = static_cast<PerNodeCollector*>(actual[i]);
      EXPECT_EQ(e->values(), a->values()) << label << " collector " << i;
      if (spec[i].kind == CollectorKind::kTopK) {
        EXPECT_EQ(static_cast<TopKCollector*>(expected[i])->TopNodes(),
                  static_cast<TopKCollector*>(actual[i])->TopNodes())
            << label;
      }
    }
  }
}

enum class Engine { kCopy, kMmap, kSharded };
const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kCopy:
      return "copy";
    case Engine::kMmap:
      return "mmap";
    case Engine::kSharded:
      return "sharded";
  }
  return "?";
}

// One range server's worth of state: a backend over a node-range slice
// (opened through the requested engine) plus its protocol core.
struct RangeServer {
  std::unique_ptr<AdsBackend> backend;
  std::unique_ptr<AdsServerCore> core;
};

RangeServer MakeRangeServer(const FlatAdsSet& full, NodeId begin, NodeId end,
                            Engine engine, const ScratchDir& dir,
                            const std::string& name, uint32_t threads,
                            bool hip = false) {
  RangeServer server;
  FlatAdsSet slice = SliceSet(full, begin, end);
  if (hip) PrecomputeHipWeights(&slice, 1);
  switch (engine) {
    case Engine::kCopy:
      server.backend = std::make_unique<FlatAdsBackend>(std::move(slice));
      break;
    case Engine::kMmap: {
      std::string path = dir.file(name + ".ads2");
      EXPECT_TRUE(
          WriteAdsSetFile(slice, path, AdsFileFormat::kBinaryV2).ok());
      auto mapped = MmapAdsSet::Open(path);
      EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
      server.backend =
          std::make_unique<MmapAdsSet>(std::move(mapped).value());
      break;
    }
    case Engine::kSharded: {
      std::string shard_dir = dir.file(name + "-shards");
      EXPECT_TRUE(WriteShardedAdsSet(slice, shard_dir, 2).ok());
      ShardedOptions options;
      options.prefetch = true;
      options.prefetch_depth = 2;
      auto sharded = ShardedAdsSet::Open(shard_dir, options);
      EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
      server.backend =
          std::make_unique<ShardedAdsSet>(std::move(sharded).value());
      break;
    }
  }
  ServerOptions options;
  options.node_begin = begin;
  options.num_threads = threads;
  server.core =
      std::make_unique<AdsServerCore>(server.backend.get(), options);
  return server;
}

// A loopback fleet over range servers: the full wire path (frames encoded,
// checksummed, decoded) minus the socket.
struct LoopbackFleet {
  std::vector<RangeServer> servers;
  FleetManifest manifest;

  ChannelFactory Factory() {
    return [this](const std::string& address)
               -> StatusOr<std::unique_ptr<Channel>> {
      for (size_t i = 0; i < manifest.servers.size(); ++i) {
        if (manifest.servers[i].address == address) {
          return std::unique_ptr<Channel>(
              std::make_unique<LoopbackChannel>(servers[i].core.get()));
        }
      }
      return Status::NotFound("no loopback server at " + address);
    };
  }
};

LoopbackFleet MakeFleet(const FlatAdsSet& full,
                        const std::vector<NodeId>& splits,
                        const std::vector<Engine>& engines,
                        const ScratchDir& dir, uint32_t threads,
                        bool hip = false) {
  LoopbackFleet fleet;
  fleet.manifest.num_nodes = full.num_nodes();
  for (size_t i = 0; i + 1 < splits.size(); ++i) {
    std::string name =
        "rs" + std::to_string(i) + "-" + EngineName(engines[i]);
    fleet.servers.push_back(MakeRangeServer(full, splits[i], splits[i + 1],
                                            engines[i], dir, name, threads,
                                            hip));
    fleet.manifest.servers.push_back(
        FleetEntry{"loop:" + std::to_string(i), splits[i], splits[i + 1]});
  }
  return fleet;
}

// Single-process reference: the same spec over the whole arena.
struct Reference {
  SweepPlan plan;
  std::vector<SweepCollector*> collectors;
};

void RunReference(const FlatAdsSet& full, const std::vector<CollectorSpec>& spec,
                  Reference* ref) {
  auto built = BuildPlanFromSpec(spec, &ref->plan);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ref->collectors = built.value();
  FlatAdsBackend backend(&full);
  ASSERT_TRUE(RunSweep(backend, ref->plan, 1).ok());
}

// The acceptance matrix: >= 2 range servers, every engine (uniform and
// mixed fleets), several per-server thread counts — all bitwise equal to
// the single-process sweep.
TEST(ServeTest, RouterMatchesSingleProcessBitwise) {
  FlatAdsSet full = BuildFlat(240, 3, 8);
  ScratchDir dir("hipads_serve_test_matrix");
  std::vector<CollectorSpec> spec = FullSpec();
  Reference ref;
  RunReference(full, spec, &ref);

  struct Case {
    std::vector<NodeId> splits;
    std::vector<Engine> engines;
  };
  const std::vector<Case> cases = {
      {{0, 120, 240}, {Engine::kCopy, Engine::kCopy}},
      {{0, 120, 240}, {Engine::kMmap, Engine::kMmap}},
      {{0, 120, 240}, {Engine::kSharded, Engine::kSharded}},
      {{0, 80, 150, 240}, {Engine::kCopy, Engine::kMmap, Engine::kSharded}},
  };
  int case_id = 0;
  for (const Case& c : cases) {
    for (uint32_t threads : {1u, 2u, 4u}) {
      std::string label = "case " + std::to_string(case_id) + " threads " +
                          std::to_string(threads);
      ScratchDir case_dir("hipads_serve_test_matrix_c" +
                          std::to_string(case_id) + "_t" +
                          std::to_string(threads));
      LoopbackFleet fleet =
          MakeFleet(full, c.splits, c.engines, case_dir, threads);
      auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
      ASSERT_TRUE(router.ok()) << label << ": "
                               << router.status().ToString();
      EXPECT_EQ(router.value().num_nodes(), full.num_nodes());
      EXPECT_EQ(router.value().total_entries(), full.TotalEntries());

      SweepPlan plan;
      auto built = BuildPlanFromSpec(spec, &plan);
      ASSERT_TRUE(built.ok());
      SweepRequestMsg request;
      request.collectors = spec;
      request.num_threads = threads;
      ASSERT_TRUE(
          router.value().ExecuteSweep(request, built.value()).ok())
          << label;
      ExpectCollectorsIdentical(spec, ref.collectors, built.value(), label);
    }
    ++case_id;
  }
}

// A router is itself a protocol endpoint: a client sweeping through
// RouterCore gets the merged [0, N) partial, bitwise equal to the
// reference — and a second-level router stacked on the first still does
// (the histogram's replay stream survives the merge losslessly).
TEST(ServeTest, RouterCoreServesMergedSweepsAndStacks) {
  FlatAdsSet full = BuildFlat(200, 7, 8);
  ScratchDir dir("hipads_serve_test_core");
  std::vector<CollectorSpec> spec = FullSpec();
  Reference ref;
  RunReference(full, spec, &ref);

  LoopbackFleet fleet = MakeFleet(full, {0, 90, 200},
                                  {Engine::kCopy, Engine::kSharded}, dir, 2);
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  RouterCore core(&router.value());
  LoopbackChannel channel(&core);

  // Client side: same spec, remote execution through the router core.
  {
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    ASSERT_TRUE(built.ok());
    SweepRequestMsg request;
    request.collectors = spec;
    request.num_threads = 2;
    ASSERT_TRUE(ExecuteRemoteSweep(channel, request, full.num_nodes(),
                                   built.value())
                    .ok());
    ExpectCollectorsIdentical(spec, ref.collectors, built.value(),
                              "router core");
  }

  // Stacked: a second-level router whose single "range server" is the
  // first router.
  {
    FleetManifest outer;
    outer.num_nodes = full.num_nodes();
    outer.servers.push_back(
        FleetEntry{"inner", 0, static_cast<NodeId>(full.num_nodes())});
    auto factory = [&core](const std::string&)
        -> StatusOr<std::unique_ptr<Channel>> {
      return std::unique_ptr<Channel>(
          std::make_unique<LoopbackChannel>(&core));
    };
    auto outer_router = FleetRouter::Connect(outer, factory);
    ASSERT_TRUE(outer_router.ok()) << outer_router.status().ToString();
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    ASSERT_TRUE(built.ok());
    SweepRequestMsg request;
    request.collectors = spec;
    ASSERT_TRUE(
        outer_router.value().ExecuteSweep(request, built.value()).ok());
    ExpectCollectorsIdentical(spec, ref.collectors, built.value(),
                              "stacked routers");
  }
}

// True multi-level fan-out: an outer router over two inner routers, each
// an OFFSET sub-fleet of two leaf range servers ([0,100) and [100,200)).
// The whole tree — leaf partials, inner node-order gathers, inner
// re-encoded [B, N) slices, outer gather — must still be bitwise equal to
// the single-process sweep, and point queries must route down the tree.
TEST(ServeTest, TwoLevelRouterTreeMatchesSingleProcessBitwise) {
  FlatAdsSet full = BuildFlat(200, 23, 8);
  ScratchDir dir("hipads_serve_test_tree");
  std::vector<CollectorSpec> spec = FullSpec();
  Reference ref;
  RunReference(full, spec, &ref);

  // Leaves: four range servers of 50 nodes each.
  LoopbackFleet leaves = MakeFleet(
      full, {0, 50, 100, 150, 200},
      {Engine::kCopy, Engine::kMmap, Engine::kSharded, Engine::kCopy}, dir,
      2);

  // Inner tier: sub-fleet A = leaves 0-1 over [0, 100); sub-fleet B =
  // leaves 2-3 over [100, 200) (an offset manifest).
  auto sub_manifest = [&leaves](size_t lo, size_t hi) {
    FleetManifest m;
    m.num_nodes = leaves.manifest.servers[hi - 1].end;
    m.servers.assign(leaves.manifest.servers.begin() + lo,
                     leaves.manifest.servers.begin() + hi);
    return m;
  };
  auto inner_a = FleetRouter::Connect(sub_manifest(0, 2), leaves.Factory());
  auto inner_b = FleetRouter::Connect(sub_manifest(2, 4), leaves.Factory());
  ASSERT_TRUE(inner_a.ok()) << inner_a.status().ToString();
  ASSERT_TRUE(inner_b.ok()) << inner_b.status().ToString();
  EXPECT_EQ(inner_b.value().node_begin(), 100u);
  RouterCore core_a(&inner_a.value());
  RouterCore core_b(&inner_b.value());

  // Outer tier: the two inner routers are its "range servers".
  FleetManifest outer;
  outer.num_nodes = 200;
  outer.servers = {{"inner-a", 0, 100}, {"inner-b", 100, 200}};
  auto factory = [&core_a, &core_b](const std::string& address)
      -> StatusOr<std::unique_ptr<Channel>> {
    return std::unique_ptr<Channel>(std::make_unique<LoopbackChannel>(
        address == "inner-a" ? &core_a : &core_b));
  };
  auto outer_router = FleetRouter::Connect(outer, factory);
  ASSERT_TRUE(outer_router.ok()) << outer_router.status().ToString();

  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg request;
  request.collectors = spec;
  request.num_threads = 2;
  ASSERT_TRUE(outer_router.value().ExecuteSweep(request, built.value()).ok());
  ExpectCollectorsIdentical(spec, ref.collectors, built.value(),
                            "two-level tree");

  // Point queries route through both tiers, including a Jaccard pair
  // spanning the two sub-fleets (fetched through the inner routers).
  PointRequestMsg jaccard;
  jaccard.kind = PointKind::kJaccard;
  jaccard.node = 30;
  jaccard.other = 160;
  jaccard.d = 2.0;
  auto response = outer_router.value().Point(jaccard);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().values[0],
            JaccardSimilarity(full.of(30), full.of(160), 2.0, full.k,
                              full.ranks.sup()));
}

// Point requests route by range; answers match direct computation on the
// full arena, including Jaccard pairs that span two servers.
TEST(ServeTest, PointRequestsRouteToOwningServers) {
  FlatAdsSet full = BuildFlat(180, 11, 8);
  ScratchDir dir("hipads_serve_test_point");
  LoopbackFleet fleet = MakeFleet(full, {0, 90, 180},
                                  {Engine::kCopy, Engine::kMmap}, dir, 1);
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  ASSERT_TRUE(router.ok());

  for (NodeId v : {0u, 17u, 89u, 90u, 179u}) {
    // Node stats: reachable / harmonic / distance sum.
    PointRequestMsg request;
    request.kind = PointKind::kNodeStats;
    request.node = v;
    request.d = std::numeric_limits<double>::infinity();
    auto response = router.value().Point(request);
    ASSERT_TRUE(response.ok()) << "node " << v;
    HipEstimator est(full.of(v), full.k, full.flavor, full.ranks);
    ASSERT_EQ(response.value().values.size(), 3u);
    EXPECT_EQ(response.value().values[0], est.ReachableCount());
    EXPECT_EQ(response.value().values[1], est.HarmonicCentrality());
    EXPECT_EQ(response.value().values[2], est.DistanceSum());

    // Lookup through the owning server's node index.
    PointRequestMsg lookup;
    lookup.kind = PointKind::kLookup;
    lookup.node = v;
    lookup.targets = {0, 5, 91, 170};
    auto found = router.value().Point(lookup);
    ASSERT_TRUE(found.ok());
    AdsNodeIndex index(full.of(v));
    ASSERT_EQ(found.value().values.size(), lookup.targets.size());
    for (size_t i = 0; i < lookup.targets.size(); ++i) {
      EXPECT_EQ(found.value().values[i],
                index.DistanceOf(static_cast<NodeId>(lookup.targets[i])))
          << "node " << v << " target " << lookup.targets[i];
    }
  }

  // Jaccard: same-server pair and cross-server pair.
  for (auto [u, v] : {std::pair<NodeId, NodeId>{3, 70},
                      std::pair<NodeId, NodeId>{17, 140}}) {
    PointRequestMsg request;
    request.kind = PointKind::kJaccard;
    request.node = u;
    request.other = v;
    request.d = 3.0;
    auto response = router.value().Point(request);
    ASSERT_TRUE(response.ok()) << u << "," << v;
    double sup = full.ranks.sup();
    ASSERT_EQ(response.value().values.size(), 2u);
    EXPECT_EQ(response.value().values[0],
              JaccardSimilarity(full.of(u), full.of(v), 3.0, full.k, sup));
    EXPECT_EQ(response.value().values[1],
              UnionCardinality(full.of(u), full.of(v), 3.0, full.k, sup));
  }

  // Out-of-range node: clean error, no crash.
  PointRequestMsg bad;
  bad.kind = PointKind::kNodeStats;
  bad.node = 5000;
  EXPECT_FALSE(router.value().Point(bad).ok());
}

// Batch frames: N mixed-kind point requests in one frame answer
// byte-identically to N lone calls — through the fleet router (owner
// grouping, cross-server Jaccard fallback, per-entry errors) and through
// a single server core via AdsClient::PointBatch.
TEST(ServeTest, PointBatchMatchesSingleCallsBitwise) {
  FlatAdsSet full = BuildFlat(180, 19, 8);
  ScratchDir dir("hipads_serve_test_batch");
  LoopbackFleet fleet =
      MakeFleet(full, {0, 60, 120, 180},
                {Engine::kCopy, Engine::kMmap, Engine::kSharded}, dir, 1);
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // Stats across every server, a lookup, a raw fetch, same-server and
  // cross-server Jaccard pairs, and an out-of-range node (a per-entry
  // error — one bad entry never poisons the batch).
  std::vector<PointRequestMsg> requests;
  for (NodeId v : {0u, 17u, 59u, 60u, 119u, 120u, 179u}) {
    PointRequestMsg r;
    r.kind = PointKind::kNodeStats;
    r.node = v;
    r.d = std::numeric_limits<double>::infinity();
    requests.push_back(r);
  }
  {
    PointRequestMsg r;
    r.kind = PointKind::kLookup;
    r.node = 30;
    r.targets = {0, 5, 91, 170};
    requests.push_back(r);
    r = PointRequestMsg{};
    r.kind = PointKind::kFetchSketch;
    r.node = 130;
    requests.push_back(r);
    r = PointRequestMsg{};
    r.kind = PointKind::kJaccard;
    r.node = 3;
    r.other = 40;  // same server
    r.d = 3.0;
    requests.push_back(r);
    r.node = 17;
    r.other = 140;  // spans two servers: the router-side similarity path
    requests.push_back(r);
    r = PointRequestMsg{};
    r.kind = PointKind::kNodeStats;
    r.node = 5000;  // out of range
    requests.push_back(r);
  }

  std::vector<PointBatchResponseEntry> batched =
      router.value().PointBatch(requests);
  ASSERT_EQ(batched.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    auto single = router.value().Point(requests[i]);
    if (single.ok()) {
      ASSERT_TRUE(batched[i].status.ok())
          << "entry " << i << ": " << batched[i].status.ToString();
      EXPECT_EQ(batched[i].payload, EncodePointResponse(single.value()))
          << "entry " << i;
    } else {
      EXPECT_FALSE(batched[i].status.ok()) << "entry " << i;
      EXPECT_EQ(batched[i].status.ToString(), single.status().ToString())
          << "entry " << i;
      EXPECT_TRUE(batched[i].payload.empty()) << "entry " << i;
    }
  }

  // The same contract straight against one server core: entries whose
  // nodes it serves answer with the bytes its lone responses carry.
  LoopbackChannel channel(fleet.servers[0].core.get());
  AdsClient client(&channel);
  std::vector<PointRequestMsg> local;
  for (const PointRequestMsg& r : requests) {
    bool served = r.node < 60 || r.node == 5000;  // 5000: per-entry error
    if (r.kind == PointKind::kJaccard && r.other >= 60) served = false;
    if (served) local.push_back(r);
  }
  ASSERT_GE(local.size(), 5u);
  auto client_batch = client.PointBatch(local);
  ASSERT_TRUE(client_batch.ok()) << client_batch.status().ToString();
  ASSERT_EQ(client_batch.value().size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    const PointBatchResponseEntry& entry = client_batch.value()[i];
    auto single = client.Point(local[i]);
    if (single.ok()) {
      ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
      EXPECT_EQ(entry.payload, EncodePointResponse(single.value()))
          << "entry " << i;
    } else {
      EXPECT_EQ(entry.status.ToString(), single.status().ToString())
          << "entry " << i;
    }
  }

  // An empty batch round-trips cleanly (the cheapest batch probe).
  auto empty = client.PointBatch({});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().empty());
}

// HIP-resident storage is invisible on the wire: a fleet whose every
// server carries the precomputed section answers sweeps, lone points and
// batches with bytes identical to a fleet that scans every estimator.
TEST(ServeTest, ResidentHipFleetMatchesScanFleetByteForByte) {
  FlatAdsSet full = BuildFlat(180, 29, 8);
  const std::vector<NodeId> splits = {0, 60, 120, 180};
  const std::vector<Engine> engines = {Engine::kCopy, Engine::kMmap,
                                       Engine::kSharded};
  ScratchDir scan_dir("hipads_serve_test_hip_scan");
  ScratchDir hip_dir("hipads_serve_test_hip_resident");
  LoopbackFleet scan = MakeFleet(full, splits, engines, scan_dir, 2, false);
  LoopbackFleet hip = MakeFleet(full, splits, engines, hip_dir, 2, true);
  for (const RangeServer& server : hip.servers) {
    EXPECT_TRUE(server.backend->HipResident());
  }
  for (const RangeServer& server : scan.servers) {
    EXPECT_FALSE(server.backend->HipResident());
  }
  auto scan_router = FleetRouter::Connect(scan.manifest, scan.Factory());
  auto hip_router = FleetRouter::Connect(hip.manifest, hip.Factory());
  ASSERT_TRUE(scan_router.ok());
  ASSERT_TRUE(hip_router.ok());

  // Sweep: every wire-expressible collector, merged across the three
  // engines, bitwise equal to the single-process scan reference.
  std::vector<CollectorSpec> spec = FullSpec();
  Reference ref;
  RunReference(full, spec, &ref);
  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg sweep;
  sweep.collectors = spec;
  sweep.num_threads = 2;
  ASSERT_TRUE(hip_router.value().ExecuteSweep(sweep, built.value()).ok());
  ExpectCollectorsIdentical(spec, ref.collectors, built.value(), "hip sweep");

  // Lone points and one mixed batch: identical payload bytes.
  std::vector<PointRequestMsg> requests;
  for (NodeId v : {0u, 59u, 60u, 119u, 120u, 179u}) {
    PointRequestMsg r;
    r.kind = PointKind::kNodeStats;
    r.node = v;
    r.d = std::numeric_limits<double>::infinity();
    requests.push_back(r);
  }
  {
    PointRequestMsg r;
    r.kind = PointKind::kLookup;
    r.node = 65;
    r.targets = {0, 5, 91, 170};
    requests.push_back(r);
    r = PointRequestMsg{};
    r.kind = PointKind::kJaccard;
    r.node = 17;
    r.other = 140;  // spans two servers
    r.d = 3.0;
    requests.push_back(r);
  }
  for (const PointRequestMsg& r : requests) {
    auto a = scan_router.value().Point(r);
    auto b = hip_router.value().Point(r);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(EncodePointResponse(a.value()), EncodePointResponse(b.value()))
        << "node " << r.node;
  }
  std::vector<PointBatchResponseEntry> scan_batch =
      scan_router.value().PointBatch(requests);
  std::vector<PointBatchResponseEntry> hip_batch =
      hip_router.value().PointBatch(requests);
  ASSERT_EQ(scan_batch.size(), hip_batch.size());
  for (size_t i = 0; i < scan_batch.size(); ++i) {
    ASSERT_TRUE(scan_batch[i].status.ok()) << "entry " << i;
    ASSERT_TRUE(hip_batch[i].status.ok()) << "entry " << i;
    EXPECT_EQ(scan_batch[i].payload, hip_batch[i].payload) << "entry " << i;
  }
}

// Batched and single requests share ONE response cache: a batch entry is
// keyed on the canonical single-request bytes, so a batch warms exactly
// the entries lone calls then hit — and vice versa.
TEST(ServeTest, PointBatchSharesTheSingleRequestCache) {
  FlatAdsSet full = BuildFlat(120, 23, 8);
  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel channel(&core);
  AdsClient client(&channel);

  PointRequestMsg a;
  a.kind = PointKind::kNodeStats;
  a.node = 7;
  a.d = std::numeric_limits<double>::infinity();
  PointRequestMsg b = a;
  b.node = 8;

  // Batch fills; the lone call for the same request bytes hits.
  ASSERT_TRUE(client.PointBatch({a}).ok());
  EXPECT_EQ(core.point_cache_hits(), 0u);
  ASSERT_TRUE(client.Point(a).ok());
  EXPECT_EQ(core.point_cache_hits(), 1u);

  // Lone call fills; the batch carrying the same request hits — both
  // entries of this batch are already cached.
  ASSERT_TRUE(client.Point(b).ok());
  EXPECT_EQ(core.point_cache_hits(), 1u);
  ASSERT_TRUE(client.PointBatch({b, a}).ok());
  EXPECT_EQ(core.point_cache_hits(), 3u);
}

// A batch that carries one request twice misses once per copy, answers
// both with the same bytes and fills one cache entry, which the next
// batch hits for both copies.
TEST(ServeTest, PointBatchCarryingOneKeyTwiceFillsOneEntry) {
  FlatAdsSet full = BuildFlat(120, 23, 8);
  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel channel(&core);
  AdsClient client(&channel);
  PointRequestMsg a;
  a.kind = PointKind::kNodeStats;
  a.node = 9;
  a.d = 2.0;
  auto first = client.PointBatch({a, a});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(core.point_cache_hits(), 0u);
  auto second = client.PointBatch({a, a});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(core.point_cache_hits(), 2u);
  auto lone = client.Point(a);
  ASSERT_TRUE(lone.ok()) << lone.status().ToString();
  for (const auto* batch : {&first.value(), &second.value()}) {
    ASSERT_EQ(batch->size(), 2u);
    for (const PointBatchResponseEntry& entry : *batch) {
      ASSERT_TRUE(entry.status.ok()) << entry.status.ToString();
      EXPECT_EQ(entry.payload, EncodePointResponse(lone.value()));
    }
  }
}

// ResponseCache against a list model of the LRU it replaced (front = most
// recently used; a Put of a new key goes to the front and the back leaves
// once the list outgrows the capacity). Random Gets, Puts and their
// one-lock runs, with a key universe a little larger than the capacity so
// entries keep being evicted, must see the same hit or miss, the same
// response and the same hit count at every step. Values vary in length,
// so recycled slots both grow and shrink.
TEST(ServeTest, ResponseCacheKeepsTheListModelsOrderAndCounts) {
  for (size_t capacity : {0, 1, 2, 3, 64}) {
    ResponseCache cache(capacity, "test.response_cache");
    std::list<std::pair<std::string, std::string>> model;
    uint64_t model_hits = 0;
    auto model_get = [&](const std::string& key, std::string* value) {
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->first != key) continue;
        model.splice(model.begin(), model, it);
        *value = model.front().second;
        ++model_hits;
        return true;
      }
      return false;
    };
    auto model_put = [&](const std::string& key, const std::string& value) {
      if (capacity == 0) return;
      for (auto it = model.begin(); it != model.end(); ++it) {
        if (it->first != key) continue;
        it->second = value;
        model.splice(model.begin(), model, it);
        return;
      }
      model.emplace_front(key, value);
      while (model.size() > capacity) model.pop_back();
    };
    std::mt19937_64 rng(0xcac4e + capacity);
    const uint64_t universe = 2 * capacity + 3;
    auto key_of = [](uint64_t k) {
      // Keys shaped like point requests: equal length, equal prefixes.
      return std::string(32, 'k') + std::to_string(1000 + k);
    };
    auto value_of = [&rng](size_t step) {
      return std::to_string(step) + std::string(rng() % 80, 'v');
    };
    for (size_t step = 0; step < 50000; ++step) {
      switch (rng() % 8) {
        case 0:
        case 1:
        case 2: {
          const std::string key = key_of(rng() % universe);
          std::string got, want;
          ASSERT_EQ(cache.Get(key, &got), model_get(key, &want))
              << "capacity " << capacity << " step " << step;
          ASSERT_EQ(got, want) << "capacity " << capacity << " step " << step;
          break;
        }
        case 3:
        case 4:
        case 5: {
          const std::string key = key_of(rng() % universe);
          const std::string value = value_of(step);
          cache.Put(key, value);
          model_put(key, value);
          break;
        }
        case 6: {  // a run of Gets under one lock, keys possibly repeated
          std::vector<std::string> keys(1 + rng() % 5);
          for (std::string& k : keys) k = key_of(rng() % universe);
          std::vector<std::string_view> views(keys.begin(), keys.end());
          std::vector<std::string> got(keys.size());
          std::vector<bool> hit(keys.size(), false);
          cache.GetEach(views, [&](size_t i, std::string_view cached) {
            got[i].assign(cached);
            hit[i] = true;
          });
          for (size_t i = 0; i < keys.size(); ++i) {
            std::string want;
            ASSERT_EQ(hit[i], model_get(keys[i], &want))
                << "capacity " << capacity << " step " << step << " key " << i;
            ASSERT_EQ(got[i], want) << "capacity " << capacity << " step "
                                    << step << " key " << i;
          }
          break;
        }
        case 7: {  // a run of Puts under one lock, keys possibly repeated
          std::vector<std::pair<std::string, std::string>> pairs(1 +
                                                                 rng() % 5);
          for (auto& [k, v] : pairs) {
            k = key_of(rng() % universe);
            v = value_of(step);
          }
          cache.PutEach(pairs.size(), [&](size_t j) {
            return std::make_pair(std::string_view(pairs[j].first),
                                  std::string_view(pairs[j].second));
          });
          for (const auto& [k, v] : pairs) model_put(k, v);
          break;
        }
      }
      ASSERT_EQ(cache.hits(), model_hits)
          << "capacity " << capacity << " step " << step;
    }
    if (capacity >= 3) {
      EXPECT_GT(model_hits, 1000u) << capacity;
    }
  }
}

// The byte-identity matrix. Every point kind, lone and batched, through
// the owning range server and through a router, answers with the pinned
// bytes: XXH64 digests of the whole response frames, recorded from the
// build whose codec still decoded and re-encoded every entry at each hop.
// Each path runs twice, so the second run reads the point caches the first
// filled; each batch carries its first entry twice. The servers differ in
// storage (a scanning estimator, then stored HIP weights), which is
// invisible too.
TEST(ServeTest, PointAnswersMatchPinnedBytesOnEveryPath) {
  FlatAdsSet full = BuildFlat(160, 29, 8);
  ScratchDir dir("hipads_serve_test_matrix");
  LoopbackFleet fleet;
  fleet.manifest.num_nodes = full.num_nodes();
  for (NodeId begin : {0u, 80u}) {
    fleet.servers.push_back(MakeRangeServer(full, begin, begin + 80,
                                            Engine::kCopy, dir, "m", 1,
                                            /*hip=*/begin > 0));
    fleet.manifest.servers.push_back(
        FleetEntry{"loop:" + std::to_string(begin), begin, begin + 80});
  }
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  RouterCore router_core(&router.value());

  const double inf = std::numeric_limits<double>::infinity();
  auto point = [](PointKind kind, uint64_t node, double d,
                  uint64_t other = 0, std::vector<uint64_t> targets = {}) {
    PointRequestMsg r;
    r.kind = kind;
    r.node = node;
    r.d = d;
    r.other = other;
    r.targets = std::move(targets);
    return r;
  };
  const PointKind stats = PointKind::kNodeStats;
  struct Kind {
    const char* name;
    std::vector<PointRequestMsg> requests;
  };
  const std::vector<Kind> kinds = {
      {"stats_inf",
       {point(stats, 0, inf), point(stats, 17, inf), point(stats, 79, inf),
        point(stats, 80, inf), point(stats, 159, inf)}},
      {"stats_neg_inf", {point(stats, 3, -inf), point(stats, 90, -inf)}},
      {"stats_finite",
       {point(stats, 5, 0.0), point(stats, 5, 1.0), point(stats, 5, 2.5),
        point(stats, 100, 0.0), point(stats, 100, 1.0),
        point(stats, 100, 2.5)}},
      {"lookup",
       {point(PointKind::kLookup, 30, 0.0, 0, {0, 5, 91, 159, 1ull << 40}),
        point(PointKind::kLookup, 120, 0.0, 0, {1, 120}),
        point(PointKind::kLookup, 60, 0.0)}},
      {"jaccard_same",
       {point(PointKind::kJaccard, 3, 3.0, 40),
        point(PointKind::kJaccard, 85, 2.0, 150),
        point(PointKind::kJaccard, 9, inf, 9)}},
      {"jaccard_cross",
       {point(PointKind::kJaccard, 17, 3.0, 140),
        point(PointKind::kJaccard, 100, inf, 10)}},
      {"fetch",
       {point(PointKind::kFetchSketch, 130, 0.0),
        point(PointKind::kFetchSketch, 7, 0.0)}},
      {"not_found",
       {point(stats, 5000, inf), point(PointKind::kLookup, 160, 0.0, 0, {1}),
        point(PointKind::kJaccard, 4, 1.0, 999)}},
  };
  // Digests recorded per kind: server lone, server batch, router lone,
  // router batch.
  const std::vector<std::array<const char*, 4>> pinned = {
      {"198d330e47ce31ef", "68fd6ac07052a0fa", "198d330e47ce31ef",
       "c872e83aade7d209"},  // stats_inf
      {"b6b2008222696fb0", "63874c7b6da4cbf7", "b6b2008222696fb0",
       "80b76f48794628b8"},  // stats_neg_inf
      {"34938c781aae9ba9", "63e020eb4308099e", "34938c781aae9ba9",
       "1fddd78b79c5958d"},  // stats_finite
      {"e4c553ef0864de77", "dd87b19c8aba31d0", "e4c553ef0864de77",
       "781f1b21f7f9f972"},  // lookup
      {"633769c69d6d4cf1", "e212c706fa38f308", "633769c69d6d4cf1",
       "cc82a00538245008"},  // jaccard_same
      {"9aba978b194514bc", "31410142030763c9", "8271968b1e6da2ef",
       "827a4c634032177a"},  // jaccard_cross
      {"237d38494b76492e", "c665551dc99bdc08", "237d38494b76492e",
       "c6fc86758847a6fd"},  // fetch
      {"d53a00caa332452a", "bfaefe18dc79c6f4", "01ae3176045883ef",
       "ba5cb134d65760a8"},  // not_found
  };
  ASSERT_EQ(pinned.size(), kinds.size());

  auto handle = [](FrameHandler* handler, MessageType type,
                   const std::string& payload) {
    bool close = false;
    return handler->HandleFrame(EncodeFrame(type, payload), &close);
  };
  // The server a request goes to: its node's owner (server 0 past the
  // end of the node space).
  auto owner = [&](const PointRequestMsg& r) -> FrameHandler* {
    return fleet.servers[r.node >= 80 && r.node < 160 ? 1 : 0].core.get();
  };
  auto digest = [](const std::vector<std::string>& frames) {
    std::string all;
    for (const std::string& f : frames) {
      all += std::to_string(f.size()) + ":" + f;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      Xxh64(all.data(), all.size(), 0)));
    return std::string(hex);
  };
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::vector<PointRequestMsg> batch = kinds[k].requests;
    batch.push_back(batch.front());  // one key twice in a batch
    std::array<std::string, 4> got;
    for (int run = 0; run < 2; ++run) {
      std::array<std::vector<std::string>, 4> frames;
      for (const PointRequestMsg& r : kinds[k].requests) {
        frames[0].push_back(handle(owner(r), MessageType::kPointRequest,
                                   EncodePointRequest(r)));
        frames[2].push_back(handle(&router_core, MessageType::kPointRequest,
                                   EncodePointRequest(r)));
      }
      for (FrameHandler* server :
           {fleet.servers[0].core.get(), fleet.servers[1].core.get()}) {
        PointBatchRequestMsg own;
        for (const PointRequestMsg& r : batch) {
          if (owner(r) == server) own.entries.push_back(r);
        }
        if (own.entries.empty()) continue;
        frames[1].push_back(handle(server, MessageType::kPointBatchRequest,
                                   EncodePointBatchRequest(own)));
      }
      PointBatchRequestMsg all;
      all.entries = batch;
      frames[3].push_back(handle(&router_core,
                                 MessageType::kPointBatchRequest,
                                 EncodePointBatchRequest(all)));
      for (size_t p = 0; p < 4; ++p) {
        if (run == 0) {
          got[p] = digest(frames[p]);
        } else {
          EXPECT_EQ(digest(frames[p]), got[p])
              << kinds[k].name << " path " << p << " changed on a warm cache";
        }
      }
    }
    for (size_t p = 0; p < 4; ++p) {
      EXPECT_EQ(got[p], pinned[k][p]) << kinds[k].name << " path " << p;
    }
  }
}

// A serialized batch shares one fetch across a node's consecutive
// entries, but a Jaccard entry's second fetch evicts the first node's
// shard at max_resident = 1, so the share must end there: the entries
// after it (same node, another d; a lookup) fetch again. Each answer
// equals the lone call's bytes (under ASan, a kept share reads the
// evicted arena).
TEST(ServeTest, SerializedBatchEndsTheShareAtAJaccardEntry) {
  FlatAdsSet full = BuildFlat(120, 47, 8);
  ScratchDir dir("hipads_serve_test_jaccard_share");
  const std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(WriteShardedAdsSet(full, shard_dir, 2).ok());
  ShardedOptions sharded_options;
  sharded_options.max_resident = 1;
  auto sharded = ShardedAdsSet::Open(shard_dir, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded.value().shards().size(), 2u);
  ASSERT_FALSE(sharded.value().ImmutableReads());
  const NodeId u = sharded.value().shards()[0].begin + 3;
  const NodeId w = sharded.value().shards()[1].begin + 5;
  ServerOptions options;
  options.point_cache_entries = 0;
  AdsServerCore core(&sharded.value(), options);
  LoopbackChannel channel(&core);
  AdsClient client(&channel);

  std::vector<PointRequestMsg> batch(4);
  batch[0].kind = PointKind::kNodeStats;
  batch[0].node = u;
  batch[0].d = 2.0;
  batch[1].kind = PointKind::kJaccard;
  batch[1].node = u;
  batch[1].other = w;
  batch[1].d = 3.0;
  batch[2].kind = PointKind::kNodeStats;
  batch[2].node = u;
  batch[2].d = std::numeric_limits<double>::infinity();
  batch[3].kind = PointKind::kLookup;
  batch[3].node = u;
  batch[3].targets = {0, u, w, 119};
  auto batched = client.PointBatch(batch);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto lone = client.Point(batch[i]);
    ASSERT_TRUE(lone.ok()) << "entry " << i << ": " << lone.status().ToString();
    ASSERT_TRUE(batched.value()[i].status.ok())
        << "entry " << i << ": " << batched.value()[i].status.ToString();
    EXPECT_EQ(batched.value()[i].payload, EncodePointResponse(lone.value()))
        << "entry " << i;
  }
}

// A serialized backend (ImmutableReads() false) over a flat set whose
// Range() parks until the test releases it, so a sweep holds the core for
// as long as the test needs.
class ParkingBackend : public AdsBackend {
 public:
  explicit ParkingBackend(const FlatAdsSet* set) : inner_(set) {}

  SketchFlavor flavor() const override { return inner_.flavor(); }
  uint32_t k() const override { return inner_.k(); }
  const RankAssignment& ranks() const override { return inner_.ranks(); }
  size_t num_nodes() const override { return inner_.num_nodes(); }
  uint64_t TotalEntries() const override { return inner_.TotalEntries(); }
  uint32_t NumRanges() const override { return inner_.NumRanges(); }
  StatusOr<AdsView> ViewOf(NodeId v) const override {
    return inner_.ViewOf(v);
  }
  StatusOr<AdsArenaView> Range(uint32_t r) const override {
    MutexLock lock(mu_);
    parked_ = true;
    cv_.NotifyAll();
    while (!released_) cv_.Wait(mu_);
    return inner_.Range(r);
  }

  void WaitUntilParked() const {
    MutexLock lock(mu_);
    while (!parked_) cv_.Wait(mu_);
  }
  void Release() {
    MutexLock lock(mu_);
    released_ = true;
    cv_.NotifyAll();
  }

 private:
  FlatAdsBackend inner_;
  mutable Mutex mu_;
  mutable CondVar cv_;
  mutable bool parked_ HIPADS_GUARDED_BY(mu_) = false;
  bool released_ HIPADS_GUARDED_BY(mu_) = false;
};

// The real shed path: while a sweep holds a serialized core, a lone point
// and every entry of a batch come back Unavailable, and serve.shed.busy
// rises by the number of requests shed. Once the sweep is done, the same
// point answers with the bytes an immutable core gives.
TEST(ServeTest, SerializedCoreShedsPointsWhileASweepHoldsIt) {
  FlatAdsSet full = BuildFlat(60, 31, 4);
  ParkingBackend parking(&full);
  ASSERT_FALSE(parking.ImmutableReads());
  AdsServerCore core(&parking, ServerOptions{});
  FlatAdsBackend flat(&full);
  AdsServerCore immutable(&flat, ServerOptions{});
  LoopbackChannel channel(&core);
  AdsClient client(&channel);

  PointRequestMsg point;
  point.kind = PointKind::kNodeStats;
  point.node = 17;
  point.d = std::numeric_limits<double>::infinity();
  std::vector<PointRequestMsg> batch(3, point);
  batch[1].node = 23;
  batch[2].kind = PointKind::kLookup;
  batch[2].targets = {1, 2, 3};

  SweepRequestMsg sweep;
  sweep.collectors = {{CollectorKind::kHarmonic, 0, 0, 0.0}};
  sweep.num_threads = 1;
  const std::string sweep_frame =
      EncodeFrame(MessageType::kSweepRequest, EncodeSweepRequest(sweep));
  std::string sweep_response;
  std::thread sweeper([&] {
    bool close_connection = false;
    sweep_response = core.HandleFrame(sweep_frame, &close_connection);
  });
  parking.WaitUntilParked();

  MetricCounter* shed_busy = MetricsRegistry::Get().Counter("serve.shed.busy");
  const uint64_t shed_before = shed_busy->value();
  auto lone = client.Point(point);
  EXPECT_EQ(lone.status().code(), Status::Code::kUnavailable)
      << lone.status().ToString();
  auto batched = client.PointBatch(batch);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched.value()[i].status.code(), Status::Code::kUnavailable)
        << "entry " << i << ": " << batched.value()[i].status.ToString();
  }
  EXPECT_EQ(shed_busy->value() - shed_before, 1 + batch.size());

  parking.Release();
  sweeper.join();
  auto swept = DecodeFrame(sweep_response);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(swept.value().type, MessageType::kSweepResponse);
  const std::string point_frame =
      EncodeFrame(MessageType::kPointRequest, EncodePointRequest(point));
  bool close_connection = false;
  EXPECT_EQ(core.HandleFrame(point_frame, &close_connection),
            immutable.HandleFrame(point_frame, &close_connection));
}

// A channel wrapper counting batch request frames — how the coalescing
// tests observe that concurrent calls actually traveled batched.
class BatchCountingChannel : public Channel {
 public:
  BatchCountingChannel(std::unique_ptr<Channel> inner,
                       std::atomic<uint64_t>* batch_frames)
      : inner_(std::move(inner)), batch_frames_(batch_frames) {}
  using Channel::Call;
  Status Call(std::string_view request, Frame* response,
              const Deadline& deadline) override {
    auto frame = DecodeFrame(request);
    if (frame.ok() &&
        frame.value().type == MessageType::kPointBatchRequest) {
      batch_frames_->fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->Call(request, response, deadline);
  }

 private:
  std::unique_ptr<Channel> inner_;
  std::atomic<uint64_t>* batch_frames_;
};

// Runs `n` concurrent Point calls through `router` and asserts every
// response is byte-identical to the uncoalesced `plain` router's answer.
void ExpectConcurrentPointsMatch(FleetRouter& router, FleetRouter& plain,
                                 int n) {
  std::vector<PointRequestMsg> requests(n);
  for (int t = 0; t < n; ++t) {
    requests[t].kind = PointKind::kNodeStats;
    requests[t].node = static_cast<NodeId>((t * 13) % 80);
    requests[t].d = std::numeric_limits<double>::infinity();
  }
  std::vector<StatusOr<PointResponseMsg>> got(
      n, StatusOr<PointResponseMsg>(Status::Unavailable("pending")));
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&router, &requests, &got, t] {
      got[t] = router.Point(requests[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < n; ++t) {
    ASSERT_TRUE(got[t].ok()) << "call " << t << ": "
                             << got[t].status().ToString();
    auto expected = plain.Point(requests[t]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(EncodePointResponse(got[t].value()),
              EncodePointResponse(expected.value()))
        << "call " << t;
  }
}

// Concurrent callers through a coalescing router get exactly the bytes
// their lone calls would have, and at least some of them travel in one
// batch frame (the 200 ms window dwarfs thread spawn time, so the first
// caller leads and the rest join its batch).
TEST(ServeTest, CoalescedPointsMatchSingleCallsBitwise) {
  FlatAdsSet full = BuildFlat(160, 29, 8);
  ScratchDir dir("hipads_serve_test_coalesce");
  LoopbackFleet fleet = MakeFleet(full, {0, 80, 160},
                                  {Engine::kCopy, Engine::kCopy}, dir, 1);
  std::atomic<uint64_t> batch_frames{0};
  ChannelFactory factory = fleet.Factory();
  ChannelFactory counting =
      [&factory, &batch_frames](const std::string& address)
      -> StatusOr<std::unique_ptr<Channel>> {
    auto inner = factory(address);
    if (!inner.ok()) return inner.status();
    return std::unique_ptr<Channel>(std::make_unique<BatchCountingChannel>(
        std::move(inner).value(), &batch_frames));
  };
  RouterOptions options;
  options.coalesce_window_us = 200000;
  auto router = FleetRouter::Connect(fleet.manifest, counting, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto plain = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  ASSERT_TRUE(plain.ok());

  ExpectConcurrentPointsMatch(router.value(), plain.value(), 6);
  EXPECT_GE(batch_frames.load(), 1u) << "no call was coalesced";
}

// The HIPADS_COALESCE_WINDOW_US environment knob (how CI's tsan lane
// forces this path on) turns coalescing on when the option is unset.
TEST(ServeTest, CoalesceWindowEnvKnobForcesTheBatchPath) {
  FlatAdsSet full = BuildFlat(160, 37, 8);
  ScratchDir dir("hipads_serve_test_coalesce_env");
  LoopbackFleet fleet = MakeFleet(full, {0, 80, 160},
                                  {Engine::kCopy, Engine::kCopy}, dir, 1);
  std::atomic<uint64_t> batch_frames{0};
  ChannelFactory factory = fleet.Factory();
  ChannelFactory counting =
      [&factory, &batch_frames](const std::string& address)
      -> StatusOr<std::unique_ptr<Channel>> {
    auto inner = factory(address);
    if (!inner.ok()) return inner.status();
    return std::unique_ptr<Channel>(std::make_unique<BatchCountingChannel>(
        std::move(inner).value(), &batch_frames));
  };
  // Restore the variable's previous value afterwards (CI's second tsan run
  // sets it for the whole suite), so later cases run under the same one.
  const char* prev = std::getenv("HIPADS_COALESCE_WINDOW_US");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>(prev) : std::nullopt;
  ASSERT_EQ(setenv("HIPADS_COALESCE_WINDOW_US", "200000", 1), 0);
  auto router = FleetRouter::Connect(fleet.manifest, counting);
  if (saved.has_value()) {
    setenv("HIPADS_COALESCE_WINDOW_US", saved->c_str(), 1);
  } else {
    unsetenv("HIPADS_COALESCE_WINDOW_US");
  }
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto plain = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  ASSERT_TRUE(plain.ok());

  ExpectConcurrentPointsMatch(router.value(), plain.value(), 6);
  EXPECT_GE(batch_frames.load(), 1u) << "env knob did not enable coalescing";
}

// The coalescing window bounds the flush time a batch leader computes:
// an option or environment value above kMaxCoalesceWindowUs, or an
// environment value that is not a plain decimal integer, fails Connect
// instead of overflowing the clock or reading as some other window.
TEST(ServeTest, CoalesceWindowOutsideItsBoundFailsConnect) {
  FlatAdsSet full = BuildFlat(40, 43, 4);
  ScratchDir dir("hipads_serve_test_coalesce_bound");
  LoopbackFleet fleet = MakeFleet(full, {0, 20, 40},
                                  {Engine::kCopy, Engine::kCopy}, dir, 1);
  RouterOptions options;
  options.coalesce_window_us = kMaxCoalesceWindowUs + 1;
  auto over = FleetRouter::Connect(fleet.manifest, fleet.Factory(), options);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), Status::Code::kInvalidArgument);

  const char* prev = std::getenv("HIPADS_COALESCE_WINDOW_US");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>(prev) : std::nullopt;
  for (const char* value :
       {"abc", "12x", "-5", "+5", " 5", "1000001", "18446744073709551616"}) {
    ASSERT_EQ(setenv("HIPADS_COALESCE_WINDOW_US", value, 1), 0);
    auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
    ASSERT_FALSE(router.ok()) << "'" << value << "'";
    EXPECT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  ASSERT_EQ(setenv("HIPADS_COALESCE_WINDOW_US", "1000000", 1), 0);
  auto at_bound = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  if (saved.has_value()) {
    setenv("HIPADS_COALESCE_WINDOW_US", saved->c_str(), 1);
  } else {
    unsetenv("HIPADS_COALESCE_WINDOW_US");
  }
  EXPECT_TRUE(at_bound.ok()) << at_bound.status().ToString();
}

// A plain client socket on a local TcpServer, for tests that control
// exactly which bytes reach the server and when. TCP_NODELAY keeps each
// Send its own segment; reads give up after 5 s, so a server that never
// answers fails the test instead of hanging it.
class RawConnection {
 public:
  explicit RawConnection(uint16_t port)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  bool connected() const { return connected_; }
  /// True once a read saw the server close the connection.
  bool eof() const { return eof_; }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      ssize_t put = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (put <= 0) return false;
      bytes.remove_prefix(static_cast<size_t>(put));
    }
    return true;
  }

  /// Up to `n` bytes; fewer on EOF, a socket error or the read timeout.
  std::string Receive(size_t n) {
    std::string out(n, '\0');
    size_t done = 0;
    while (done < n) {
      ssize_t got = ::read(fd_, out.data() + done, n - done);
      if (got == 0) eof_ = true;
      if (got <= 0) break;
      done += static_cast<size_t>(got);
    }
    out.resize(done);
    return out;
  }

 private:
  const int fd_;
  bool connected_ = false;
  bool eof_ = false;
};

// TcpServer reads each frame in one piece however its bytes arrive: a
// request split in two at every offset — inside its header, and inside
// its payload, where the server reads before it waits — the halves 1 ms
// apart, is answered exactly as the core answers the whole frame.
TEST(ServeTest, TcpServerReassemblesFramesSplitAtEveryOffset) {
  FlatAdsSet full = BuildFlat(80, 41, 4);
  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  TcpServer server(&core, TcpServerOptions{0, 1});
  ASSERT_TRUE(server.Start().ok());

  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.node = 17;
  request.d = std::numeric_limits<double>::infinity();
  const std::string frame =
      EncodeFrame(MessageType::kPointRequest, EncodePointRequest(request));
  bool close_connection = false;
  const std::string expected = core.HandleFrame(frame, &close_connection);
  ASSERT_FALSE(close_connection);

  RawConnection conn(server.port());
  ASSERT_TRUE(conn.connected());
  const std::string_view whole(frame);
  for (size_t split = 1; split < whole.size(); ++split) {
    ASSERT_TRUE(conn.Send(whole.substr(0, split)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(conn.Send(whole.substr(split)));
    ASSERT_EQ(conn.Receive(expected.size()), expected) << "split at " << split;
  }
}

// A worker count above kMaxTcpWorkers fails Start before any thread or
// socket exists: nothing is bound, and Stop has nothing to join.
TEST(ServeTest, TcpServerRejectsMoreWorkersThanItsBound) {
  FlatAdsSet full = BuildFlat(20, 3, 4);
  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  for (uint32_t workers :
       {kMaxTcpWorkers + 1, std::numeric_limits<uint32_t>::max()}) {
    TcpServer server(&core, {0, workers});
    Status started = server.Start();
    EXPECT_EQ(started.code(), Status::Code::kInvalidArgument)
        << workers << ": " << started.ToString();
    EXPECT_EQ(server.port(), 0) << workers;
    server.Stop();
  }
}

// The mid-frame stall bound: a client that sends part of a header and
// stops is disconnected once idle_timeout_ms passes, with no response,
// and the freed worker goes on to serve the next connection.
TEST(ServeTest, TcpServerDropsAStalledHeaderAfterTheIdleTimeout) {
  FlatAdsSet full = BuildFlat(40, 43, 4);
  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  TcpServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_ms = 100;
  TcpServer server(&core, options);
  ASSERT_TRUE(server.Start().ok());
  const std::string frame = EncodeFrame(MessageType::kInfoRequest, "");

  RawConnection stalled(server.port());
  ASSERT_TRUE(stalled.connected());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(stalled.Send(std::string_view(frame).substr(0, 20)));
  EXPECT_EQ(stalled.Receive(1), "");
  EXPECT_TRUE(stalled.eof()) << "connection still open past the timeout";
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(100));

  bool close_connection = false;
  const std::string expected = core.HandleFrame(frame, &close_connection);
  RawConnection next(server.port());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.Send(frame));
  EXPECT_EQ(next.Receive(expected.size()), expected);
}

// This process's resident set in KiB, from /proc/self/status; 0 where it
// cannot be read.
uint64_t ResidentKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// A valid header of `type` that announces `payload_bytes` of payload, of
// which none follows. The length field sits at byte 16, after the 8-byte
// magic and the 32-bit version and type.
std::string HeaderClaiming(MessageType type, uint64_t payload_bytes) {
  std::string header = EncodeFrame(type, "");
  std::memcpy(header.data() + 16, &payload_bytes, sizeof(payload_bytes));
  FrameHeader decoded;
  EXPECT_TRUE(
      DecodeFrameHeaderPrefix(header.data(), header.size(), &decoded).ok());
  EXPECT_EQ(decoded.payload_bytes, payload_bytes);
  return header;
}

constexpr uint64_t kClaimedPayload = uint64_t{256} << 20;
constexpr uint64_t kStallRssBoundKib = uint64_t{32} << 10;

// A peer that announces a large frame and stalls costs the server what it
// sent, not what it claimed: two connections each claim 256 MiB and send
// no payload byte, and while they wait (with no idle timeout, as `serve`
// defaults) the process grows by less than 32 MiB. A third worker still
// answers a fresh connection.
TEST(ServeTest, StalledFrameClaimsDoNotAllocateTheirPayload) {
  FlatAdsSet full = BuildFlat(40, 45, 4);
  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  TcpServer server(&core, TcpServerOptions{0, 3});
  ASSERT_TRUE(server.Start().ok());
  const std::string info = EncodeFrame(MessageType::kInfoRequest, "");
  bool close_connection = false;
  const std::string expected = core.HandleFrame(info, &close_connection);
  {
    RawConnection warm(server.port());
    ASSERT_TRUE(warm.Send(info));
    ASSERT_EQ(warm.Receive(expected.size()), expected);
  }
  const uint64_t before = ResidentKib();
  if (before == 0) GTEST_SKIP() << "no VmRSS in /proc/self/status";

  RawConnection first(server.port());
  RawConnection second(server.port());
  ASSERT_TRUE(first.connected() && second.connected());
  const std::string claim =
      HeaderClaiming(MessageType::kPointRequest, kClaimedPayload);
  ASSERT_TRUE(first.Send(claim));
  ASSERT_TRUE(second.Send(claim));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const uint64_t during = ResidentKib();

  RawConnection fresh(server.port());
  ASSERT_TRUE(fresh.Send(info));
  EXPECT_EQ(fresh.Receive(expected.size()), expected);
  EXPECT_LT(during - std::min(during, before), kStallRssBoundKib)
      << "VmRSS went from " << before << " to " << during << " KiB";
}

// The client's frame reader grows its buffer the same way: a server that
// answers with a header claiming 256 MiB and then stalls costs the caller
// no more than the first chunk until its 300 ms deadline fails the call.
TEST(ServeTest, StalledResponseClaimDoesNotAllocateItsPayload) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::string claim =
      HeaderClaiming(MessageType::kInfoResponse, kClaimedPayload);
  std::atomic<bool> release{false};
  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char request[kFrameHeaderBytes];
    size_t got = 0;
    while (got < sizeof(request)) {
      const ssize_t n = ::read(fd, request + got, sizeof(request) - got);
      if (n <= 0) break;
      got += static_cast<size_t>(n);
    }
    if (got == sizeof(request)) {
      (void)!::write(fd, claim.data(), claim.size());
    }
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(fd);
  });

  auto channel = TcpChannel::Connect("127.0.0.1", ntohs(addr.sin_port));
  Status called = channel.status();
  uint64_t before = 0;
  uint64_t during = 0;
  if (channel.ok()) {
    before = ResidentKib();
    std::thread caller([&] {
      Frame response;
      called = channel.value()->Call(
          EncodeFrame(MessageType::kInfoRequest, ""), &response,
          Deadline::AfterMs(300));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    during = ResidentKib();
    caller.join();
  }
  // Joined on every path: shutting the listener down also ends an accept
  // that never got its connection.
  release = true;
  ::shutdown(listener, SHUT_RDWR);
  peer.join();
  ::close(listener);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  if (before == 0) GTEST_SKIP() << "no VmRSS in /proc/self/status";
  EXPECT_EQ(called.code(), Status::Code::kDeadlineExceeded)
      << called.ToString();
  EXPECT_LT(during - std::min(during, before), kStallRssBoundKib)
      << "VmRSS went from " << before << " to " << during << " KiB";
}

// A channel whose sweep calls fail (the wire analog of a server dying
// between handshake and query).
class DyingChannel : public Channel {
 public:
  explicit DyingChannel(FrameHandler* handler) : inner_(handler) {}
  using Channel::Call;
  Status Call(std::string_view request, Frame* response,
              const Deadline& deadline) override {
    auto frame = DecodeFrame(request);
    if (frame.ok() && frame.value().type == MessageType::kSweepRequest) {
      return Status::IOError("server died mid-sweep");
    }
    return inner_.Call(request, response, deadline);
  }

 private:
  LoopbackChannel inner_;
};

TEST(ServeTest, DeadOrMissingServerFailsClosed) {
  FlatAdsSet full = BuildFlat(160, 13, 4);
  ScratchDir dir("hipads_serve_test_dead");
  LoopbackFleet fleet = MakeFleet(full, {0, 80, 160},
                                  {Engine::kCopy, Engine::kCopy}, dir, 1);

  // A server missing at connect time fails the fleet handshake.
  {
    auto factory = fleet.Factory();
    auto broken = [&factory](const std::string& address)
        -> StatusOr<std::unique_ptr<Channel>> {
      if (address == "loop:1") {
        return Status::IOError("connection refused");
      }
      return factory(address);
    };
    auto router = FleetRouter::Connect(fleet.manifest, broken);
    EXPECT_FALSE(router.ok());
  }

  // A server dying between handshake and sweep fails the whole sweep.
  {
    auto factory = fleet.Factory();
    auto dying = [&fleet, &factory](const std::string& address)
        -> StatusOr<std::unique_ptr<Channel>> {
      if (address == "loop:1") {
        return std::unique_ptr<Channel>(
            std::make_unique<DyingChannel>(fleet.servers[1].core.get()));
      }
      return factory(address);
    };
    auto router = FleetRouter::Connect(fleet.manifest, dying);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    std::vector<CollectorSpec> spec = FullSpec();
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    ASSERT_TRUE(built.ok());
    SweepRequestMsg request;
    request.collectors = spec;
    Status swept = router.value().ExecuteSweep(request, built.value());
    EXPECT_FALSE(swept.ok());
    EXPECT_EQ(swept.code(), Status::Code::kIOError);
  }

  // A manifest range nobody serves is rejected at connect.
  {
    FleetManifest wrong = fleet.manifest;
    wrong.servers[1].begin = 100;  // gap [80, 100)
    EXPECT_FALSE(ValidateFleetManifest(wrong).ok());
    EXPECT_FALSE(FleetRouter::Connect(wrong, fleet.Factory()).ok());
  }
  // A server reporting a different range than the manifest assigns fails
  // the handshake.
  {
    FleetManifest lying = fleet.manifest;
    lying.num_nodes = 170;
    lying.servers[1].end = 170;
    EXPECT_FALSE(FleetRouter::Connect(lying, fleet.Factory()).ok());
  }
}

TEST(ServeTest, FleetManifestRoundTripsAndRejectsMalformed) {
  FleetManifest manifest;
  manifest.num_nodes = 400;
  manifest.servers = {{"10.0.0.1:7470", 0, 198},
                      {"10.0.0.2:7470", 198, 400}};
  std::string text = SerializeFleetManifest(manifest);
  auto parsed = ParseFleetManifest(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().num_nodes, 400u);
  ASSERT_EQ(parsed.value().servers.size(), 2u);
  EXPECT_EQ(parsed.value().servers[1].address, "10.0.0.2:7470");
  EXPECT_EQ(parsed.value().servers[1].begin, 198u);
  EXPECT_EQ(SerializeFleetManifest(parsed.value()), text);

  const char* bad[] = {
      "not-a-manifest\nnodes 4\nserver 0 4 a:1\n",
      "hipads-fleet-v1\nserver 0 4 a:1\n",              // no nodes line
      "hipads-fleet-v1\nnodes 4\n",                     // no servers
      "hipads-fleet-v1\nnodes 4\nserver 0 3 a:1\n",     // does not reach N
      "hipads-fleet-v1\nnodes 4\nserver 0 2 a:1\nserver 3 4 b:1\n",  // gap
      "hipads-fleet-v1\nnodes 4\nserver 0 3 a:1\nserver 2 4 b:1\n",  // overlap
      "hipads-fleet-v1\nnodes 4\nserver 2 2 a:1\nserver 2 4 b:1\n",  // empty
      "hipads-fleet-v1\nnodes 4\nserver 0 4\n",         // missing address
      "hipads-fleet-v1\nnodes 4\nwhat 0 4 a:1\n",       // unknown line
  };
  for (const char* text_case : bad) {
    EXPECT_FALSE(ParseFleetManifest(text_case).ok()) << text_case;
  }

  // A first range starting past 0 is a sub-fleet (an inner tier of a
  // stacked router tree), not an error.
  auto sub = ParseFleetManifest("hipads-fleet-v1\nnodes 4\nserver 1 4 a:1\n");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(sub.value().servers.front().begin, 1u);
}

// The real-socket path: two TCP range servers, a TCP-connected router,
// results bitwise equal to the reference. Ephemeral ports, loopback
// interface — deterministic enough for ctest.
TEST(ServeTest, TcpFleetEndToEnd) {
  FlatAdsSet full = BuildFlat(160, 17, 8);
  ScratchDir dir("hipads_serve_test_tcp");
  std::vector<CollectorSpec> spec = FullSpec();
  Reference ref;
  RunReference(full, spec, &ref);

  LoopbackFleet fleet = MakeFleet(full, {0, 80, 160},
                                  {Engine::kCopy, Engine::kCopy}, dir, 1);
  TcpServer server0(fleet.servers[0].core.get(), {0, 2});
  TcpServer server1(fleet.servers[1].core.get(), {0, 2});
  ASSERT_TRUE(server0.Start().ok());
  ASSERT_TRUE(server1.Start().ok());

  FleetManifest manifest;
  manifest.num_nodes = full.num_nodes();
  manifest.servers = {
      {"127.0.0.1:" + std::to_string(server0.port()), 0, 80},
      {"127.0.0.1:" + std::to_string(server1.port()), 80, 160}};
  auto router = FleetRouter::Connect(manifest, TcpChannelFactory());
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg request;
  request.collectors = spec;
  request.num_threads = 2;
  ASSERT_TRUE(router.value().ExecuteSweep(request, built.value()).ok());
  ExpectCollectorsIdentical(spec, ref.collectors, built.value(), "tcp fleet");

  // Cross-server point query over TCP.
  PointRequestMsg jaccard;
  jaccard.kind = PointKind::kJaccard;
  jaccard.node = 10;
  jaccard.other = 150;
  jaccard.d = 2.0;
  auto response = router.value().Point(jaccard);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().values[0],
            JaccardSimilarity(full.of(10), full.of(150), 2.0, full.k,
                              full.ranks.sup()));

  server0.Stop();
  server1.Stop();
}

#ifdef HIPADS_CLI_PATH

int RunCli(const std::string& args, const std::string& stdout_path,
           const std::string& stderr_path = "/dev/null") {
  std::string command = std::string(HIPADS_CLI_PATH) + " " + args + " > " +
                        stdout_path + " 2>" + stderr_path;
  int rc = std::system(command.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream contents;
  contents << f.rdbuf();
  return contents.str();
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

// A TCP port that nothing listens on: bind an ephemeral port, read its
// number, close it.
uint16_t ClosedPort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

// A server that answers every frame with bytes that are not a frame.
class GarbageHandler : public FrameHandler {
 public:
  std::string HandleFrame(std::string_view, bool* close_connection) override {
    *close_connection = false;
    return std::string(64, 'x');
  }
};

// The CLI acceptance: remote failures exit nonzero with NO partial output.
TEST(ServeTest, CliRemoteFailuresExitNonzeroWithNoOutput) {
  ScratchDir dir("hipads_serve_test_cli_fail");
  // Dead server: connection refused.
  {
    std::string out = dir.file("dead.out");
    int rc = RunCli("stats --remote 127.0.0.1:" +
                        std::to_string(ClosedPort()),
                    out);
    EXPECT_NE(rc, 0);
    EXPECT_EQ(FileSize(out), 0u) << "partial output on dead server";
  }
  // Malforming server: responses that are not frames.
  {
    GarbageHandler garbage;
    TcpServer server(&garbage, {0, 1});
    ASSERT_TRUE(server.Start().ok());
    std::string out = dir.file("garbage.out");
    int rc = RunCli("stats --remote 127.0.0.1:" +
                        std::to_string(server.port()),
                    out);
    EXPECT_NE(rc, 0);
    EXPECT_EQ(FileSize(out), 0u) << "partial output on malformed frames";
    std::string out2 = dir.file("garbage-query.out");
    rc = RunCli("query --remote 127.0.0.1:" +
                    std::to_string(server.port()) + " --node 1",
                out2);
    EXPECT_NE(rc, 0);
    EXPECT_EQ(FileSize(out2), 0u);
    server.Stop();
  }
}

// A stats endpoint whose only trace span carries control bytes in its
// label and name, as a peer's raw bytes may.
class ControlByteSpanHandler : public FrameHandler {
 public:
  std::string HandleFrame(std::string_view, bool* close_connection) override {
    *close_connection = false;
    StatsResponseMsg stats;
    TraceSpanMsg span;
    span.label = "edge\x01\x1f";
    span.name = "tab\there";
    span.trace_lo = 1;
    stats.spans.push_back(span);
    return EncodeFrame(MessageType::kStatsResponse,
                       EncodeStatsResponse(stats));
  }
};

// trace-dump writes span labels and names off the wire as JSON strings
// with every control byte escaped, so its output stays valid JSON.
TEST(ServeTest, CliTraceDumpEscapesControlBytes) {
  ScratchDir dir("hipads_serve_test_trace_dump");
  ControlByteSpanHandler handler;
  TcpServer server(&handler, {0, 1});
  ASSERT_TRUE(server.Start().ok());
  const std::string json = dir.file("trace.json");
  ASSERT_EQ(RunCli("trace-dump --remote 127.0.0.1:" +
                       std::to_string(server.port()) + " --out " + json,
                   dir.file("stdout.txt")),
            0);
  server.Stop();
  const std::string dumped = ReadFile(json);
  EXPECT_NE(dumped.find("\"edge\\u0001\\u001f\""), std::string::npos)
      << dumped;
  EXPECT_NE(dumped.find("\"tab\\u0009here\""), std::string::npos) << dumped;
  // No byte below 0x20 is left raw but the closing newline.
  ASSERT_FALSE(dumped.empty());
  for (size_t i = 0; i + 1 < dumped.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(dumped[i]), 0x20) << "byte " << i;
  }
}

// Positive CLI end-to-end: `stats`/`query` print byte-identical output
// from a flat file, from its 4-shard directory and with `--remote` against
// an in-process TCP server — point queries included, which answer through
// the same router and server code locally (over a loopback channel) as
// remotely. An out-of-range node fails alike everywhere: exit 1 with the
// router's NotFound and nothing on stdout.
TEST(ServeTest, CliRemoteMatchesLocalByteForByte) {
  FlatAdsSet full = BuildFlat(150, 19, 8);
  ScratchDir dir("hipads_serve_test_cli_ok");
  std::string set_path = dir.file("set.ads2");
  std::string shard_dir = dir.file("shards");
  ASSERT_TRUE(
      WriteAdsSetFile(full, set_path, AdsFileFormat::kBinaryV2).ok());
  ASSERT_TRUE(WriteShardedAdsSet(full, shard_dir, 4).ok());

  FlatAdsBackend backend(&full);
  AdsServerCore core(&backend, ServerOptions{});
  TcpServer server(&core, {0, 2});
  ASSERT_TRUE(server.Start().ok());
  std::string remote = "127.0.0.1:" + std::to_string(server.port());

  struct Case {
    const char* name;
    std::string command;  // run against each source below
    int exit_code = 0;
  };
  const std::vector<Case> cases = {
      {"stats",
       "stats --top 4 --distance-quantile 0.5 --qg exp --qg-param 0.5"},
      {"query-top", "query --top 3"},
      {"query-node", "query --node 7"},
      {"query-distance", "query --node 7 --distance 2"},
      {"query-distance-inf", "query --node 7 --distance inf"},
      {"query-lookup", "query --node 7 --lookup 1,2,140"},
      {"query-jaccard", "query --node 7 --jaccard 9 --distance 3"},
      {"query-node-out-of-range", "query --node 150", 1},
  };
  const std::vector<std::string> sources = {
      "--sketches " + set_path, "--sketches " + shard_dir,
      "--remote " + remote};
  for (const Case& c : cases) {
    std::vector<std::string> outputs;
    for (const std::string& source : sources) {
      std::string out =
          dir.file(std::string(c.name) + "." +
                   std::to_string(outputs.size()));
      ASSERT_EQ(RunCli(c.command + " " + source, out), c.exit_code)
          << c.name << " " << source;
      outputs.push_back(ReadFile(out));
    }
    EXPECT_EQ(outputs[0].empty(), c.exit_code != 0) << c.name;
    EXPECT_EQ(outputs[1], outputs[0]) << c.name << ": shards";
    EXPECT_EQ(outputs[2], outputs[0]) << c.name << ": remote";
  }
  server.Stop();
}

// `--threads` is clamped to the hardware count, as a sweep request's
// thread count is on the wire, and no output depends on it.
TEST(ServeTest, CliThreadsOverTheHardwareCountMatchOneThread) {
  FlatAdsSet full = BuildFlat(150, 19, 8);
  ScratchDir dir("hipads_serve_test_cli_threads");
  const std::string set_path = dir.file("set.ads2");
  ASSERT_TRUE(
      WriteAdsSetFile(full, set_path, AdsFileFormat::kBinaryV2).ok());
  const std::string stats =
      "stats --sketches " + set_path + " --top 4 --threads ";
  const std::string over = std::to_string(uint64_t{HardwareThreads()} + 1);
  ASSERT_EQ(RunCli(stats + "1", dir.file("one.out")), 0);
  ASSERT_EQ(RunCli(stats + over, dir.file("over.out")), 0);
  const std::string one = ReadFile(dir.file("one.out"));
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(ReadFile(dir.file("over.out")), one);
}

// `convert` is the one command that reads v1 text: a v2 sketch converted
// to v1 and back is byte-equal to the original, and a serving command
// refuses the v1 copy with exit 1 and nothing on stdout. A text `sketch`
// without `--out` does not take the default `--sketches` name.
TEST(ServeTest, CliConvertIsTheOnlyReaderOfV1Text) {
  ScratchDir dir("hipads_serve_test_cli_convert");
  const std::string graph = dir.file("g.txt");
  ASSERT_TRUE(
      WriteEdgeListFile(ErdosRenyi(50, 120, /*undirected=*/true, 3), graph)
          .ok());
  const std::string v2 = dir.file("s.ads2");
  const std::string v1 = dir.file("s.ads");
  const std::string back = dir.file("back.ads2");
  const std::string out = dir.file("stdout.txt");
  ASSERT_EQ(RunCli("sketch --graph " + graph + " --k 4 --out " + v2, out),
            0);
  ASSERT_EQ(RunCli("convert --in " + v2 + " --format text --out " + v1, out),
            0);
  ASSERT_EQ(RunCli("convert --in " + v1 + " --out " + back, out), 0);
  const std::string original = ReadFile(v2);
  EXPECT_FALSE(original.empty());
  EXPECT_EQ(ReadFile(back), original);
  EXPECT_EQ(RunCli("stats --sketches " + v1, out), 1);
  EXPECT_EQ(FileSize(out), 0u);

  const std::string in_dir = "cd " + dir.path + " && " + HIPADS_CLI_PATH +
                             " sketch --graph g.txt --k 4 --format text" +
                             " > /dev/null 2>&1";
  ASSERT_EQ(std::system(in_dir.c_str()), 0);
  EXPECT_TRUE(std::filesystem::exists(dir.file("sketches.ads")));
  EXPECT_FALSE(std::filesystem::exists(dir.file("sketches.ads2")));
}

// `sketch --k` takes 1 .. 2^32 - 1. Zero and values that would wrap in
// uint32_t exit 2 and write no file, on both builder paths: DP for
// unit-weight graphs, pruned Dijkstra for weighted ones.
TEST(ServeTest, CliSketchRejectsInvalidK) {
  ScratchDir dir("hipads_serve_test_cli_k");
  const std::string unit = dir.file("unit.txt");
  const std::string weighted = dir.file("weighted.txt");
  Graph g = ErdosRenyi(50, 120, /*undirected=*/true, 3);
  ASSERT_TRUE(WriteEdgeListFile(g, unit).ok());
  ASSERT_TRUE(
      WriteEdgeListFile(RandomizeWeights(g, 0.5, 2.0, 5), weighted).ok());
  const std::string out = dir.file("s.ads");
  for (const std::string& graph : {unit, weighted}) {
    for (const char* k : {"0", "4294967296"}) {
      int rc = RunCli(
          "sketch --graph " + graph + " --k " + k + " --out " + out,
          dir.file("stdout.txt"));
      EXPECT_EQ(rc, 2) << graph << " --k " << k;
      EXPECT_FALSE(std::filesystem::exists(out)) << graph << " --k " << k;
    }
  }
  ASSERT_EQ(RunCli("sketch --graph " + unit + " --k 4 --out " + out,
                   dir.file("stdout.txt")),
            0);
  EXPECT_TRUE(std::filesystem::exists(out));
}

// `sketch` fails closed on a malformed edge list: exit 1, the offending
// line named on stderr, and no output file. Each of these lines loaded at
// one time (as weight 1, as node 2^64 - 1, and without its fourth column).
TEST(ServeTest, CliSketchRejectsMalformedEdgeLists) {
  ScratchDir dir("hipads_serve_test_cli_malformed");
  const std::string graph = dir.file("g.txt");
  const std::string out = dir.file("s.ads2");
  const std::string err = dir.file("stderr.txt");
  for (const char* line : {"0 1 nan", "-1 2", "0 1 2 3"}) {
    {
      std::ofstream f(graph, std::ios::trunc);
      f << "# edges\n0 1\n1 2 0.5\n" << line << "\n2 3\n";
    }
    EXPECT_EQ(RunCli("sketch --graph " + graph + " --k 4 --out " + out,
                     dir.file("stdout.txt"), err),
              1)
        << line;
    const std::string message = ReadFile(err);
    EXPECT_NE(message.find("at line 4"), std::string::npos)
        << line << ": " << message;
    EXPECT_FALSE(std::filesystem::exists(out)) << line;
  }
}

// The largest `--k` builds bottom-k sketches without reserving k ranks up
// front: on a 50-node graph every sketch holds all reachable nodes, so the
// entries and HIP weights equal a `--k 50` build — through DP (unit
// weights) and pruned Dijkstra (weighted), with and without the HIP
// section.
TEST(ServeTest, CliSketchHugeKMatchesKEqualToTheNodeCount) {
  ScratchDir dir("hipads_serve_test_cli_huge_k");
  const std::string unit = dir.file("unit.txt");
  const std::string weighted = dir.file("weighted.txt");
  Graph g = ErdosRenyi(50, 120, /*undirected=*/true, 3);
  ASSERT_TRUE(WriteEdgeListFile(g, unit).ok());
  ASSERT_TRUE(
      WriteEdgeListFile(RandomizeWeights(g, 0.5, 2.0, 5), weighted).ok());
  for (const std::string& graph : {unit, weighted}) {
    for (const char* hip : {"0", "1"}) {
      const std::string what = graph + " --hip " + hip;
      auto sketch = [&](const std::string& k) {
        const std::string out = dir.file("k" + k + ".ads2");
        EXPECT_EQ(RunCli("sketch --graph " + graph + " --k " + k +
                             " --format binary --hip " + hip + " --out " +
                             out,
                         dir.file("stdout.txt")),
                  0)
            << what << " --k " << k;
        return ReadFlatAdsSetFile(out);
      };
      auto huge = sketch("4294967295");
      auto exact = sketch("50");
      ASSERT_TRUE(huge.ok()) << what << ": " << huge.status().ToString();
      ASSERT_TRUE(exact.ok()) << what << ": " << exact.status().ToString();
      const FlatAdsSet& a = huge.value();
      const FlatAdsSet& b = exact.value();
      EXPECT_EQ(a.k, 4294967295u) << what;
      EXPECT_EQ(a.offsets, b.offsets) << what;
      ASSERT_EQ(a.entries.size(), b.entries.size()) << what;
      EXPECT_EQ(std::memcmp(a.entries.data(), b.entries.data(),
                            a.entries.size() * sizeof(AdsEntry)),
                0)
          << what;
      EXPECT_EQ(a.has_hip(), hip[0] == '1') << what;
      EXPECT_EQ(a.hip_tau, b.hip_tau) << what;
      EXPECT_EQ(a.hip_weight, b.hip_weight) << what;
    }
  }
}

// `shard` reports the number of shards it wrote, which can differ from
// `--shards`: a split never holds more shards than nodes, nor fewer than
// one. On a 5-node set, `--shards 8` writes 5 and `--shards 0` writes 1;
// the printed count must be the MANIFEST's `shards` line either way.
TEST(ServeTest, CliShardPrintsTheShardCountItWrote) {
  FlatAdsSet full = BuildFlat(5, 23, 4);
  ScratchDir dir("hipads_serve_test_cli_shard_count");
  const std::string set_path = dir.file("set.ads2");
  ASSERT_TRUE(
      WriteAdsSetFile(full, set_path, AdsFileFormat::kBinaryV2).ok());
  for (const auto& [requested, written] :
       {std::pair<std::string, std::string>{"8", "5"}, {"0", "1"}}) {
    const std::string out_dir = dir.file("shards" + requested);
    const std::string out = dir.file("stdout" + requested + ".txt");
    ASSERT_EQ(RunCli("shard --in " + set_path + " --shards " + requested +
                         " --out-dir " + out_dir,
                     out),
              0)
        << "--shards " << requested;
    std::istringstream manifest(ReadFile(out_dir + "/" + kShardManifestName));
    std::string line, count;
    while (std::getline(manifest, line)) {
      if (line.rfind("shards ", 0) == 0) count = line.substr(7);
    }
    EXPECT_EQ(count, written) << "--shards " << requested;
    EXPECT_NE(ReadFile(out).find(": " + count + " shards, 5 nodes"),
              std::string::npos)
        << "--shards " << requested << " printed: " << ReadFile(out);
  }
}

// `generate` reports a write error that surfaces only when its output is
// closed: /dev/full takes a 10-node list into the stream buffer and fails
// the final flush, so the command must exit 1 and print no "wrote" line.
TEST(ServeTest, CliGenerateFailsOnAFullDevice) {
  ScratchDir dir("hipads_serve_test_cli_full");
  const std::string out = dir.file("stdout.txt");
  const std::string err = dir.file("stderr.txt");
  EXPECT_EQ(RunCli("generate --model ba --nodes 10 --out /dev/full", out, err),
            1);
  EXPECT_EQ(FileSize(out), 0u) << ReadFile(out);
  EXPECT_NE(ReadFile(err).find("write failed for /dev/full"),
            std::string::npos)
      << ReadFile(err);
}

// Numeric flags fail closed: a sign, non-digits, trailing bytes or a
// value above what the option holds exit 2 with a message naming the
// flag, print nothing and write nothing. The `serve` and `route` cases
// name missing inputs, so a CLI that let the bad value through fails to
// open them instead of binding a socket.
TEST(ServeTest, CliNumericFlagsFailClosed) {
  FlatAdsSet full = BuildFlat(5, 23, 4);
  ScratchDir dir("hipads_serve_test_cli_flags");
  const std::string set_path = dir.file("set.ads2");
  ASSERT_TRUE(
      WriteAdsSetFile(full, set_path, AdsFileFormat::kBinaryV2).ok());
  const std::string graph = dir.file("g.txt");
  ASSERT_TRUE(
      WriteEdgeListFile(ErdosRenyi(5, 8, /*undirected=*/true, 3), graph)
          .ok());
  const std::string out = dir.file("out");  // what a bad run must not write
  const std::string missing = dir.file("missing");
  const std::string query = "query --sketches " + set_path;
  struct Case {
    const char* flag;
    std::string command;
  };
  const std::vector<Case> cases = {
      {"shards",
       "shard --in " + set_path + " --out-dir " + out + " --shards 4294967297"},
      {"shards", "shard --in " + set_path + " --out-dir " + out + " --shards -3"},
      {"shards", "sketch --graph " + graph + " --out " + out + " --shards -1"},
      {"nodes", "generate --nodes 4294967296 --out " + out},
      {"attach", "generate --model ba --nodes 3 --attach 5 --out " + out},
      {"attach", "generate --model ba --nodes 0 --out " + out},
      {"node", query + " --node abc"},
      {"top", query + " --top -1"},
      {"top", "stats --sketches " + set_path + " --top 3x"},
      {"resident", query + " --node 1 --resident 1.5"},
      {"distance", query + " --node 1 --distance 2x"},
      {"port", "serve --sketches " + missing + " --port 65536"},
      {"workers", "serve --sketches " + missing + " --workers +4"},
      {"workers", "serve --sketches " + missing + " --workers 1025"},
      {"workers", "route --fleet " + missing + " --workers 1025"},
      {"node-begin", "serve --sketches " + missing + " --node-begin 4294967296"},
      {"port", "route --fleet " + missing + " --port 70000"},
      {"retries", "route --fleet " + missing + " --retries=-1"},
      {"coalesce-us", "route --fleet " + missing + " --coalesce-us 1000001"},
  };
  const std::string stdout_path = dir.file("stdout.txt");
  const std::string stderr_path = dir.file("stderr.txt");
  for (const Case& c : cases) {
    EXPECT_EQ(RunCli(c.command, stdout_path, stderr_path), 2) << c.command;
    EXPECT_EQ(FileSize(stdout_path), 0u) << c.command;
    const std::string err = ReadFile(stderr_path);
    EXPECT_NE(err.find("--" + std::string(c.flag) + " "), std::string::npos)
        << c.command << " printed: " << err;
    EXPECT_FALSE(std::filesystem::exists(out)) << c.command;
  }
  // Values the options hold still pass: the largest shard count (a 5-node
  // set writes 5 shards) and an infinite distance.
  EXPECT_EQ(RunCli(query + " --node 1 --distance inf", stdout_path), 0);
  EXPECT_EQ(RunCli("shard --in " + set_path + " --out-dir " + out +
                       " --shards 4294967295",
                   stdout_path),
            0);
  EXPECT_NE(ReadFile(stdout_path).find(": 5 shards, 5 nodes"),
            std::string::npos)
      << ReadFile(stdout_path);
}

#endif  // HIPADS_CLI_PATH

}  // namespace
}  // namespace hipads
