// Offline/online sketch pipeline: build once, persist, serve many queries.
//
// The deployment shape hipads targets: an offline job sketches the graph
// and writes the ADS set to disk (v2 binary — the serving format); online
// services open it behind the unified AdsBackend storage layer and answer
// estimation queries — cardinalities, centralities, node-pair similarity,
// effective diameter — without ever touching the graph again. The
// whole-graph statistics are gathered by ONE fused sweep (ads/sweep.h):
// the service builds a SweepPlan with every collector it needs, so the
// backend is swept once however many statistics are served. The same
// serving code runs against every storage engine; here it is exercised
// over a zero-copy mmap open and over a sharded, residency-bounded open
// with background prefetch, and both agree bitwise.
//
// Run:  ./sketch_pipeline

#include <cstdio>
#include <filesystem>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/serialize.h"
#include "ads/shard.h"
#include "ads/similarity.h"
#include "ads/sweep.h"
#include "graph/generators.h"

using namespace hipads;

namespace {

// The online service: answers everything through the AdsBackend surface,
// never knowing which storage engine is behind it.
int Serve(const char* label, const AdsBackend& set) {
  std::printf("\n[%s] serving %zu sketches, k=%u, %llu entries\n", label,
              set.num_nodes(), set.k(),
              static_cast<unsigned long long>(set.TotalEntries()));

  // Whole-graph shape statistics + centrality ranking, all from ONE pass:
  // the histogram collector yields the effective diameter and the mean
  // distance, the top-k collector the most central nodes — a sharded
  // backend reads every shard file exactly once for all four numbers.
  SweepPlan plan;
  auto* hist = plan.Emplace<DistanceHistogramCollector>();
  auto* top = plan.Emplace<TopKCollector>(3, [](const HipEstimator& est) {
    return est.HarmonicCentrality();
  });
  Status swept = RunSweep(set, plan);
  if (!swept.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n", swept.ToString().c_str());
    return 1;
  }
  std::printf("  effective diameter (0.9) ~ %.0f\n",
              hist->EffectiveDiameter(0.9));
  std::printf("  mean distance            ~ %.2f\n", hist->MeanDistance());
  std::printf("  top harmonic nodes:");
  for (NodeId v : top->TopNodes()) {
    std::printf(" %u (%.0f)", v, top->values()[v]);
  }
  std::printf("\n");

  // Per-node queries, over the node's stored HIP weights.
  for (NodeId v : {100u, 4000u}) {
    auto view = set.ViewOf(v);
    if (!view.ok()) return 1;
    auto hip = set.HipOf(v);
    if (!hip.ok()) return 1;
    HipEstimator est(view.value(), hip.value().tau, hip.value().weight);
    std::printf("  node %u: |N_10| ~ %.0f, |N_20| ~ %.0f, harmonic ~ %.0f\n",
                v, est.NeighborhoodCardinality(10.0),
                est.NeighborhoodCardinality(20.0), est.HarmonicCentrality());
  }

  // Node-pair similarity from the coordinated sketches: ring neighbors
  // share most of their neighborhood, antipodal nodes share little.
  auto u = set.ViewOf(1000);
  auto near = set.ViewOf(1002);
  auto far = set.ViewOf(5000);
  if (!u.ok() || !near.ok() || !far.ok()) return 1;
  std::printf("  J_3(1000, 1002) ~ %.2f (ring neighbors), "
              "J_3(1000, 5000) ~ %.2f (far apart)\n",
              JaccardSimilarity(u.value(), near.value(), 3.0, set.k()),
              JaccardSimilarity(u.value(), far.value(), 3.0, set.k()));
  return 0;
}

}  // namespace

int main() {
  const char* path = "/tmp/hipads_pipeline.ads2";
  const char* shard_dir = "/tmp/hipads_pipeline_shards";

  // ---- offline job: sketch, persist as v2 binary, shard for scale-out ----
  {
    Graph g = WattsStrogatz(/*n=*/8000, /*neighbors=*/4, /*beta=*/0.1,
                            /*seed=*/5);
    FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsDp(
        g, /*k=*/24, SketchFlavor::kBottomK, RankAssignment::Uniform(99)));
    // The HIP weights, computed once here; every v2 file stores them.
    PrecomputeHipWeights(&set);
    Status s = WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2);
    Status sh = WriteShardedAdsSet(set, shard_dir, 4);
    std::printf("offline: sketched %u nodes -> %s (%s), 4 shards -> %s (%s)\n",
                g.num_nodes(), path, s.ToString().c_str(), shard_dir,
                sh.ToString().c_str());
  }  // graph goes out of scope — the online side never sees it

  // ---- online service, same code over two storage engines ----
  AdsBackendOptions mmap_options;
  mmap_options.mode = BackendMode::kMmap;
  auto mapped = OpenAdsBackend(path, mmap_options);
  if (!mapped.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  if (Serve("mmap, zero-copy", *mapped.value()) != 0) return 1;

  AdsBackendOptions sharded_options;  // copy mode, prefetch on by default
  sharded_options.max_resident = 2;
  auto sharded = OpenAdsBackend(shard_dir, sharded_options);
  if (!sharded.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }
  if (Serve("sharded, prefetching", *sharded.value()) != 0) return 1;

  std::remove(path);
  std::filesystem::remove_all(shard_dir);
  return 0;
}
