// CLAIM-SERVE-BACKEND: cost of getting sketches into a serving process and
// sweeping them, per storage engine behind the unified AdsBackend layer.
//
//   * Open latency, copy vs mmap: the copying loader reads the whole v2
//     file into a heap string and memcpys the two sections into vectors;
//     the mmap open maps the file and only *reads* it once for
//     checksum/structure validation — no allocation, no copy. The recorded
//     baseline (BENCH_serve.json) pins mmap open faster than the copying
//     loader at n >= 4000 — the number that justifies the zero-copy
//     backend as the serving default for big arenas.
//   * Sweep throughput: whole-graph harmonic centrality through the
//     backend surface — in-memory arena vs mmap vs resident-limited
//     sharded serving with and without the background prefetch thread
//     (prefetch hides shard load I/O behind the sweep's compute).
//   * Point lookups: AdsNodeIndex binary search vs the linear AdsView scan.
//   * CLAIM-SWEEP-FUSION: K statistics as one fused SweepPlan vs K
//     standalone whole-graph queries over a resident-limited sharded
//     backend. Sequential cost grows ~linearly in K (K shard sweeps, K
//     HIP scans per node); the fused plan pays one sweep plus only the
//     per-collector reduction — the recorded baseline justifies routing
//     every multi-statistic caller (CLI stats, examples) through one plan.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "ads/serialize.h"
#include "ads/shard.h"
#include "ads/sweep.h"
#include "bench_common.h"
#include "graph/generators.h"

namespace hipads {
namespace {

// One sketch set per graph size, shared across iterations (building at
// n=8000 dominates the bench run otherwise).
const FlatAdsSet& SharedSet(uint32_t n) {
  static std::map<uint32_t, FlatAdsSet> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Graph g = ErdosRenyi(n, 4ULL * n, /*undirected=*/true, 42);
    it = cache
             .emplace(n, FlatAdsSet::FromAdsSet(BuildAdsDp(
                             g, 16, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(1))))
             .first;
  }
  return it->second;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// A v2 file for size n, written once and reused by the open benches.
const std::string& SharedFile(uint32_t n) {
  static std::map<uint32_t, std::string> files;
  auto it = files.find(n);
  if (it == files.end()) {
    std::string path = TempPath("bench_serve_" + std::to_string(n) + ".ads2");
    WriteAdsSetFile(SharedSet(n), path, AdsFileFormat::kBinaryV2);
    it = files.emplace(n, std::move(path)).first;
  }
  return it->second;
}

// The acceptance pair: full open cost (including validation) of the same
// v2 file, copying loader vs zero-copy mmap.
void BM_OpenCopy(benchmark::State& state) {
  const std::string& path = SharedFile(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto loaded = ReadFlatAdsSetFile(path);
    benchmark::DoNotOptimize(loaded.value().TotalEntries());
  }
  state.counters["entries"] = benchmark::Counter(
      static_cast<double>(SharedSet(state.range(0)).TotalEntries()));
}
BENCHMARK(BM_OpenCopy)->Arg(1000)->Arg(4000)->Arg(8000)->Unit(
    benchmark::kMillisecond);

void BM_OpenMmap(benchmark::State& state) {
  const std::string& path = SharedFile(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto opened = MmapAdsSet::Open(path);
    benchmark::DoNotOptimize(opened.value().TotalEntries());
  }
  state.counters["entries"] = benchmark::Counter(
      static_cast<double>(SharedSet(state.range(0)).TotalEntries()));
}
BENCHMARK(BM_OpenMmap)->Arg(1000)->Arg(4000)->Arg(8000)->Unit(
    benchmark::kMillisecond);

// Whole-graph sweep throughput through the backend surface: the in-memory
// arena vs serving straight off the mapping.
void BM_SweepFlatBackend(benchmark::State& state) {
  FlatAdsBackend backend(&SharedSet(4000));
  for (auto _ : state) {
    auto scores = EstimateHarmonicCentralityAll(backend, 1);
    benchmark::DoNotOptimize(scores.value().data());
  }
}
BENCHMARK(BM_SweepFlatBackend)->Unit(benchmark::kMillisecond);

void BM_SweepMmapBackend(benchmark::State& state) {
  auto opened = MmapAdsSet::Open(SharedFile(4000));
  for (auto _ : state) {
    auto scores = EstimateHarmonicCentralityAll(opened.value(), 1);
    benchmark::DoNotOptimize(scores.value().data());
  }
}
BENCHMARK(BM_SweepMmapBackend)->Unit(benchmark::kMillisecond);

// Resident-limited sharded serving: the sweep re-loads each shard arena
// every iteration (max_resident bounds memory at ~2 shard arenas).
// Arg: bit 0 = prefetch, bit 1 = mmap shard opens.
void BM_SweepSharded(benchmark::State& state) {
  std::string dir = TempPath("bench_serve_shards");
  static bool written = false;
  if (!written) {
    WriteShardedAdsSet(SharedSet(4000), dir, 8);
    written = true;
  }
  ShardedOptions options;
  options.max_resident = 1;  // clamped to 2 with prefetch
  options.prefetch = (state.range(0) & 1) != 0;
  options.use_mmap = (state.range(0) & 2) != 0;
  auto opened = ShardedAdsSet::Open(dir, options);
  for (auto _ : state) {
    auto scores = EstimateHarmonicCentralityAll(opened.value(), 1);
    benchmark::DoNotOptimize(scores.value().data());
  }
  state.SetLabel(std::string(options.use_mmap ? "mmap" : "copy") +
                 (options.prefetch ? "+prefetch" : ""));
}
BENCHMARK(BM_SweepSharded)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Unit(
    benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// CLAIM-SWEEP-FUSION: K statistics, fused vs sequential, over a sharded
// backend with bounded residency (the serving shape the engine targets).
// ---------------------------------------------------------------------------

const ShardedAdsSet& SharedShardedSet() {
  static ShardedAdsSet* set = [] {
    std::string dir = TempPath("bench_serve_fusion_shards");
    WriteShardedAdsSet(SharedSet(4000), dir, 8);
    ShardedOptions options;
    options.max_resident = 1;
    auto opened = ShardedAdsSet::Open(dir, options);
    return new ShardedAdsSet(std::move(opened).value());
  }();
  return *set;
}

// The first `count` of a fixed six-statistic battery. The histogram
// collector is deliberately second so K=1 measures the cheapest
// per-node-only plan and K>=2 includes the order-sensitive reduction.
void AddCollectors(SweepPlan& plan, int64_t count) {
  if (count >= 1) plan.Emplace<HarmonicCentralityCollector>();
  if (count >= 2) plan.Emplace<DistanceHistogramCollector>();
  if (count >= 3) plan.Emplace<DistanceSumCollector>();
  if (count >= 4) plan.Emplace<ReachableCountCollector>();
  if (count >= 5) plan.Emplace<NeighborhoodSizeCollector>(2.0);
  if (count >= 6) {
    plan.Emplace<ClosenessCollector>(
        [](double d) { return 1.0 / (1.0 + d); },
        [](NodeId) { return 1.0; });
  }
}

void BM_MultiStatFused(benchmark::State& state) {
  const ShardedAdsSet& set = SharedShardedSet();
  for (auto _ : state) {
    SweepPlan plan;
    AddCollectors(plan, state.range(0));
    Status swept = RunSweep(set, plan, 1);
    benchmark::DoNotOptimize(swept.ok());
  }
  state.counters["stats"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_MultiStatFused)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Unit(
    benchmark::kMillisecond);

// The same statistics as standalone queries: K full backend sweeps.
void BM_MultiStatSequential(benchmark::State& state) {
  const ShardedAdsSet& set = SharedShardedSet();
  int64_t count = state.range(0);
  for (auto _ : state) {
    if (count >= 1) {
      benchmark::DoNotOptimize(EstimateHarmonicCentralityAll(set, 1).ok());
    }
    if (count >= 2) {
      benchmark::DoNotOptimize(EstimateDistanceDistribution(set, 1).ok());
    }
    if (count >= 3) {
      benchmark::DoNotOptimize(EstimateDistanceSumAll(set, 1).ok());
    }
    if (count >= 4) {
      benchmark::DoNotOptimize(EstimateReachableCountAll(set, 1).ok());
    }
    if (count >= 5) {
      benchmark::DoNotOptimize(
          EstimateNeighborhoodSizeAll(set, 2.0, 1).ok());
    }
    if (count >= 6) {
      benchmark::DoNotOptimize(
          EstimateClosenessAll(
              set, [](double d) { return 1.0 / (1.0 + d); },
              [](NodeId) { return 1.0; }, 1)
              .ok());
    }
  }
  state.counters["stats"] = benchmark::Counter(static_cast<double>(count));
}
BENCHMARK(BM_MultiStatSequential)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Unit(
    benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// CLAIM-HIP-RESIDENT: the per-node HIP estimator cost, per entry, for the
// three ways of obtaining the adjusted weights — the owning scan (copies
// the entries and allocates its arrays per node), the scan into a reused
// scratch (the sweep's and server's fallback when a store has no HIP
// section), and wrapping precomputed storage-resident arrays (no scan at
// all, just pointer arithmetic). All three produce bitwise identical
// statistics; the recorded baseline quantifies what precomputation saves
// per query.
// ---------------------------------------------------------------------------

const FlatAdsSet& SharedHipSet(uint32_t n) {
  static std::map<uint32_t, FlatAdsSet> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    FlatAdsSet set = SharedSet(n);  // copy, then attach the weights
    PrecomputeHipWeights(&set, 0);
    it = cache.emplace(n, std::move(set)).first;
  }
  return it->second;
}

void BM_HipScanOwned(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  for (auto _ : state) {
    double sum = 0.0;
    for (NodeId v = 0; v < set.num_nodes(); ++v) {
      HipEstimator est(set.of(v), set.k, set.flavor, set.ranks);
      sum += est.HarmonicCentrality();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(set.TotalEntries()));
}
BENCHMARK(BM_HipScanOwned)->Unit(benchmark::kMillisecond);

void BM_HipScanScratch(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  HipScratch scratch;
  for (auto _ : state) {
    double sum = 0.0;
    for (NodeId v = 0; v < set.num_nodes(); ++v) {
      HipEstimator est(set.of(v), HipView{}, set.k, set.flavor, set.ranks,
                       &scratch);
      sum += est.HarmonicCentrality();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(set.TotalEntries()));
}
BENCHMARK(BM_HipScanScratch)->Unit(benchmark::kMillisecond);

void BM_HipPrecomputed(benchmark::State& state) {
  const FlatAdsSet& set = SharedHipSet(4000);
  for (auto _ : state) {
    double sum = 0.0;
    for (NodeId v = 0; v < set.num_nodes(); ++v) {
      const uint64_t off = set.offsets[v];
      HipEstimator est(set.of(v), set.hip_tau.data() + off,
                       set.hip_weight.data() + off);
      sum += est.HarmonicCentrality();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(set.TotalEntries()));
}
BENCHMARK(BM_HipPrecomputed)->Unit(benchmark::kMillisecond);

// The fused battery again, over the same sharded layout but with the HIP
// section resident in every shard file: the sweep consumes the stored
// weights instead of re-scanning each node per collector pass.
const ShardedAdsSet& SharedShardedHipSet() {
  static ShardedAdsSet* set = [] {
    std::string dir = TempPath("bench_serve_fusion_hip_shards");
    WriteShardedAdsSet(SharedHipSet(4000), dir, 8);
    ShardedOptions options;
    options.max_resident = 1;
    auto opened = ShardedAdsSet::Open(dir, options);
    return new ShardedAdsSet(std::move(opened).value());
  }();
  return *set;
}

void BM_MultiStatFusedHip(benchmark::State& state) {
  const ShardedAdsSet& set = SharedShardedHipSet();
  for (auto _ : state) {
    SweepPlan plan;
    AddCollectors(plan, state.range(0));
    Status swept = RunSweep(set, plan, 1);
    benchmark::DoNotOptimize(swept.ok());
  }
  state.counters["stats"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_MultiStatFusedHip)->Arg(1)->Arg(2)->Arg(4)->Arg(6)->Unit(
    benchmark::kMillisecond);

// Point lookups: the (dist, node) canonical order forces AdsView into a
// linear scan per probe; AdsNodeIndex answers by binary search.
void BM_PointLookupLinear(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  NodeId probe = 0;
  size_t hits = 0;
  for (auto _ : state) {
    for (NodeId v = 0; v < 64; ++v) {
      hits += set.of(v).Contains(probe) ? 1 : 0;
      probe = (probe + 97) % 4000;
    }
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PointLookupLinear);

void BM_PointLookupIndexed(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  std::vector<AdsNodeIndex> indexes;
  indexes.reserve(64);
  for (NodeId v = 0; v < 64; ++v) indexes.emplace_back(set.of(v));
  NodeId probe = 0;
  size_t hits = 0;
  for (auto _ : state) {
    for (NodeId v = 0; v < 64; ++v) {
      hits += indexes[v].Contains(probe) ? 1 : 0;
      probe = (probe + 97) % 4000;
    }
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PointLookupIndexed);

// ---------------------------------------------------------------------------
// --perf-smoke <baseline.json>: the CI regression guard. Times the fused
// K=1 and K=6 sweeps (scan and hip-resident) directly — seconds, not the
// full benchmark run — and compares the K=6/K=1 CPU *ratios* against the
// recorded baseline's. Ratios cancel out absolute machine speed, so the
// check is safe on a slow 1-core CI box; a >30% ratio regression means the
// per-statistic sweep cost genuinely grew and the step fails.
// ---------------------------------------------------------------------------

double TimeFusedSweepMs(const ShardedAdsSet& set, int64_t stats) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    SweepPlan plan;
    AddCollectors(plan, stats);
    auto start = std::chrono::steady_clock::now();
    Status swept = RunSweep(set, plan, 1);
    auto stop = std::chrono::steady_clock::now();
    if (!swept.ok()) return -1.0;
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return best;
}

// Minimal extraction from google-benchmark's JSON output: the cpu_time
// (already in ms; every bench here records with kMillisecond) of the named
// benchmark, or a negative value when absent.
double BaselineCpuMs(const std::string& json, const std::string& name) {
  size_t pos = json.find("\"name\": \"" + name + "\"");
  if (pos == std::string::npos) return -1.0;
  size_t cpu = json.find("\"cpu_time\":", pos);
  if (cpu == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + cpu + std::strlen("\"cpu_time\":"),
                     nullptr);
}

int PerfSmoke(const char* baseline_path) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::fprintf(stderr, "perf-smoke: cannot read baseline %s\n",
                 baseline_path);
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const double b1 = BaselineCpuMs(json, "BM_MultiStatFused/1");
  const double b6 = BaselineCpuMs(json, "BM_MultiStatFused/6");
  const double bh6 = BaselineCpuMs(json, "BM_MultiStatFusedHip/6");
  if (b1 <= 0.0 || b6 <= 0.0 || bh6 <= 0.0) {
    std::fprintf(stderr,
                 "perf-smoke: baseline %s lacks BM_MultiStatFused/"
                 "BM_MultiStatFusedHip entries\n",
                 baseline_path);
    return 2;
  }

  const ShardedAdsSet& scan = SharedShardedSet();
  const ShardedAdsSet& hip = SharedShardedHipSet();
  TimeFusedSweepMs(scan, 1);  // warm the page cache and shard arenas
  TimeFusedSweepMs(hip, 1);
  const double t1 = TimeFusedSweepMs(scan, 1);
  const double t6 = TimeFusedSweepMs(scan, 6);
  const double th6 = TimeFusedSweepMs(hip, 6);
  if (t1 <= 0.0 || t6 <= 0.0 || th6 <= 0.0) {
    std::fprintf(stderr, "perf-smoke: fused sweep failed\n");
    return 2;
  }

  constexpr double kTolerance = 1.30;  // fail past a 30% ratio regression
  int failures = 0;
  struct Check {
    const char* name;
    double measured;
    double baseline;
  };
  const Check checks[] = {
      {"fused6/fused1", t6 / t1, b6 / b1},
      {"fusedhip6/fused1", th6 / t1, bh6 / b1},
  };
  for (const Check& c : checks) {
    const bool ok = c.measured <= c.baseline * kTolerance;
    std::printf("perf-smoke: %-18s measured %.3f baseline %.3f  %s\n",
                c.name, c.measured, c.baseline, ok ? "ok" : "REGRESSION");
    if (!ok) ++failures;
  }
  std::printf(
      "perf-smoke: fused1 %.2fms fused6 %.2fms fusedhip6 %.2fms (wall)\n",
      t1, t6, th6);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hipads

// Records a machine-readable baseline next to the working directory unless
// the caller passes its own --benchmark_out.
int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--perf-smoke") == 0) {
    return hipads::PerfSmoke(argc >= 3 ? argv[2] : "BENCH_serve.json");
  }
  hipads::BenchArgs args(argc, argv, "BENCH_serve.json");
  benchmark::Initialize(&args.argc, args.argv());
  if (benchmark::ReportUnrecognizedArguments(args.argc, args.argv())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
