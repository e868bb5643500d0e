// CLAIM-BUILD: ADS construction cost (Section 3, Appendix B). Expected
// O(km log n) edge relaxations for PrunedDijkstra and DP; LocalUpdates pays
// extra churn on weighted graphs which the (1+eps)-approximate mode caps.
// google-benchmark timings plus relaxation/insertion counters; the
// "relax/(km ln n)" counter should stay O(1) across scales. BM_BuildPipeline
// times the whole build -> flatten -> HIP -> shard-write path by stage.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "ads/shard.h"
#include "bench_common.h"
#include "graph/generators.h"

namespace hipads {
namespace {

Graph MakeEr(uint32_t n, uint64_t degree, bool weighted) {
  Graph g = ErdosRenyi(n, n * degree / 2, /*undirected=*/true, 42);
  if (weighted) g = RandomizeWeights(g, 0.5, 2.0, 7);
  return g;
}

void Counters(benchmark::State& state, const Graph& g, uint32_t k,
              const AdsBuildStats& stats) {
  double m = static_cast<double>(g.num_arcs());
  double kmlogn = k * m * std::log(static_cast<double>(g.num_nodes()));
  state.counters["relaxations"] =
      benchmark::Counter(static_cast<double>(stats.relaxations));
  state.counters["insertions"] =
      benchmark::Counter(static_cast<double>(stats.insertions));
  state.counters["deletions"] =
      benchmark::Counter(static_cast<double>(stats.deletions));
  state.counters["relax/(km ln n)"] =
      benchmark::Counter(static_cast<double>(stats.relaxations) / kmlogn);
}

void BM_PrunedDijkstra(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  uint32_t k = static_cast<uint32_t>(state.range(1));
  Graph g = MakeEr(n, 8, /*weighted=*/true);
  auto ranks = RankAssignment::Uniform(1);
  AdsBuildStats stats;
  for (auto _ : state) {
    stats = AdsBuildStats();
    AdsSet set =
        BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK, ranks, &stats);
    benchmark::DoNotOptimize(set.TotalEntries());
  }
  Counters(state, g, k, stats);
}
BENCHMARK(BM_PrunedDijkstra)
    ->Args({1000, 4})
    ->Args({1000, 16})
    ->Args({4000, 4})
    ->Args({4000, 16})
    ->Args({16000, 16})
    ->Unit(benchmark::kMillisecond);

void BM_Dp(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  uint32_t k = static_cast<uint32_t>(state.range(1));
  Graph g = MakeEr(n, 8, /*weighted=*/false);
  auto ranks = RankAssignment::Uniform(1);
  AdsBuildStats stats;
  for (auto _ : state) {
    stats = AdsBuildStats();
    AdsSet set = BuildAdsDp(g, k, SketchFlavor::kBottomK, ranks, &stats);
    benchmark::DoNotOptimize(set.TotalEntries());
  }
  Counters(state, g, k, stats);
}
BENCHMARK(BM_Dp)
    ->Args({1000, 4})
    ->Args({1000, 16})
    ->Args({4000, 4})
    ->Args({4000, 16})
    ->Unit(benchmark::kMillisecond);

void BM_LocalUpdates(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  uint32_t k = static_cast<uint32_t>(state.range(1));
  double epsilon = static_cast<double>(state.range(2)) / 100.0;
  Graph g = MakeEr(n, 8, /*weighted=*/true);
  auto ranks = RankAssignment::Uniform(1);
  AdsBuildStats stats;
  for (auto _ : state) {
    stats = AdsBuildStats();
    AdsSet set = BuildAdsLocalUpdates(g, k, SketchFlavor::kBottomK, ranks,
                                      epsilon, &stats);
    benchmark::DoNotOptimize(set.TotalEntries());
  }
  Counters(state, g, k, stats);
}
BENCHMARK(BM_LocalUpdates)
    ->Args({1000, 4, 0})
    ->Args({1000, 4, 25})   // (1+0.25)-approximate
    ->Args({1000, 16, 0})
    ->Args({1000, 16, 25})
    ->Unit(benchmark::kMillisecond);

// Thread-count sweep for the rank-window pruned builder. The one-thread
// baselines of the weighted rows are BM_PrunedDijkstra/4000/16 and
// /16000/16 (the un-suffixed builder is the one-thread call); the
// determinism suite guarantees every row computes the same sketches, so the
// timings are directly comparable. The weighted rows search by pruned
// Dijkstra; the unweighted rows search by pruned BFS on the graph
// BM_DpParallel uses, so the two unit-weight builders compare on one input.
// Run with --benchmark_out for the JSON baseline. The frozen-window
// searches relax more arcs than the one-thread run (the `relaxations`
// counter), the price of their independence; `candidates` counts the
// entries they propose, the replay's input.
void BM_PrunedDijkstraParallel(benchmark::State& state, bool weighted) {
  uint32_t threads = static_cast<uint32_t>(state.range(0));
  uint32_t n = static_cast<uint32_t>(state.range(1));
  uint32_t k = 16;
  Graph g = MakeEr(n, 8, weighted);
  auto ranks = RankAssignment::Uniform(1);
  AdsBuildStats stats;
  for (auto _ : state) {
    stats = AdsBuildStats();
    AdsSet set = BuildAdsPrunedDijkstraParallel(g, k, SketchFlavor::kBottomK,
                                                ranks, threads, &stats);
    benchmark::DoNotOptimize(set.TotalEntries());
  }
  Counters(state, g, k, stats);
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(stats.candidates));
  state.counters["exp entries/node"] = benchmark::Counter(
      ExpectedBottomKAdsSize(k, g.num_nodes()));
}
void BM_PrunedDijkstraParallel(benchmark::State& state) {
  BM_PrunedDijkstraParallel(state, /*weighted=*/true);
}
BENCHMARK(BM_PrunedDijkstraParallel)
    ->Args({2, 4000})
    ->Args({4, 4000})
    ->Args({8, 4000})
    ->Args({4, 16000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PrunedDijkstraParallel, unweighted, /*weighted=*/false)
    ->Args({1, 8000})
    ->Args({4, 8000})
    ->Unit(benchmark::kMillisecond);

// The whole build pipeline the end-to-end benchmark times as build_s, on
// an undirected unit-weight R-MAT graph of 2^scale nodes: pruned build
// (k = 16, 4 threads) -> FromAdsSet -> PrecomputeHipWeights -> 8-shard v2
// write into a temp directory. The per-stage counters are milliseconds per
// iteration; the flatten, HIP pass and shard write each size their own
// pool (at most the hardware count).
void BM_BuildPipeline(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t k = 16;
  const uint32_t threads = 4;
  const Graph g = Rmat(scale, 8, 5, /*undirected=*/true);
  const auto ranks = RankAssignment::Uniform(1);
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("hipads_bm_pipeline_" + std::to_string(::getpid())))
          .string();
  double build_ms = 0, to_flat_ms = 0, hip_ms = 0, write_ms = 0;
  auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
    const auto t0 = Clock::now();
    AdsSet set = BuildAdsPrunedDijkstraParallel(g, k, SketchFlavor::kBottomK,
                                                ranks, threads);
    const auto t1 = Clock::now();
    FlatAdsSet flat = FlatAdsSet::FromAdsSet(set);
    const auto t2 = Clock::now();
    PrecomputeHipWeights(&flat, threads);
    const auto t3 = Clock::now();
    Status written = WriteShardedAdsSet(flat, dir, 8);
    const auto t4 = Clock::now();
    if (!written.ok()) {
      state.SkipWithError(written.ToString().c_str());
      break;
    }
    build_ms += ms(t1 - t0);
    to_flat_ms += ms(t2 - t1);
    hip_ms += ms(t3 - t2);
    write_ms += ms(t4 - t3);
  }
  std::filesystem::remove_all(dir);
  const auto per_iteration = benchmark::Counter::kAvgIterations;
  state.counters["build_ms"] = benchmark::Counter(build_ms, per_iteration);
  state.counters["to_flat_ms"] = benchmark::Counter(to_flat_ms, per_iteration);
  state.counters["hip_ms"] = benchmark::Counter(hip_ms, per_iteration);
  state.counters["write_ms"] = benchmark::Counter(write_ms, per_iteration);
}
BENCHMARK(BM_BuildPipeline)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_DpParallel(benchmark::State& state) {
  uint32_t threads = static_cast<uint32_t>(state.range(0));
  Graph g = MakeEr(8000, 8, /*weighted=*/false);
  auto ranks = RankAssignment::Uniform(1);
  for (auto _ : state) {
    AdsSet set = threads == 0
                     ? BuildAdsDp(g, 16, SketchFlavor::kBottomK, ranks)
                     : BuildAdsDpParallel(g, 16, SketchFlavor::kBottomK,
                                          ranks, threads);
    benchmark::DoNotOptimize(set.TotalEntries());
  }
}
BENCHMARK(BM_DpParallel)
    ->Arg(0)  // BuildAdsDp, the one-thread call
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Flavors(benchmark::State& state) {
  uint32_t flavor_id = static_cast<uint32_t>(state.range(0));
  SketchFlavor flavor = flavor_id == 0   ? SketchFlavor::kBottomK
                        : flavor_id == 1 ? SketchFlavor::kKMins
                                         : SketchFlavor::kKPartition;
  Graph g = MakeEr(2000, 8, /*weighted=*/false);
  auto ranks = RankAssignment::Uniform(1);
  for (auto _ : state) {
    AdsSet set = BuildAdsDp(g, 8, flavor, ranks);
    benchmark::DoNotOptimize(set.TotalEntries());
  }
}
BENCHMARK(BM_Flavors)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_HipQueryThroughput(benchmark::State& state) {
  // Query-side cost: HIP scan + estimate over one node's ADS.
  Graph g = MakeEr(8000, 8, false);
  uint32_t k = 16;
  auto ranks = RankAssignment::Uniform(1);
  AdsSet set = BuildAdsDp(g, k, SketchFlavor::kBottomK, ranks);
  NodeId v = 0;
  for (auto _ : state) {
    HipEstimator hip(set.of(v), k, SketchFlavor::kBottomK, ranks);
    benchmark::DoNotOptimize(hip.ReachableCount());
    v = (v + 1) % g.num_nodes();
  }
  state.counters["ads entries"] = benchmark::Counter(
      static_cast<double>(set.TotalEntries()) / g.num_nodes());
}
BENCHMARK(BM_HipQueryThroughput);

// The neighbourhood-function sweep (the ANF workload) over the flat arena,
// across thread counts (arg 1). Arg 0 is always 1, the flat arena, so the
// rows keep the names recorded in BENCH_ads_build.json.
void BM_NeighborhoodFunctionStorage(benchmark::State& state) {
  uint32_t threads = static_cast<uint32_t>(state.range(1));
  Graph g = MakeEr(8000, 8, /*weighted=*/false);
  uint32_t k = 16;
  auto ranks = RankAssignment::Uniform(1);
  FlatAdsSet flat =
      FlatAdsSet::FromAdsSet(BuildAdsDp(g, k, SketchFlavor::kBottomK, ranks));
  PrecomputeHipWeights(&flat);
  FlatAdsBackend backend(std::move(flat));
  for (auto _ : state) {
    auto nf = EstimateNeighborhoodFunction(backend, threads);
    benchmark::DoNotOptimize(&nf);
  }
}
BENCHMARK(BM_NeighborhoodFunctionStorage)
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hipads

// Records a machine-readable baseline next to the working directory unless
// the caller passes its own --benchmark_out.
int main(int argc, char** argv) {
  hipads::BenchArgs args(argc, argv, "BENCH_ads_build.json");
  benchmark::Initialize(&args.argc, args.argv());
  if (benchmark::ReportUnrecognizedArguments(args.argc, args.argv())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
