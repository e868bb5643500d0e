// CLAIM-SERVE: load-path cost of the two on-disk formats. The v1 text
// parser re-tokenizes two %.17g doubles per entry; the v2 binary reader
// copies each section once into its array, then runs the shared validator
// (chained XXH64 checksums, offsets, entry sanity, canonical order), both
// on a pool of one thread per 256 KiB of image, up to 8 and the hardware
// count (every image here is over 1 MiB: 4 threads on 4 vCPUs). In the
// recorded baseline (BENCH_serialize.json: Release build, 4 vCPUs,
// --benchmark_repetitions=5) the n=4000 binary parse takes 2.21 ms against
// 297 ms for the text parse, ~121x its byte throughput (medians of
// BM_ParseBinaryV2/4000 and BM_ParseTextV1/4000) — the number that
// justifies v2 as the serving format. The *Hip rows load the same set
// with its HIP section (tau stored, weights derived by the validator).
// Also measured: serialization cost both ways, the sharded whole-graph
// sweep overhead vs the single arena, and graph input: BM_GenerateRmat
// builds the scale-16 undirected R-MAT graph hipads_bench starts from, and
// BM_ParseEdgeList reads the scale-16 R-MAT list as `hipads_cli generate
// --model rmat --nodes 65536 --seed 3` writes it (5.4 MB, 524K edges),
// as `sketch` does (undirected).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "ads/builders.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/queries.h"
#include "ads/serialize.h"
#include "ads/shard.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace hipads {
namespace {

// One sketch set per graph size, shared across iterations (building at
// n=4000 dominates the bench run otherwise).
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

// SharedSet(n) with its HIP weights precomputed, as `sketch --hip 1`
// writes it.
const FlatAdsSet& SharedHipSet(uint32_t n) {
  static std::map<uint32_t, FlatAdsSet> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    FlatAdsSet set = SharedSet(n);
    PrecomputeHipWeights(&set);
    it = cache.emplace(n, std::move(set)).first;
  }
  return it->second;
}

void BM_SerializeTextV1(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(static_cast<uint32_t>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string text = SerializeAdsSet(set);
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  state.counters["entries"] =
      benchmark::Counter(static_cast<double>(set.TotalEntries()));
}
BENCHMARK(BM_SerializeTextV1)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);

void BM_SerializeBinaryV2(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(static_cast<uint32_t>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    std::string blob = SerializeAdsSetBinary(set);
    bytes = blob.size();
    benchmark::DoNotOptimize(blob.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes) * state.iterations());
  state.counters["entries"] =
      benchmark::Counter(static_cast<double>(set.TotalEntries()));
}
BENCHMARK(BM_SerializeBinaryV2)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);

// The acceptance pair: parse throughput text vs binary, same sketches.
void BM_ParseTextV1(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(static_cast<uint32_t>(state.range(0)));
  std::string text = SerializeAdsSet(set);
  for (auto _ : state) {
    auto parsed = ParseFlatAdsSet(text);
    benchmark::DoNotOptimize(parsed.value().TotalEntries());
  }
  state.SetBytesProcessed(static_cast<int64_t>(text.size()) *
                          state.iterations());
  state.counters["entries"] =
      benchmark::Counter(static_cast<double>(set.TotalEntries()));
}
BENCHMARK(BM_ParseTextV1)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);

// The v2 parse and file read of `set`, as the BM_ParseBinaryV2* and
// BM_ReadFileBinaryV2* rows time them.
void ParseBinary(benchmark::State& state, const FlatAdsSet& set) {
  std::string blob = SerializeAdsSetBinary(set);
  for (auto _ : state) {
    auto parsed = ParseFlatAdsSetBinary(blob);
    benchmark::DoNotOptimize(parsed.value().TotalEntries());
  }
  state.SetBytesProcessed(static_cast<int64_t>(blob.size()) *
                          state.iterations());
  state.counters["entries"] =
      benchmark::Counter(static_cast<double>(set.TotalEntries()));
}

// File-level round trip including the OS: what `hipads_cli query` pays
// before the first estimate.
void ReadFileBinary(benchmark::State& state, const FlatAdsSet& set) {
  std::string path =
      (std::filesystem::temp_directory_path() / "bench_serialize.ads2")
          .string();
  WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2);
  for (auto _ : state) {
    auto loaded = ReadFlatAdsSetFile(path);
    benchmark::DoNotOptimize(loaded.value().TotalEntries());
  }
  std::remove(path.c_str());
}

void BM_ParseBinaryV2(benchmark::State& state) {
  ParseBinary(state, SharedSet(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_ParseBinaryV2)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);

void BM_ParseBinaryV2Hip(benchmark::State& state) {
  ParseBinary(state, SharedHipSet(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_ParseBinaryV2Hip)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_ReadFileBinaryV2(benchmark::State& state) {
  ReadFileBinary(state, SharedSet(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_ReadFileBinaryV2)->Arg(4000)->Unit(benchmark::kMillisecond);

void BM_ReadFileBinaryV2Hip(benchmark::State& state) {
  ReadFileBinary(state, SharedHipSet(static_cast<uint32_t>(state.range(0))));
}
BENCHMARK(BM_ReadFileBinaryV2Hip)->Arg(4000)->Unit(benchmark::kMillisecond);

// Sharded sweep vs single arena: the price of bounded resident memory is
// re-loading each shard arena once per sweep.
void BM_HarmonicAllSharded(benchmark::State& state) {
  uint32_t shards = static_cast<uint32_t>(state.range(0));
  const FlatAdsSet& set = SharedSet(4000);
  if (shards == 0) {
    FlatAdsBackend backend(&set);
    for (auto _ : state) {
      auto scores = EstimateHarmonicCentralityAll(backend, 1);
      benchmark::DoNotOptimize(scores.value().data());
    }
    return;
  }
  std::string dir =
      (std::filesystem::temp_directory_path() / "bench_serialize_shards")
          .string();
  WriteShardedAdsSet(set, dir, shards);
  auto opened = ShardedAdsSet::Open(dir, ShardedOptions{.max_resident = 1});
  for (auto _ : state) {
    auto scores = EstimateHarmonicCentralityAll(opened.value(), 1);
    benchmark::DoNotOptimize(scores.value().data());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_HarmonicAllSharded)
    ->Arg(0)  // unsharded baseline
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateRmat(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  uint64_t arcs = 0;
  for (auto _ : state) {
    Graph g = Rmat(scale, 8, 3, /*undirected=*/true);
    arcs = g.num_arcs();
    benchmark::DoNotOptimize(arcs);
  }
  state.counters["arcs"] = benchmark::Counter(static_cast<double>(arcs));
}
BENCHMARK(BM_GenerateRmat)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_ParseEdgeList(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  std::string path =
      (std::filesystem::temp_directory_path() / "bench_serialize_edges.txt")
          .string();
  WriteEdgeListFile(Rmat(scale, 8, 3), path);
  uint64_t arcs = 0;
  for (auto _ : state) {
    auto read = ReadEdgeListFile(path, /*undirected=*/true);
    arcs = read.value().num_arcs();
    benchmark::DoNotOptimize(arcs);
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(std::filesystem::file_size(path)) *
      state.iterations());
  state.counters["arcs"] = benchmark::Counter(static_cast<double>(arcs));
  std::remove(path.c_str());
}
BENCHMARK(BM_ParseEdgeList)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hipads

// Records a machine-readable baseline next to the working directory unless
// the caller passes its own --benchmark_out.
int main(int argc, char** argv) {
  hipads::BenchArgs args(argc, argv, "BENCH_serialize.json");
  benchmark::Initialize(&args.argc, args.argv());
  if (benchmark::ReportUnrecognizedArguments(args.argc, args.argv())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
