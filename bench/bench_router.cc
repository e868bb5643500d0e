// CLAIM-SERVE-ROUTER: overhead of the distributed scatter/gather path over
// in-process execution, measured on the loopback transport so the numbers
// isolate protocol cost (frame encode/decode, checksums, collector partial
// serialization and node-order absorption) from network latency.
//
//   * In-process RunSweep over one arena — the floor.
//   * Loopback single server: the whole wire path (request encode ->
//     frame checksum -> server decode -> sweep -> partial encode -> client
//     absorb) with one hop and no fan-out.
//   * Loopback router over 2 / 4 range servers: adds the fleet scatter
//     (one thread per range server), the gather's node-order absorption
//     and the router-side merge.
//
// Two plan shapes bound the partial-state bandwidth: a per-node plan
// (harmonic + top-k: 8 bytes per node per collector on the wire) and a
// histogram-bearing plan (the replay stream is O(HIP entries) — the honest
// cost of distributing an order-sensitive fold, see sweep.h). On one
// machine the router cannot win wall-clock; the claim this records is that
// the protocol tax is a small constant factor, so the fleet's win on real
// hardware is the per-server memory/parallelism, not hidden overhead.
// Recorded baseline: BENCH_router.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/flat_ads.h"
#include "ads/sweep.h"
#include "bench_common.h"
#include "graph/generators.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "util/metrics.h"

namespace hipads {
namespace {

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

std::vector<CollectorSpec> PerNodePlan() {
  return {{CollectorKind::kHarmonic, 0, 0, 0.0},
          {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kHarmonic),
           10, 0.0}};
}

std::vector<CollectorSpec> HistogramPlan() {
  std::vector<CollectorSpec> spec = PerNodePlan();
  spec.insert(spec.begin(), {CollectorKind::kDistanceHistogram, 0, 0, 0.0});
  return spec;
}

std::vector<CollectorSpec> PlanFor(int shape) {
  return shape == 0 ? PerNodePlan() : HistogramPlan();
}

// A loopback fleet of `servers` range servers over even node splits.
struct Fleet {
  std::vector<FlatAdsSet> slices;
  std::vector<std::unique_ptr<FlatAdsBackend>> backends;
  std::vector<std::unique_ptr<AdsServerCore>> cores;
  FleetManifest manifest;

  Fleet(const FlatAdsSet& full, uint32_t servers) {
    NodeId n = static_cast<NodeId>(full.num_nodes());
    manifest.num_nodes = n;
    slices.reserve(servers);  // backends alias slice addresses
    for (uint32_t s = 0; s < servers; ++s) {
      NodeId begin = static_cast<NodeId>(uint64_t{n} * s / servers);
      NodeId end = static_cast<NodeId>(uint64_t{n} * (s + 1) / servers);
      FlatAdsSet slice;
      slice.flavor = full.flavor;
      slice.k = full.k;
      slice.ranks = full.ranks;
      for (NodeId v = begin; v < end; ++v) {
        auto entries = full.of(v).entries();
        slice.AppendNode(
            std::vector<AdsEntry>(entries.begin(), entries.end()));
      }
      slices.push_back(std::move(slice));
      backends.push_back(std::make_unique<FlatAdsBackend>(&slices.back()));
      ServerOptions options;
      options.node_begin = begin;
      // Response caches off: these benchmarks measure the protocol tax of
      // sweeps that actually run, not cache hits on repeated identical
      // requests.
      options.point_cache_entries = 0;
      options.sweep_cache_entries = 0;
      cores.push_back(
          std::make_unique<AdsServerCore>(backends[s].get(), options));
      manifest.servers.push_back(
          FleetEntry{"loop:" + std::to_string(s), begin, end});
    }
  }

  ChannelFactory Factory() {
    return [this](const std::string& address)
               -> StatusOr<std::unique_ptr<Channel>> {
      for (size_t i = 0; i < manifest.servers.size(); ++i) {
        if (manifest.servers[i].address == address) {
          return std::unique_ptr<Channel>(
              std::make_unique<LoopbackChannel>(cores[i].get()));
        }
      }
      return Status::NotFound(address);
    };
  }
};

// Arg 0: plan shape (0 = per-node, 1 = + histogram).
void BM_SweepInProcess(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  std::vector<CollectorSpec> spec = PlanFor(static_cast<int>(state.range(0)));
  FlatAdsBackend backend(&set);
  for (auto _ : state) {
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    benchmark::DoNotOptimize(RunSweep(backend, plan, 1).ok());
  }
}
BENCHMARK(BM_SweepInProcess)->Arg(0)->Arg(1);

void BM_SweepLoopbackSingleServer(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  std::vector<CollectorSpec> spec = PlanFor(static_cast<int>(state.range(0)));
  FlatAdsBackend backend(&set);
  ServerOptions options;
  options.point_cache_entries = 0;
  options.sweep_cache_entries = 0;
  AdsServerCore core(&backend, options);
  LoopbackChannel channel(&core);
  SweepRequestMsg request;
  request.collectors = spec;
  for (auto _ : state) {
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    benchmark::DoNotOptimize(
        ExecuteRemoteSweep(channel, request, set.num_nodes(), built.value())
            .ok());
  }
}
BENCHMARK(BM_SweepLoopbackSingleServer)->Arg(0)->Arg(1);

// Arg 0: plan shape; arg 1: range servers.
void BM_SweepLoopbackRouter(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  std::vector<CollectorSpec> spec = PlanFor(static_cast<int>(state.range(0)));
  Fleet fleet(set, static_cast<uint32_t>(state.range(1)));
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  if (!router.ok()) {
    state.SkipWithError(router.status().ToString().c_str());
    return;
  }
  SweepRequestMsg request;
  request.collectors = spec;
  for (auto _ : state) {
    SweepPlan plan;
    auto built = BuildPlanFromSpec(spec, &plan);
    benchmark::DoNotOptimize(
        router.value().ExecuteSweep(request, built.value()).ok());
  }
}
BENCHMARK(BM_SweepLoopbackRouter)
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({1, 2})
    ->Args({1, 4});

// Point-query protocol tax: direct estimator evaluation vs the same
// lookup through the loopback router.
void BM_PointInProcess(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  NodeId v = 0;
  for (auto _ : state) {
    HipEstimator est(set.of(v), set.k, set.flavor, set.ranks);
    benchmark::DoNotOptimize(est.HarmonicCentrality());
    v = (v + 1) % set.num_nodes();
  }
}
BENCHMARK(BM_PointInProcess);

void BM_PointLoopbackRouter(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  Fleet fleet(set, 2);
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  if (!router.ok()) {
    state.SkipWithError(router.status().ToString().c_str());
    return;
  }
  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.d = std::numeric_limits<double>::infinity();
  uint64_t v = 0;
  for (auto _ : state) {
    request.node = v;
    benchmark::DoNotOptimize(router.value().Point(request).ok());
    v = (v + 1) % set.num_nodes();
  }
}
BENCHMARK(BM_PointLoopbackRouter);

// CLAIM-SERVE-BATCH: point batching amortizes both the per-frame
// protocol tax (encode, checksum, dispatch, response frame) and the
// per-request backend work — the server executes a batch as ONE pass in
// node order, sharing one estimator materialization across same-node
// entries and reusing the computed response outright for identical
// entries. The workload models a hot working set (entries rotate over 8
// distinct nodes). requests/sec = items_per_second. Arg 0: batch size
// (1 = the single kPointRequest baseline; 512 exceeds
// kMaxPointBatchEntries so the client splits it into two frames). Arg 1:
// transport (0 = loopback, 1 = TCP on 127.0.0.1). Arg 2: point-cache
// entries — 0, so every request pays real compute, or 1024 (the `serve`
// default), where the hot set answers from the cache: one probe under one
// lock per batch and the cached bytes copied into the response. The TCP
// server thread shares the host with the client, so the TCP rows depend
// on the core count (BENCH_router.json is a 4-vCPU recording); the
// loopback rows are the honest protocol-tax comparison.
void BM_PointThroughputBatched(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  FlatAdsBackend backend(&set);
  ServerOptions options;
  options.point_cache_entries = static_cast<uint32_t>(state.range(2));
  options.sweep_cache_entries = 0;
  AdsServerCore core(&backend, options);

  const size_t batch = static_cast<size_t>(state.range(0));
  const bool tcp = state.range(1) == 1;
  std::unique_ptr<TcpServer> server;
  std::unique_ptr<Channel> channel;
  if (tcp) {
    server = std::make_unique<TcpServer>(&core, TcpServerOptions{0, 1});
    if (!server->Start().ok()) {
      state.SkipWithError("cannot start the TCP server");
      return;
    }
    auto connected = TcpChannel::Connect("127.0.0.1", server->port());
    if (!connected.ok()) {
      state.SkipWithError(connected.status().ToString().c_str());
      return;
    }
    channel = std::move(connected).value();
  } else {
    channel = std::make_unique<LoopbackChannel>(&core);
  }
  AdsClient client(channel.get());

  constexpr uint64_t kHotNodes = 8;
  std::vector<PointRequestMsg> requests(batch);
  for (size_t i = 0; i < batch; ++i) {
    requests[i].kind = PointKind::kNodeStats;
    requests[i].node = (i % kHotNodes) * 499;
    requests[i].d = std::numeric_limits<double>::infinity();
  }
  uint64_t rotate = 0;
  for (auto _ : state) {
    if (batch == 1) {
      requests[0].node = (rotate++ % kHotNodes) * 499;
      benchmark::DoNotOptimize(client.Point(requests[0]).ok());
    } else {
      benchmark::DoNotOptimize(client.PointBatch(requests).ok());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
  if (server) server->Stop();
}
BENCHMARK(BM_PointThroughputBatched)
    ->Args({1, 0, 0})
    ->Args({8, 0, 0})
    ->Args({64, 0, 0})
    ->Args({512, 0, 0})
    ->Args({1, 1, 0})
    ->Args({8, 1, 0})
    ->Args({64, 1, 0})
    ->Args({512, 1, 0})
    ->Args({1, 0, 1024})
    ->Args({64, 0, 1024})
    ->Args({1, 1, 1024})
    ->Args({64, 1, 1024});

// CLAIM-SERVE-MIXED: closed-loop point-query latency (p50/p99 counters,
// microseconds) through the loopback router against a lock-free immutable
// server — alone (arg 0 = 0) and with a continuous whole-graph sweep
// hammering the same server from a background thread (arg 0 = 1). The
// lock-free read path is the claim under test: on an ImmutableReads
// backend a running sweep must not serialize point lookups behind it, so
// the p99 under sweep load stays within a small factor of the unloaded
// p99 rather than inflating by a whole sweep duration. Caches are
// disabled so every request pays its real computation.
void BM_PointLatencyMixedLoad(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  FlatAdsBackend backend(&set);
  ServerOptions options;
  options.point_cache_entries = 0;
  options.sweep_cache_entries = 0;
  AdsServerCore core(&backend, options);
  auto factory = [&core](const std::string&)
      -> StatusOr<std::unique_ptr<Channel>> {
    return std::unique_ptr<Channel>(std::make_unique<LoopbackChannel>(&core));
  };
  FleetManifest manifest;
  manifest.num_nodes = set.num_nodes();
  manifest.servers = {
      {"loop:0", 0, static_cast<NodeId>(set.num_nodes())}};
  auto router = FleetRouter::Connect(manifest, factory);
  if (!router.ok()) {
    state.SkipWithError(router.status().ToString().c_str());
    return;
  }

  std::atomic<bool> stop{false};
  std::thread sweeper;
  if (state.range(0) == 1) {
    sweeper = std::thread([&] {
      SweepRequestMsg request;
      request.collectors = PerNodePlan();
      while (!stop.load(std::memory_order_relaxed)) {
        SweepPlan plan;
        auto built = BuildPlanFromSpec(request.collectors, &plan);
        if (!built.ok()) return;
        benchmark::DoNotOptimize(
            router.value().ExecuteSweep(request, built.value()).ok());
      }
    });
  }

  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.d = std::numeric_limits<double>::infinity();
  std::vector<double> latencies_us;
  uint64_t v = 0;
  for (auto _ : state) {
    request.node = v;
    auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(router.value().Point(request).ok());
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    v = (v + 1) % set.num_nodes();
  }
  stop.store(true);
  if (sweeper.joinable()) sweeper.join();

  std::sort(latencies_us.begin(), latencies_us.end());
  auto percentile = [&](double q) {
    if (latencies_us.empty()) return 0.0;
    size_t at = static_cast<size_t>(q * (latencies_us.size() - 1));
    return latencies_us[at];
  };
  state.counters["p50_us"] = percentile(0.5);
  state.counters["p99_us"] = percentile(0.99);
}
BENCHMARK(BM_PointLatencyMixedLoad)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// CLAIM-SERVE-METRICS: the observability tax. The same loopback point
// workload as BM_PointLoopbackRouter, with the metrics registry recording
// (arg 0 = 1, the production default) vs the SetMetricsEnabled(false) kill
// switch (arg 0 = 0). The record path is a relaxed atomic add per
// instrument, so the two rows must be within noise of each other — that
// closeness IS the claim, and --perf-smoke below guards it in CI.
void BM_PointMetricsOverhead(benchmark::State& state) {
  const FlatAdsSet& set = SharedSet(4000);
  Fleet fleet(set, 2);
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  if (!router.ok()) {
    state.SkipWithError(router.status().ToString().c_str());
    return;
  }
  SetMetricsEnabled(state.range(0) == 1);
  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.d = std::numeric_limits<double>::infinity();
  uint64_t v = 0;
  for (auto _ : state) {
    request.node = v;
    benchmark::DoNotOptimize(router.value().Point(request).ok());
    v = (v + 1) % set.num_nodes();
  }
  SetMetricsEnabled(true);
}
BENCHMARK(BM_PointMetricsOverhead)->Arg(0)->Arg(1);

// ---------------------------------------------------------------------------
// --perf-smoke: the CI guard on the observability tax. Times the routed
// point workload with metrics disabled and enabled (best-of-3, seconds,
// not the full benchmark run) and fails if recording costs more than 30%.
// The check is a self-relative ratio measured back to back on the same
// box, so no baseline file is needed and absolute machine speed cancels
// out — safe on a slow 1-core CI runner.
// ---------------------------------------------------------------------------

double TimeRoutedPointsMs(FleetRouter& router, uint64_t num_nodes,
                          bool metrics_on) {
  constexpr uint64_t kQueries = 400;
  SetMetricsEnabled(metrics_on);
  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.d = std::numeric_limits<double>::infinity();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    auto start = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < kQueries; ++i) {
      request.node = i % num_nodes;
      if (!router.Point(request).ok()) {
        SetMetricsEnabled(true);
        return -1.0;
      }
    }
    auto stop = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  SetMetricsEnabled(true);
  return best;
}

int PerfSmoke() {
  const FlatAdsSet& set = SharedSet(4000);
  Fleet fleet(set, 2);
  auto router = FleetRouter::Connect(fleet.manifest, fleet.Factory());
  if (!router.ok()) {
    std::fprintf(stderr, "perf-smoke: fleet connect failed: %s\n",
                 router.status().ToString().c_str());
    return 2;
  }
  // Caches are off (Fleet disables them), so every query pays real
  // estimator compute — the honest denominator for the overhead ratio.
  TimeRoutedPointsMs(router.value(), set.num_nodes(), false);  // warm up
  const double off_ms =
      TimeRoutedPointsMs(router.value(), set.num_nodes(), false);
  const double on_ms =
      TimeRoutedPointsMs(router.value(), set.num_nodes(), true);
  if (off_ms <= 0.0 || on_ms <= 0.0) {
    std::fprintf(stderr, "perf-smoke: routed point workload failed\n");
    return 2;
  }
  constexpr double kTolerance = 1.30;  // fail past a 30% overhead
  const double ratio = on_ms / off_ms;
  const bool ok = ratio <= kTolerance;
  std::printf(
      "perf-smoke: metrics-on/off ratio %.3f (on %.2fms off %.2fms)  %s\n",
      ratio, on_ms, off_ms, ok ? "ok" : "REGRESSION");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hipads

// Records a machine-readable baseline next to the working directory unless
// the caller passes its own --benchmark_out.
int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--perf-smoke") == 0) {
    return hipads::PerfSmoke();
  }
  hipads::BenchArgs args(argc, argv, "BENCH_router.json");
  benchmark::Initialize(&args.argc, args.argv());
  if (benchmark::ReportUnrecognizedArguments(args.argc, args.argv())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
