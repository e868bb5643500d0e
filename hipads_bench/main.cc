// hipads_bench: one end-to-end ledger for build, sharded analytics and fleet
// serving, with a traced per-layer run.
//
//   hipads_bench --workload build|analytics|serving --seed N --seconds T
//                --trace 0|1 [--scale 16] [--work-dir DIR] [--trace-out F]
//
// Every workload generates one R-MAT graph from --seed, sketches it
// (bottom-k, k = 16, uniform ranks) and drives the library only through its
// public API. A run has three phases; the workload decides which one gets
// most of the --seconds budget and what set-up covers:
//
//   build      the build pipeline (parallel pruned Dijkstra -> FlatAdsSet ->
//              PrecomputeHipWeights -> 8-shard v2+HIP directory), repeated;
//   analytics  alternating local sharded sweeps and fleet sweeps through the
//              router, with a 200/s point trickle on a second connection;
//   serving    routed points from 4 connections: open loop at a frozen rate,
//              then closed loop (mix and PointBatch(64)).
//
// Outputs are checked: every sweep's collector results must be bitwise equal
// to an in-process RunSweep of the same plan, 1 in 64 point answers must
// match a local AdsServerCore over the unsplit set byte for byte, registry
// counts must meet exact invariants, and the HIP neighborhood NRMSE must stay
// within the paper's bound. The last stdout line is the JSON result; with
// --trace 0 it carries the end-to-end metrics, with --trace 1 the per-layer
// metrics computed from bench-owned spans (trace.h).

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/shard.h"
#include "ads/sweep.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "trace.h"
#include "util/metrics.h"

namespace hipads {
namespace {

using hipads_bench::NowNs;
using hipads_bench::ScopedSpan;
using hipads_bench::Span;
using hipads_bench::Tracer;

// ---------------------------------------------------------------------------
// Frozen settings. Changing any of these changes what the benchmark measures.
// ---------------------------------------------------------------------------
constexpr uint64_t kEdgesPerNode = 8;
constexpr uint32_t kK = 16;
constexpr uint32_t kBuildThreads = 4;
constexpr uint32_t kLocalShards = 8;
constexpr uint32_t kServers = 2;
constexpr uint32_t kLocalSweepThreads = 4;   // CLI `stats` default on 4 cores
constexpr uint32_t kServerSweepThreads = 2;  // per range server, per sweep
constexpr uint32_t kLoadConnections = 4;     // serving phase
constexpr double kTrickleHz = 200.0;
// Open-loop offered rate of the serving phase (points/s over 4
// connections), frozen: about a fifth of the closed-loop mix capacity on a
// quiet 4-vCPU VM, so that a host taking the vCPUs away for a while slows
// the answers without overloading the fleet. One call per connection
// period (1 ms) also leaves room for a PointBatch(64) (~0.7 ms).
constexpr double kOpenLoopRate = 4000.0;
constexpr uint32_t kCheckEvery = 64;  // 1 in 64 point answers is verified
constexpr uint32_t kBatchSize = 64;
constexpr uint32_t kLookupTargets = 8;
constexpr uint32_t kTopCount = 10;
constexpr uint32_t kNrmseSample = 256;
// Sampling slack on top of the paper's NRMSE bound 1/sqrt(2(k-1)): several
// standard errors of an NRMSE estimated from 256 nodes x 3 radii.
constexpr double kNrmseSlack = 0.05;

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  return SplitMix(seed * 0x100000001b3ULL + stream);
}

struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    return SplitMix(state);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}
double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0;
  for (double x : v) s += x;
  return s / v.size();
}
double Ms(uint64_t ns) { return ns / 1e6; }

/// CPU time of the whole process (load generator, router and servers run in
/// it), which leaves out the time the host keeps the VM's vCPUs away.
uint64_t ProcessCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + ts.tv_nsec;
}
double Us(uint64_t ns) { return ns / 1e3; }

void SleepUntilNs(uint64_t t) {
  uint64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Operations attempted and failed across the whole run, plus the first few
/// failure messages for stderr.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& what) {
    ++failed_;
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 20) messages_.push_back(what);
  }
  /// A violated invariant or gate: not an operation, but the run is wrong.
  void Violation(const std::string& what) {
    violations_ = true;
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 40) messages_.push_back("invariant: " + what);
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !violations_; }
  void Report() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& m : messages_) {
      std::fprintf(stderr, "hipads_bench: %s\n", m.c_str());
    }
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> violations_{false};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
};

Ledger& TheLedger() {
  static Ledger* ledger = new Ledger();
  return *ledger;
}

// Registry reads: counters summed by name, histograms as (count, sum).
uint64_t CounterOf(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}
std::pair<uint64_t, uint64_t> HistogramOf(const MetricsSnapshot& s,
                                          const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return {h.count, h.sum};
  }
  return {0, 0};
}
MetricsSnapshot Snap() { return MetricsRegistry::Get().Snapshot(); }

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  uint32_t scale = 16;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--scale") {
      a->scale = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  return (a->workload == "build" || a->workload == "analytics" ||
          a->workload == "serving") &&
         a->seconds > 0 && a->scale >= 6 && a->scale <= 20;
}

// ---------------------------------------------------------------------------
// Build pipeline: graph in memory -> 8 shard files plus MANIFEST on disk.
// ---------------------------------------------------------------------------
struct BuildResult {
  FlatAdsSet flat;
  AdsBuildStats stats;
  uint64_t build_ns = 0, to_flat_ns = 0, hip_ns = 0, write_ns = 0;
  uint64_t dir_bytes = 0;
  uint64_t total_ns() const { return build_ns + to_flat_ns + hip_ns + write_ns; }
};

BuildResult RunBuild(const Graph& g, uint64_t rank_seed,
                     const std::string& dir) {
  BuildResult r;
  ScopedSpan pipeline("ads.build.pipeline");
  std::filesystem::remove_all(dir);
  uint64_t t0 = NowNs();
  AdsSet sketches = [&] {
    ScopedSpan span("ads.build");
    return BuildAdsPrunedDijkstraParallel(g, kK, SketchFlavor::kBottomK,
                                          RankAssignment::Uniform(rank_seed),
                                          kBuildThreads, &r.stats);
  }();
  uint64_t t1 = NowNs();
  {
    ScopedSpan span("ads.build.to_flat");
    r.flat = FlatAdsSet::FromAdsSet(sketches);
  }
  sketches = AdsSet();
  uint64_t t2 = NowNs();
  {
    ScopedSpan span("ads.hip.precompute");
    PrecomputeHipWeights(&r.flat, kBuildThreads);
  }
  uint64_t t3 = NowNs();
  Status written = [&] {
    ScopedSpan span("ads.shard.write");
    return WriteShardedAdsSet(r.flat, dir, kLocalShards);
  }();
  uint64_t t4 = NowNs();
  TheLedger().Attempt();
  if (!written.ok()) TheLedger().Fail("shard write: " + written.ToString());
  r.build_ns = t1 - t0;
  r.to_flat_ns = t2 - t1;
  r.hip_ns = t3 - t2;
  r.write_ns = t4 - t3;
  r.dir_bytes = DirBytes(dir);
  return r;
}

// ---------------------------------------------------------------------------
// The fleet: two range servers over a 2-shard split plus a router, all over
// 127.0.0.1 TCP with the CLI serve/route defaults.
// ---------------------------------------------------------------------------
struct Fleet {
  std::vector<std::unique_ptr<AdsBackend>> backends;
  std::vector<std::unique_ptr<AdsServerCore>> cores;
  std::vector<std::unique_ptr<FrameHandler>> handlers;  // traced decorators
  std::vector<std::unique_ptr<TcpServer>> servers;
  std::vector<NodeId> begins;  // global begin of each server's range
  std::optional<FleetRouter> router;
  std::unique_ptr<RouterCore> router_core;
  std::unique_ptr<FrameHandler> router_handler;
  std::unique_ptr<TcpServer> router_server;
  uint16_t port = 0;

  // Front door first, range servers last: nothing is torn down while a
  // component that calls into it still runs.
  ~Fleet() {
    router_server.reset();
    router_handler.reset();
    router_core.reset();
    router.reset();
    servers.clear();
  }

  size_t OwnerOf(NodeId v) const {
    size_t s = 0;
    while (s + 1 < begins.size() && v >= begins[s + 1]) ++s;
    return s;
  }
};

TcpServerOptions CliTcpOptions() {
  TcpServerOptions tcp;
  tcp.port = 0;
  tcp.num_workers = 4;  // `serve`/`route` --workers default
  return tcp;
}

Status StartFleet(const FlatAdsSet& flat, const std::string& dir,
                  bool traced, Fleet* fleet) {
  std::filesystem::remove_all(dir);
  Status written =
      WriteShardedAdsSet(flat, dir, BalancedShardSplits(flat, kServers));
  if (!written.ok()) return written;
  auto layout = ShardedAdsSet::Open(dir, ShardedOptions{});
  if (!layout.ok()) return layout.status();
  FleetManifest manifest;
  manifest.num_nodes = flat.num_nodes();
  for (const ShardInfo& shard : layout.value().shards()) {
    AdsBackendOptions bo;  // `serve` default: copying loader
    auto backend = OpenAdsBackend(dir + "/" + shard.file, bo);
    if (!backend.ok()) return backend.status();
    fleet->backends.push_back(std::move(backend).value());
    ServerOptions so;  // caches 1024/4, as `serve`
    so.node_begin = shard.begin;
    so.num_threads = 0;  // `serve --threads` default: hardware count
    fleet->cores.push_back(
        std::make_unique<AdsServerCore>(fleet->backends.back().get(), so));
    FrameHandler* handler = fleet->cores.back().get();
    if (traced) {
      fleet->handlers.push_back(std::make_unique<hipads_bench::TracedHandler>(
          handler, /*is_router=*/false));
      handler = fleet->handlers.back().get();
    }
    fleet->servers.push_back(
        std::make_unique<TcpServer>(handler, CliTcpOptions()));
    Status started = fleet->servers.back()->Start();
    if (!started.ok()) return started;
    fleet->begins.push_back(shard.begin);
    manifest.servers.push_back(
        FleetEntry{"127.0.0.1:" + std::to_string(fleet->servers.back()->port()),
                   shard.begin, shard.end});
  }
  // The copy backends now hold the split in memory. Removing the files
  // before the kernel writes them back keeps disk I/O out of the run.
  std::filesystem::remove_all(dir);
  RouterOptions ro;  // `route` defaults: retries 1, no hedge, no coalescing
  ro.retries = 1;
  ro.hedge = false;
  ro.coalesce_window_us = 0;
  ChannelFactory factory = TcpChannelFactory();  // non-pipelined channels
  if (traced) factory = hipads_bench::TracedChannelFactory(factory);
  auto router = FleetRouter::Connect(manifest, factory, ro);
  if (!router.ok()) return router.status();
  fleet->router.emplace(std::move(router).value());
  fleet->router_core = std::make_unique<RouterCore>(&*fleet->router);
  FrameHandler* front = fleet->router_core.get();
  if (traced) {
    fleet->router_handler = std::make_unique<hipads_bench::TracedHandler>(
        front, /*is_router=*/true);
    front = fleet->router_handler.get();
  }
  fleet->router_server = std::make_unique<TcpServer>(front, CliTcpOptions());
  Status started = fleet->router_server->Start();
  if (!started.ok()) return started;
  fleet->port = fleet->router_server->port();
  return Status::Ok();
}

StatusOr<std::unique_ptr<TcpChannel>> ConnectRouter(const Fleet& fleet) {
  return TcpChannel::Connect("127.0.0.1", fleet.port);
}

// ---------------------------------------------------------------------------
// Sweep plans and bitwise result digests
// ---------------------------------------------------------------------------
std::vector<std::vector<CollectorSpec>> SweepSpecs() {
  // histogram + harmonic + top-10, plus one rotating statistic: six
  // distinct specs, more than the 4-entry sweep cache holds.
  std::vector<CollectorSpec> extra = {
      {CollectorKind::kNeighborhoodSize, 0, 0, 2.0},
      {CollectorKind::kNeighborhoodSize, 0, 0, 3.0},
      {CollectorKind::kNeighborhoodSize, 0, 0, 4.0},
      {CollectorKind::kDistanceSum, 0, 0, 0.0},
      {CollectorKind::kReachableCount, 0, 0, 0.0},
      {CollectorKind::kQg, static_cast<uint32_t>(QgKind::kExpDecay), 0, 0.5},
  };
  std::vector<std::vector<CollectorSpec>> specs;
  for (const CollectorSpec& e : extra) {
    specs.push_back({{CollectorKind::kDistanceHistogram, 0, 0, 0.0},
                     {CollectorKind::kHarmonic, 0, 0, 0.0},
                     {CollectorKind::kTopK,
                      static_cast<uint32_t>(ScoreKind::kHarmonic), kTopCount,
                      0.0},
                     e});
  }
  return specs;
}

template <typename T>
void AppendRaw(const T& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Every collector's results as raw bytes: equal digests mean bitwise equal
/// results.
std::string Digest(const std::vector<SweepCollector*>& collectors) {
  std::string out;
  for (SweepCollector* c : collectors) {
    if (auto* h = dynamic_cast<DistanceHistogramCollector*>(c)) {
      for (const auto& [d, pairs] : h->Distribution()) {
        AppendRaw(d, &out);
        AppendRaw(pairs, &out);
      }
    } else if (auto* p = dynamic_cast<PerNodeCollector*>(c)) {
      const std::vector<double>& values = p->values();
      out.append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(double));
      if (auto* t = dynamic_cast<TopKCollector*>(c)) {
        for (NodeId v : t->TopNodes()) AppendRaw(v, &out);
      }
    }
    out.push_back('|');
  }
  return out;
}

// ---------------------------------------------------------------------------
// Point requests, their checks, and the serving mix
// ---------------------------------------------------------------------------
struct PointSample {
  MessageType type;
  std::string request;   // payload
  std::string response;  // payload
};

/// Zipf(s = 1) over a seed-permuted id space.
class ZipfNodes {
 public:
  ZipfNodes(uint64_t n, uint64_t seed) : perm_(n), cdf_(n) {
    for (uint64_t i = 0; i < n; ++i) perm_[i] = static_cast<NodeId>(i);
    Rng rng(seed);
    for (uint64_t i = n; i > 1; --i) std::swap(perm_[i - 1], perm_[rng.Below(i)]);
    double total = 0;
    for (uint64_t i = 0; i < n; ++i) cdf_[i] = (total += 1.0 / (i + 1));
    for (double& c : cdf_) c /= total;
  }
  NodeId Draw(Rng& rng) const {
    double u = rng.Unit();
    size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return perm_[std::min(i, perm_.size() - 1)];
  }

 private:
  std::vector<NodeId> perm_;
  std::vector<double> cdf_;
};

struct PointOp {
  MessageType type;      // kPointRequest or kPointBatchRequest
  std::string payload;
  uint32_t entries = 1;  // point answers carried
};

class MixGenerator {
 public:
  MixGenerator(const ZipfNodes* zipf, const Fleet* fleet, uint64_t n,
               uint64_t seed)
      : zipf_(zipf), fleet_(fleet), n_(n), rng_(seed) {}

  PointRequestMsg NodeStats() {
    PointRequestMsg m;
    m.kind = PointKind::kNodeStats;
    m.node = zipf_->Draw(rng_);
    m.d = rng_.Below(2) == 0 ? std::numeric_limits<double>::infinity()
                             : static_cast<double>(1 + rng_.Below(3));
    return m;
  }

  PointOp Batch() {
    PointBatchRequestMsg batch;
    for (uint32_t i = 0; i < kBatchSize; ++i) {
      batch.entries.push_back(NodeStats());
    }
    return {MessageType::kPointBatchRequest, EncodePointBatchRequest(batch),
            kBatchSize};
  }

  /// 70% node stats, 15% lookup of 8 targets, 10% Jaccard (half across
  /// servers), 5% PointBatch of 64.
  PointOp Next() {
    uint64_t r = rng_.Below(100);
    if (r < 70) {
      return {MessageType::kPointRequest, EncodePointRequest(NodeStats()), 1};
    }
    PointRequestMsg m;
    if (r < 85) {
      m.kind = PointKind::kLookup;
      m.node = zipf_->Draw(rng_);
      for (uint32_t i = 0; i < kLookupTargets; ++i) {
        m.targets.push_back(rng_.Below(n_));
      }
    } else if (r < 95) {
      m.kind = PointKind::kJaccard;
      m.node = zipf_->Draw(rng_);
      m.d = static_cast<double>(2 + rng_.Below(2));
      bool cross = rng_.Below(2) == 0;
      size_t owner = fleet_->OwnerOf(static_cast<NodeId>(m.node));
      m.other = zipf_->Draw(rng_);
      for (int tries = 0;
           tries < 64 &&
           (fleet_->OwnerOf(static_cast<NodeId>(m.other)) != owner) != cross;
           ++tries) {
        m.other = zipf_->Draw(rng_);
      }
    } else {
      return Batch();
    }
    return {MessageType::kPointRequest, EncodePointRequest(m), 1};
  }

 private:
  const ZipfNodes* zipf_;
  const Fleet* fleet_;
  uint64_t n_;
  Rng rng_;
};

/// Point operations sent and their request + response frame bytes.
struct WireTally {
  uint64_t ops = 0;
  uint64_t bytes = 0;
};

/// Sends one point op and validates the response shape. Returns false (and
/// records the failure) on transport errors, error frames, or failed batch
/// entries.
bool CallPoint(Channel& channel, const PointOp& op, Frame* response,
               WireTally* tally) {
  std::string frame = EncodeFrame(op.type, op.payload);
  TheLedger().Attempt();
  Status st = channel.Call(frame, response);
  if (!st.ok()) {
    TheLedger().Fail("point call: " + st.ToString());
    return false;
  }
  ++tally->ops;
  tally->bytes += frame.size() + response->payload.size();
  MessageType want = op.type == MessageType::kPointBatchRequest
                         ? MessageType::kPointBatchResponse
                         : MessageType::kPointResponse;
  if (response->type != want) {
    TheLedger().Fail("point answer: " +
                     (response->type == MessageType::kError
                          ? DecodeError(response->payload).ToString()
                          : std::string("unexpected frame type")));
    return false;
  }
  if (op.type == MessageType::kPointBatchRequest) {
    auto decoded = DecodePointBatchResponse(response->payload);
    if (!decoded.ok() || decoded.value().entries.size() != op.entries) {
      TheLedger().Fail("batch answer undecodable");
      return false;
    }
    for (const auto& e : decoded.value().entries) {
      if (!e.status.ok()) {
        TheLedger().Fail("batch entry: " + e.status.ToString());
        return false;
      }
    }
  }
  return true;
}

/// Compares sampled answers byte for byte against the reference core over
/// the unsplit set; a mismatch is a failed operation.
void VerifySamples(const std::vector<PointSample>& samples,
                   AdsServerCore* reference) {
  auto lone = [&](const std::string& payload) -> std::string {
    bool close = false;
    std::string out = reference->HandleFrame(
        EncodeFrame(MessageType::kPointRequest, payload), &close);
    auto frame = DecodeFrame(out);
    if (!frame.ok() || frame.value().type != MessageType::kPointResponse) {
      return "<reference error>";
    }
    return frame.value().payload;
  };
  for (const PointSample& s : samples) {
    if (s.type == MessageType::kPointRequest) {
      if (lone(s.request) != s.response) {
        TheLedger().Fail("point answer differs from the unsplit reference");
      }
      continue;
    }
    auto request = DecodePointBatchRequest(s.request);
    auto response = DecodePointBatchResponse(s.response);
    if (!request.ok() || !response.ok() ||
        request.value().entries.size() != response.value().entries.size()) {
      TheLedger().Fail("batch sample undecodable");
      continue;
    }
    for (size_t i = 0; i < request.value().entries.size(); ++i) {
      if (lone(EncodePointRequest(request.value().entries[i])) !=
          response.value().entries[i].payload) {
        TheLedger().Fail("batch entry differs from the unsplit reference");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Run state shared by the phases
// ---------------------------------------------------------------------------
struct Samples {
  // build phase
  std::vector<double> build_s, build_ms, to_flat_ms, hip_ms, write_ms;
  // analytics phase
  std::vector<double> sweep_local_ms, sweep_fleet_ms, trickle_us;
  uint64_t local_sweeps = 0, fleet_sweeps = 0;
  uint64_t local_rotation = 0, fleet_rotation = 0;  // every sweep, recorded or not
  uint64_t shard_loads = 0, shard_evictions = 0, prefetch_hits = 0,
           prefetch_misses = 0, sweep_nodes = 0, sweep_entries = 0;
  uint64_t map_busy_ns = 0;
  // serving phase
  std::vector<double> late_ms;
  uint64_t open_samples = 0;
  // per-window figures behind the serving medians
  std::vector<double> open_p50_windows, open_p99_windows, qps_windows,
      batch_windows;
  double point_cpu_us_per_op = 0, batch_cpu_us_per_entry = 0;
  double point_p50_us = 0, point_p99_us = 0;
  double point_qps = 0, point_qps_untraced = 0, batch_entries_per_s = 0;
  WireTally wire;  // serving-phase point ops (the trickle excluded)
};

struct Run {
  Args args;
  uint64_t n = 0;
  Graph graph;
  std::string shard_dir, fleet_dir;
  std::optional<BuildResult> built;
  std::unique_ptr<AdsBackend> local;           // 8-shard directory
  std::unique_ptr<AdsBackend> local_traced;    // TracedBackend over `local`
  double open_ms = 0;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<FlatAdsBackend> reference_backend;
  std::unique_ptr<AdsServerCore> reference_core;
  std::vector<std::vector<CollectorSpec>> specs;
  std::vector<std::string> reference_digests;
  std::vector<PointSample> samples;
  std::mutex samples_mu;
  Samples s;
  std::vector<double> setup_s, generate_ms;
};

void AddSamples(Run& run, std::vector<PointSample>* local) {
  std::lock_guard<std::mutex> lock(run.samples_mu);
  for (auto& s : *local) run.samples.push_back(std::move(s));
  local->clear();
}

uint64_t RankSeed(const Run& run) { return DeriveSeed(run.args.seed, 2); }

void GenerateGraph(Run& run) {
  ScopedSpan span("graph.generate");
  uint64_t t0 = NowNs();
  run.graph = Rmat(run.args.scale, kEdgesPerNode,
                   DeriveSeed(run.args.seed, 1), /*undirected=*/true);
  run.generate_ms.push_back(Ms(NowNs() - t0));
  run.n = run.graph.num_nodes();
}

/// Opens the local sharded directory with the CLI `stats` defaults.
Status OpenLocal(Run& run) {
  run.local_traced.reset();
  run.local.reset();
  AdsBackendOptions options;
  options.mode = BackendMode::kCopy;
  options.max_resident = 1;
  options.prefetch = true;
  options.prefetch_depth = 1;
  uint64_t t0 = NowNs();
  auto opened = [&] {
    ScopedSpan span("ads.backend.open");
    return OpenAdsBackend(run.shard_dir, options);
  }();
  run.open_ms = Ms(NowNs() - t0);
  if (!opened.ok()) return opened.status();
  run.local = std::move(opened).value();
  run.local_traced =
      std::make_unique<hipads_bench::TracedBackend>(run.local.get());
  return Status::Ok();
}

void RecordBuild(Run& run, const BuildResult& r) {
  run.s.build_s.push_back(r.total_ns() / 1e9);
  run.s.build_ms.push_back(Ms(r.build_ns));
  run.s.to_flat_ms.push_back(Ms(r.to_flat_ns));
  run.s.hip_ms.push_back(Ms(r.hip_ns));
  run.s.write_ms.push_back(Ms(r.write_ns));
}

/// Everything after the build: open the local directory, start the fleet.
Status ServeFromBuild(Run& run) {
  run.fleet.reset();
  Status st = OpenLocal(run);
  if (!st.ok()) return st;
  run.fleet = std::make_unique<Fleet>();
  return StartFleet(run.built->flat, run.fleet_dir, run.args.trace,
                    run.fleet.get());
}

/// The per-workload set-up, from seed to ready; returns seconds.
double SetupOnce(Run& run, bool full) {
  run.fleet.reset();
  run.local_traced.reset();
  run.local.reset();
  run.built.reset();
  uint64_t t0 = NowNs();
  GenerateGraph(run);
  if (full) {
    run.built.emplace(RunBuild(run.graph, RankSeed(run), run.shard_dir));
    RecordBuild(run, *run.built);
    Status st = ServeFromBuild(run);
    TheLedger().Attempt();
    if (!st.ok()) TheLedger().Fail("fleet start: " + st.ToString());
  }
  return (NowNs() - t0) / 1e9;
}

/// Reference answers: in-process sweeps over the unsplit FlatAdsSet and a
/// local core for point answers. Bench bookkeeping, outside any timing.
void PrepareReference(Run& run) {
  const FlatAdsSet& flat = run.built->flat;
  run.reference_backend = std::make_unique<FlatAdsBackend>(&flat);
  ServerOptions so;
  so.point_cache_entries = 0;
  so.sweep_cache_entries = 0;
  run.reference_core =
      std::make_unique<AdsServerCore>(run.reference_backend.get(), so);
  run.specs = SweepSpecs();
  run.reference_digests.clear();
  bool was = Tracer::Get().enabled();
  Tracer::Get().SetEnabled(false);
  for (const auto& spec : run.specs) {
    SweepPlan plan;
    auto collectors = BuildPlanFromSpec(spec, &plan);
    RunSweep(flat, plan, kLocalSweepThreads);
    run.reference_digests.push_back(Digest(collectors.value()));
  }
  Tracer::Get().SetEnabled(was);
}

// ---------------------------------------------------------------------------
// Phase: build
// ---------------------------------------------------------------------------
void BuildPhase(Run& run, double seconds, uint32_t min_iters,
                std::vector<double>* totals) {
  uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint32_t i = 0; i < min_iters || NowNs() < end; ++i) {
    run.built.reset();
    run.built.emplace(RunBuild(run.graph, RankSeed(run), run.shard_dir));
    RecordBuild(run, *run.built);
    if (totals != nullptr) totals->push_back(run.built->total_ns() / 1e9);
  }
}

// ---------------------------------------------------------------------------
// Phase: analytics
// ---------------------------------------------------------------------------
/// One analyst connection alternating local and fleet sweeps, plus the
/// open-loop point trickle on a second connection. Returns the local sweep
/// times.
std::vector<double> AnalyticsPhase(Run& run, double seconds,
                                   uint32_t min_pairs, bool record) {
  std::vector<double> local_ms;
  Fleet& fleet = *run.fleet;
  std::atomic<bool> stop{false};
  std::vector<double> trickle;
  // Drawn here: the analyst loop below advances the rotation counters.
  const uint64_t trickle_seed =
      DeriveSeed(run.args.seed, 20 + run.s.local_rotation);
  std::thread trickler([&] {
    auto channel = ConnectRouter(fleet);
    TheLedger().Attempt();
    if (!channel.ok()) {
      TheLedger().Fail("trickle connect: " + channel.status().ToString());
      return;
    }
    Rng rng(trickle_seed);
    std::vector<PointSample> local_samples;
    uint64_t period = static_cast<uint64_t>(1e9 / kTrickleHz);
    uint64_t start = NowNs();
    WireTally tally;
    for (uint64_t i = 0; !stop.load(); ++i) {
      uint64_t due = start + i * period;
      SleepUntilNs(due);
      if (stop.load()) break;
      PointRequestMsg m;
      m.kind = PointKind::kNodeStats;
      m.node = rng.Below(run.n);
      m.d = rng.Below(2) == 0 ? std::numeric_limits<double>::infinity()
                              : static_cast<double>(1 + rng.Below(3));
      PointOp op{MessageType::kPointRequest, EncodePointRequest(m), 1};
      Frame response;
      bool ok = CallPoint(*channel.value(), op, &response, &tally);
      trickle.push_back(Us(NowNs() - due));
      if (ok && i % kCheckEvery == 0) {
        local_samples.push_back({op.type, op.payload, response.payload});
      }
    }
    AddSamples(run, &local_samples);
  });

  auto channel = ConnectRouter(fleet);
  TheLedger().Attempt();
  if (!channel.ok()) {
    TheLedger().Fail("analyst connect: " + channel.status().ToString());
    stop = true;
    trickler.join();
    return local_ms;
  }
  hipads_bench::TracedChannel analyst(std::move(channel).value(),
                                      "bench.analyst.call");
  const AdsBackend& local = run.args.trace ? *run.local_traced : *run.local;
  uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  for (uint32_t i = 0; i < min_pairs || NowNs() < end; ++i) {
    size_t which = run.s.local_rotation++ % run.specs.size();
    const auto& spec = run.specs[which];
    // (a) local fused sweep over the 8-shard directory.
    {
      SweepPlan plan;
      auto collectors = BuildPlanFromSpec(spec, &plan);
      std::vector<std::unique_ptr<hipads_bench::TracedCollector>> wrappers;
      SweepPlan traced;
      hipads_bench::WrapPlan(plan, &wrappers, &traced);
      MetricsSnapshot before = Snap();
      uint64_t busy0 = hipads_bench::MapBusyNs();
      uint64_t t0 = NowNs();
      Status st = [&] {
        ScopedSpan span("ads.sweep.local");
        return RunSweep(local, run.args.trace ? traced : plan,
                        kLocalSweepThreads);
      }();
      uint64_t t1 = NowNs();
      hipads_bench::FlushMapBusy();
      MetricsSnapshot after = Snap();
      TheLedger().Attempt();
      if (!st.ok()) {
        TheLedger().Fail("local sweep: " + st.ToString());
      } else if (Digest(collectors.value()) != run.reference_digests[which]) {
        TheLedger().Fail("local sweep differs from in-process RunSweep");
      }
      uint64_t loads = CounterOf(after, "ads.shard.loads") -
                       CounterOf(before, "ads.shard.loads");
      uint64_t nodes = CounterOf(after, "ads.sweep.nodes") -
                       CounterOf(before, "ads.sweep.nodes");
      if (loads != run.local->NumRanges()) {
        TheLedger().Violation("ads.shard.loads per cold sweep = " +
                              std::to_string(loads));
      }
      if (nodes != run.n) {
        TheLedger().Violation("ads.sweep.nodes per local sweep = " +
                              std::to_string(nodes));
      }
      local_ms.push_back(Ms(t1 - t0));
      if (record) {
        run.s.sweep_local_ms.push_back(Ms(t1 - t0));
        ++run.s.local_sweeps;
        run.s.shard_loads += loads;
        run.s.sweep_nodes += nodes;
        run.s.sweep_entries += CounterOf(after, "ads.sweep.entries") -
                               CounterOf(before, "ads.sweep.entries");
        run.s.shard_evictions += CounterOf(after, "ads.shard.evictions") -
                                 CounterOf(before, "ads.shard.evictions");
        run.s.prefetch_hits += CounterOf(after, "ads.shard.prefetch_hits") -
                               CounterOf(before, "ads.shard.prefetch_hits");
        run.s.prefetch_misses +=
            CounterOf(after, "ads.shard.prefetch_misses") -
            CounterOf(before, "ads.shard.prefetch_misses");
        run.s.map_busy_ns += hipads_bench::MapBusyNs() - busy0;
      }
    }
    // (b) fleet sweep through the router, the next spec in the rotation.
    {
      size_t next = run.s.fleet_rotation++ % run.specs.size();
      SweepPlan plan;
      auto collectors = BuildPlanFromSpec(run.specs[next], &plan);
      SweepRequestMsg request;
      request.collectors = run.specs[next];
      request.num_threads = kServerSweepThreads;
      MetricsSnapshot before = Snap();
      uint64_t t0 = NowNs();
      Status st = ExecuteRemoteSweep(analyst, request, run.n,
                                     collectors.value());
      uint64_t t1 = NowNs();
      MetricsSnapshot after = Snap();
      TheLedger().Attempt();
      if (!st.ok()) {
        TheLedger().Fail("fleet sweep: " + st.ToString());
      } else if (Digest(collectors.value()) != run.reference_digests[next]) {
        TheLedger().Fail("fleet sweep differs from in-process RunSweep");
      }
      uint64_t nodes = CounterOf(after, "ads.sweep.nodes") -
                       CounterOf(before, "ads.sweep.nodes");
      if (nodes != run.n) {
        TheLedger().Violation("ads.sweep.nodes per fleet sweep = " +
                              std::to_string(nodes));
      }
      if (record) {
        run.s.sweep_fleet_ms.push_back(Ms(t1 - t0));
        ++run.s.fleet_sweeps;
      }
    }
  }
  stop = true;
  trickler.join();
  if (record) {
    run.s.trickle_us.insert(run.s.trickle_us.end(), trickle.begin(),
                            trickle.end());
  }
  return local_ms;
}

// ---------------------------------------------------------------------------
// Phase: serving
// ---------------------------------------------------------------------------
// Serving figures are medians over kWindows equal time windows of a phase,
// so that a transient stall (the host taking the VM's CPUs for a moment)
// moves one window, not the figure.
constexpr int kWindows = 10;

int WindowOf(uint64_t t, uint64_t start, uint64_t end) {
  if (t <= start) return 0;
  uint64_t w = (t - start) * kWindows / (end - start);
  return static_cast<int>(std::min<uint64_t>(w, kWindows - 1));
}

/// Runs `body(thread, channel, gen, samples, tally)` on kLoadConnections
/// threads, each with its own router connection and generator, and
/// `meanwhile` on the calling thread until it returns.
template <typename Body>
void OnConnections(Run& run, uint64_t stream, const ZipfNodes& zipf,
                   Body body, const std::function<void()>& meanwhile = {}) {
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kLoadConnections; ++t) {
    threads.emplace_back([&, t] {
      auto channel = ConnectRouter(*run.fleet);
      TheLedger().Attempt();
      if (!channel.ok()) {
        TheLedger().Fail("load connect: " + channel.status().ToString());
        return;
      }
      MixGenerator gen(&zipf, run.fleet.get(), run.n,
                       DeriveSeed(run.args.seed, stream * 16 + t));
      std::vector<PointSample> samples;
      WireTally tally;
      body(t, *channel.value(), gen, samples, tally);
      AddSamples(run, &samples);
      std::lock_guard<std::mutex> lock(run.samples_mu);
      run.s.wire.ops += tally.ops;
      run.s.wire.bytes += tally.bytes;
    });
  }
  if (meanwhile) meanwhile();
  for (auto& th : threads) th.join();
}

void MaybeSample(uint64_t i, const PointOp& op, const Frame& response,
                 std::vector<PointSample>* samples) {
  if (i % kCheckEvery == 0) {
    samples->push_back({op.type, op.payload, response.payload});
  }
}

/// Open loop: each connection sends on its own fixed schedule; latency is
/// timed from the scheduled send. Returns the window medians of p50 and p99.
std::pair<double, double> OpenLoop(Run& run, const ZipfNodes& zipf,
                                   double seconds) {
  std::mutex mu;
  uint64_t start = NowNs() + 5'000'000;
  uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  double period = kLoadConnections * 1e9 / kOpenLoopRate;
  std::vector<double> windows[kWindows];
  OnConnections(run, 1, zipf,
                [&](uint32_t t, Channel& channel, MixGenerator& gen,
                    std::vector<PointSample>& samples, WireTally& tally) {
                  std::vector<double> lat[kWindows], late;
                  for (uint64_t i = 0;; ++i) {
                    uint64_t due =
                        start + static_cast<uint64_t>(
                                    (i + t / double(kLoadConnections)) * period);
                    if (due >= end) break;
                    PointOp op = gen.Next();
                    SleepUntilNs(due);
                    late.push_back(Ms(NowNs() - due));
                    Frame response;
                    bool ok = CallPoint(channel, op, &response, &tally);
                    lat[WindowOf(due, start, end)].push_back(Us(NowNs() - due));
                    if (ok) MaybeSample(i, op, response, &samples);
                  }
                  std::lock_guard<std::mutex> lock(mu);
                  for (int w = 0; w < kWindows; ++w) {
                    windows[w].insert(windows[w].end(), lat[w].begin(),
                                      lat[w].end());
                  }
                  run.s.late_ms.insert(run.s.late_ms.end(), late.begin(),
                                       late.end());
                });
  std::vector<double>& p50 = run.s.open_p50_windows;
  std::vector<double>& p99 = run.s.open_p99_windows;
  p50.clear();
  p99.clear();
  for (const auto& w : windows) {
    p50.push_back(Percentile(w, 0.5));
    p99.push_back(Percentile(w, 0.99));
    run.s.open_samples += w.size();
  }
  return {Median(p50), Median(p99)};
}

struct ClosedResult {
  double ops_per_s = 0;      // window median
  double entries_per_s = 0;  // window median
  std::vector<double> op_rates, entry_rates;  // per window
  double cpu_us_per_op = 0, cpu_us_per_entry = 0;  // window median
};

/// Closed loop: each connection sends its next op when the last returns.
ClosedResult ClosedLoop(Run& run, const ZipfNodes& zipf, double seconds,
                        bool batches_only, uint64_t stream) {
  std::mutex mu;
  uint64_t ops[kWindows] = {}, entries[kWindows] = {};
  uint64_t cpu[kWindows + 1] = {ProcessCpuNs()};
  uint64_t start = NowNs();
  uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  OnConnections(run, stream, zipf,
                [&](uint32_t, Channel& channel, MixGenerator& gen,
                    std::vector<PointSample>& samples, WireTally& tally) {
                  uint64_t my_ops[kWindows] = {}, my_entries[kWindows] = {};
                  for (uint64_t i = 0; NowNs() < end; ++i) {
                    PointOp op = batches_only ? gen.Batch() : gen.Next();
                    Frame response;
                    if (CallPoint(channel, op, &response, &tally)) {
                      uint64_t done = NowNs();
                      if (done < end) {
                        int w = WindowOf(done, start, end);
                        ++my_ops[w];
                        my_entries[w] += op.entries;
                      }
                      MaybeSample(i, op, response, &samples);
                    }
                  }
                  std::lock_guard<std::mutex> lock(mu);
                  for (int w = 0; w < kWindows; ++w) {
                    ops[w] += my_ops[w];
                    entries[w] += my_entries[w];
                  }
                },
                [&] {
                  // Process CPU at each window boundary: the same windows
                  // as the op counts, so a host stall moves one window.
                  for (int w = 1; w <= kWindows; ++w) {
                    SleepUntilNs(start + (end - start) * w / kWindows);
                    cpu[w] = ProcessCpuNs();
                  }
                });
  double window_s = seconds / kWindows;
  std::vector<double> op_rates, entry_rates, cpu_per_op, cpu_per_entry;
  for (int w = 0; w < kWindows; ++w) {
    op_rates.push_back(ops[w] / window_s);
    entry_rates.push_back(entries[w] / window_s);
    double cpu_us = (cpu[w + 1] - cpu[w]) / 1e3;
    cpu_per_op.push_back(cpu_us / std::max<uint64_t>(1, ops[w]));
    cpu_per_entry.push_back(cpu_us / std::max<uint64_t>(1, entries[w]));
  }
  return {Median(op_rates), Median(entry_rates), op_rates, entry_rates,
          Median(cpu_per_op), Median(cpu_per_entry)};
}

struct ServingBudget {
  double open_s, closed_s, batch_s;
};

void ServingPhase(Run& run, const ServingBudget& b, bool overhead_split) {
  ZipfNodes zipf(run.n, DeriveSeed(run.args.seed, 3));
  // Warm-up: connections, point caches and page faults settle first.
  ClosedLoop(run, zipf, std::min(0.5, b.closed_s), false, 9);
  std::tie(run.s.point_p50_us, run.s.point_p99_us) =
      OpenLoop(run, zipf, b.open_s);
  if (overhead_split) {
    // Trace runs measure the closed loop untraced first, then traced.
    bool traced = Tracer::Get().enabled();
    Tracer::Get().SetEnabled(false);
    run.s.point_qps_untraced =
        ClosedLoop(run, zipf, b.closed_s / 2, false, 4).ops_per_s;
    Tracer::Get().SetEnabled(traced);
    ClosedResult mix = ClosedLoop(run, zipf, b.closed_s / 2, false, 2);
    run.s.point_qps = mix.ops_per_s;
    run.s.qps_windows = mix.op_rates;
    run.s.point_cpu_us_per_op = mix.cpu_us_per_op;
  } else {
    ClosedResult mix = ClosedLoop(run, zipf, b.closed_s, false, 2);
    run.s.point_qps = mix.ops_per_s;
    run.s.qps_windows = mix.op_rates;
    run.s.point_cpu_us_per_op = mix.cpu_us_per_op;
  }
  ClosedResult batches = ClosedLoop(run, zipf, b.batch_s, true, 3);
  run.s.batch_entries_per_s = batches.entries_per_s;
  run.s.batch_windows = batches.entry_rates;
  run.s.batch_cpu_us_per_entry = batches.cpu_us_per_entry;
}

// ---------------------------------------------------------------------------
// Accuracy: HIP |N_d| against exact BFS on a fixed node sample
// ---------------------------------------------------------------------------
// The sample's estimates are strongly correlated within one rank draw (the
// lowest ranks of a component sit in most of its sketches), so one draw
// says little about the paper's expected-error bound. The NRMSE therefore
// pools kRankDraws independent draws: draw 0 is the built sketch set; the
// others re-derive each sampled node's ADS under fresh uniform ranks with
// the library's membership rule (Ads::CanonicalBottomK).
constexpr uint32_t kRankDraws = 128;

struct Accuracy {
  double nrmse = 0;
  uint64_t checked_nodes = 0;
};

/// ADS(v) under `rank`: BFS layers in (dist, node) order, prefiltered to
/// nodes whose rank beats the kth smallest rank strictly closer to v (a
/// superset of the members), then the canonical bottom-k rule.
Ads SampleAds(const std::vector<std::vector<NodeId>>& layers,
              const std::vector<double>& rank) {
  std::vector<double> closer;  // max-heap of the k smallest ranks so far
  std::vector<AdsEntry> candidates;
  for (size_t d = 0; d < layers.size(); ++d) {
    double threshold = closer.size() < kK ? 1.0 : closer.front();
    for (NodeId u : layers[d]) {
      if (rank[u] < threshold) {
        candidates.push_back({u, 0, rank[u], static_cast<double>(d)});
      }
    }
    for (NodeId u : layers[d]) {
      if (closer.size() < kK) {
        closer.push_back(rank[u]);
        std::push_heap(closer.begin(), closer.end());
      } else if (rank[u] < closer.front()) {
        std::pop_heap(closer.begin(), closer.end());
        closer.back() = rank[u];
        std::push_heap(closer.begin(), closer.end());
      }
    }
  }
  return Ads::CanonicalBottomK(std::move(candidates), kK, 1.0);
}

Accuracy NeighborhoodAccuracy(const Run& run) {
  const Graph& g = run.graph;
  const FlatAdsSet& flat = run.built->flat;
  const uint64_t n = g.num_nodes();
  Rng rng(DeriveSeed(run.args.seed, 4));
  std::vector<NodeId> sample;
  // Non-isolated nodes only: an isolated node's estimate is trivially exact.
  for (int tries = 0; sample.size() < kNrmseSample && tries < 1 << 22;
       ++tries) {
    NodeId v = static_cast<NodeId>(rng.Below(n));
    if (!g.OutArcs(v).empty()) sample.push_back(v);
  }
  std::vector<RankAssignment> draws = {flat.ranks};
  for (uint32_t r = 1; r < kRankDraws; ++r) {
    draws.push_back(RankAssignment::Uniform(DeriveSeed(run.args.seed, 100 + r)));
  }
  std::vector<std::vector<double>> ranks(draws.size(), std::vector<double>(n));
  const double radii[] = {2.0, 3.0, std::numeric_limits<double>::infinity()};
  std::vector<double> sq(sample.size() * draws.size() * 3, 0.0);
  std::atomic<uint64_t> mismatches{0};
  auto parallel = [](const std::function<void(uint32_t)>& body) {
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kBuildThreads; ++t) threads.emplace_back(body, t);
    for (auto& th : threads) th.join();
  };
  parallel([&](uint32_t t) {
    for (size_t r = t; r < draws.size(); r += kBuildThreads) {
      for (uint64_t u = 0; u < n; ++u) ranks[r][u] = draws[r].rank(u);
    }
  });
  parallel([&](uint32_t t) {
    for (size_t i = t; i < sample.size(); i += kBuildThreads) {
      NodeId v = sample[i];
      std::vector<double> dist = ShortestPathDistances(g, v);
      std::vector<std::vector<NodeId>> layers;
      double exact[3] = {0, 0, 0};
      for (NodeId u = 0; u < n; ++u) {
        if (!std::isfinite(dist[u])) continue;
        size_t d = static_cast<size_t>(dist[u]);
        if (layers.size() <= d) layers.resize(d + 1);
        layers[d].push_back(u);
        for (int r = 0; r < 3; ++r) exact[r] += dist[u] <= radii[r] ? 1 : 0;
      }
      for (size_t r = 0; r < draws.size(); ++r) {
        Ads ads = SampleAds(layers, ranks[r]);
        HipEstimator est(ads.view(), kK, SketchFlavor::kBottomK, draws[r]);
        if (r == 0) {
          // The built sketch must be exactly the canonical ADS, and its
          // stored HIP weights must give the scan's estimates bitwise.
          AdsView built = flat.of(v);
          bool same = built.size() == ads.size() &&
                      std::memcmp(built.entries().data(), ads.entries().data(),
                                  ads.size() * sizeof(AdsEntry)) == 0;
          HipEstimator stored(built, flat.hip_tau.data() + flat.offsets[v],
                              flat.hip_weight.data() + flat.offsets[v]);
          for (double radius : radii) {
            same = same && stored.NeighborhoodCardinality(radius) ==
                               est.NeighborhoodCardinality(radius);
          }
          if (!same) ++mismatches;
        }
        for (int k = 0; k < 3; ++k) {
          double rel = (est.NeighborhoodCardinality(radii[k]) - exact[k]) /
                       exact[k];
          sq[(i * draws.size() + r) * 3 + k] = rel * rel;
        }
      }
    }
  });
  TheLedger().Attempt(sample.size());
  for (uint64_t i = 0; i < mismatches.load(); ++i) {
    TheLedger().Fail("built ADS differs from the canonical bottom-k ADS");
  }
  return {std::sqrt(Mean(sq)), sample.size()};
}

// ---------------------------------------------------------------------------
// Per-layer metrics from spans
// ---------------------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void SpanMetrics(const Run& run, std::vector<Metric>* m) {
  std::vector<Span> spans = Tracer::Get().Spans();
  std::map<uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  auto is = [](const Span& s, const char* name) {
    return std::strcmp(s.name, name) == 0;
  };
  const uint32_t kPoint = static_cast<uint32_t>(MessageType::kPointRequest);
  const uint32_t kSweep = static_cast<uint32_t>(MessageType::kSweepRequest);

  // Local sweeps: wall, range loads, map phases and reduce blocks.
  struct PerSweep {
    double wall = 0, range_load = 0, map_wall = 0, reduce = 0;
  };
  std::map<uint64_t, PerSweep> sweeps;
  for (const Span& s : spans) {
    if (is(s, "ads.sweep.local")) sweeps[s.id].wall = Ms(s.dur_ns());
  }
  for (const Span& s : spans) {
    auto it = sweeps.find(s.parent);
    if (it == sweeps.end()) continue;
    if (is(s, "ads.shard.range_load")) it->second.range_load += Ms(s.dur_ns());
    if (is(s, "ads.sweep.map")) it->second.map_wall += Ms(s.dur_ns());
    if (is(s, "ads.sweep.reduce")) it->second.reduce += Ms(s.dur_ns());
  }
  std::vector<double> range_load, map_wall, reduce, self;
  for (const auto& [id, p] : sweeps) {
    range_load.push_back(p.range_load);
    map_wall.push_back(p.map_wall);
    reduce.push_back(p.reduce);
    self.push_back(p.wall - p.range_load - p.reduce);
  }

  std::vector<double> handle_point, handle_sweep, call_point, router_self,
      gather, response_bytes;
  std::vector<const Span*> sweep_calls;
  std::map<uint64_t, double> child_call_us;  // router span id -> call time
  for (const Span& s : spans) {
    if (is(s, "serve.server.handle")) {
      if (s.kind == kSweep) {
        handle_sweep.push_back(Ms(s.dur_ns()));
      } else if (s.kind == kPoint) {
        handle_point.push_back(Us(s.dur_ns()));
      }
    } else if (is(s, "serve.client.call")) {
      if (s.kind == kPoint) call_point.push_back(Us(s.dur_ns()));
      if (s.kind == kSweep) sweep_calls.push_back(&s);
      child_call_us[s.parent] += Us(s.dur_ns());
    } else if (is(s, "bench.analyst.call") && s.kind == kSweep) {
      response_bytes.push_back(static_cast<double>(s.bytes));
    }
  }
  for (const Span& s : spans) {
    if (is(s, "serve.router.point")) {
      auto it = child_call_us.find(s.id);
      router_self.push_back(Us(s.dur_ns()) -
                            (it == child_call_us.end() ? 0 : it->second));
    } else if (is(s, "serve.router.sweep")) {
      // Scatter calls run on router threads of their own: match them by
      // containment (one fleet sweep is in flight at a time).
      uint64_t slowest = 0;
      for (const Span* c : sweep_calls) {
        if (c->start_ns >= s.start_ns && c->end_ns <= s.end_ns) {
          slowest = std::max(slowest, c->dur_ns());
        }
      }
      gather.push_back(Ms(s.dur_ns() - slowest));
    }
  }
  auto add = [&](const char* name, double v, const char* unit) {
    m->push_back({name, v, unit});
  };
  const Samples& s = run.s;
  double sweeps_n = std::max<double>(1, s.local_sweeps);
  add("ads.backend.open_ms", run.open_ms, "ms");
  add("ads.shard.loads_per_sweep", s.shard_loads / sweeps_n, "count");
  add("ads.shard.range_load_ms", Median(range_load), "ms");
  add("ads.shard.prefetch_hit_ratio",
      s.prefetch_hits /
          std::max<double>(1, s.prefetch_hits + s.prefetch_misses),
      "ratio");
  add("ads.shard.evictions_per_sweep", s.shard_evictions / sweeps_n, "count");
  add("ads.sweep.map_ms", Ms(s.map_busy_ns) / sweeps_n, "ms");
  add("ads.sweep.map_wall_ms", Median(map_wall), "ms");
  add("ads.sweep.reduce_ms", Median(reduce), "ms");
  add("ads.sweep.self_ms", Median(self), "ms");
  add("ads.sweep.nodes_per_sweep", s.sweep_nodes / sweeps_n, "count");
  add("ads.sweep.entries_per_sweep", s.sweep_entries / sweeps_n, "count");
  add("serve.protocol.sweep_response_bytes", Mean(response_bytes), "B");
  add("serve.protocol.point_bytes_per_op",
      s.wire.bytes / std::max<double>(1, s.wire.ops), "B");
  add("serve.server.point_handle_us_p50", Percentile(handle_point, 0.5), "us");
  add("serve.server.point_handle_us_p99", Percentile(handle_point, 0.99), "us");
  add("serve.server.sweep_handle_ms_p50", Percentile(handle_sweep, 0.5), "ms");
  add("serve.client.call_us_p50", Percentile(call_point, 0.5), "us");
  add("serve.client.call_us_p99", Percentile(call_point, 0.99), "us");
  add("serve.client.wire_wait_us_p50",
      Percentile(call_point, 0.5) - Percentile(handle_point, 0.5), "us");
  add("serve.router.self_us_p50", Percentile(router_self, 0.5), "us");
  add("serve.router.gather_ms_per_sweep", Median(gather), "ms");
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      std::string model = line.substr(colon + 2);
      std::string clean;
      for (char c : model) {
        if (c != '"' && c != '\\') clean.push_back(c);
      }
      return clean;
    }
  }
  return "unknown";
}

std::string EnvJson(const Run& run) {
  const Args& a = run.args;
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\"}, "
      "\"input\": {\"graph\": \"rmat\", \"scale\": %u, \"nodes\": %llu, "
      "\"arcs\": %llu, \"edges_per_node\": %llu, \"undirected\": true, "
      "\"k\": %u, \"flavor\": \"bottom-k\", \"ranks\": \"uniform\"}, "
      "\"settings\": {\"local_backend\": \"copy\", \"local_shards\": %u, "
      "\"max_resident\": 1, \"prefetch_depth\": 1, \"local_sweep_threads\": "
      "%u, \"servers\": %u, \"server_backend\": \"copy\", "
      "\"server_sweep_threads\": %u, \"server_workers\": 4, "
      "\"router_workers\": 4, \"point_cache_entries\": 1024, "
      "\"sweep_cache_entries\": 4, \"retries\": 1, \"hedge\": false, "
      "\"coalesce_window_us\": 0, \"pipeline\": false, \"load_connections\": "
      "%u, \"trickle_hz\": %g, \"open_loop_rate\": %g, \"check_every\": %u}}",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      JsonNumber(a.seconds).c_str(), a.trace ? 1 : 0,
      std::thread::hardware_concurrency(), CpuModel().c_str(), __VERSION__,
      HIPADS_BENCH_BUILD_TYPE, a.scale, static_cast<unsigned long long>(run.n),
      static_cast<unsigned long long>(run.graph.num_arcs()),
      static_cast<unsigned long long>(kEdgesPerNode), kK, kLocalShards,
      kLocalSweepThreads, kServers, kServerSweepThreads, kLoadConnections,
      kTrickleHz, kOpenLoopRate, kCheckEvery);
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------
// Share of --seconds each phase gets, per workload. The named workload's
// phase takes most of the budget; the others run short, fixed-share probes
// so that every run reports every end-to-end metric.
struct Budget {
  double build, analytics, open, closed, batch;
};
Budget BudgetFor(const std::string& w, double t) {
  if (w == "build") return {0.43 * t, 0.37 * t, 0.02 * t, 0.09 * t, 0.09 * t};
  if (w == "analytics") return {0, 0.78 * t, 0.02 * t, 0.10 * t, 0.10 * t};
  return {0, 0.25 * t, 0.25 * t, 0.30 * t, 0.20 * t};
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: hipads_bench --workload build|analytics|serving "
                 "--seed N --seconds T --trace 0|1 [--scale S] "
                 "[--work-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  // The router reads this at Connect; the benchmark pins "no coalescing".
  unsetenv("HIPADS_COALESCE_WINDOW_US");
  const Args& a = run.args;
  std::filesystem::create_directories(a.work_dir);
  run.shard_dir = a.work_dir + "/shards8";
  run.fleet_dir = a.work_dir + "/fleet2";
  Tracer::Get().SetEnabled(a.trace);
  MetricsSnapshot at_start = Snap();
  Budget b = BudgetFor(a.workload, a.seconds);
  bool build_workload = a.workload == "build";

  // Set-up, several times; the last one stays up.
  const int setups = build_workload ? 5 : 2;
  for (int i = 0; i < setups; ++i) {
    run.setup_s.push_back(SetupOnce(run, !build_workload));
  }

  std::vector<double> overhead_untraced, overhead_traced;
  if (build_workload) {
    if (a.trace) {
      Tracer::Get().SetEnabled(false);
      BuildPhase(run, b.build / 2, 1, &overhead_untraced);
      Tracer::Get().SetEnabled(true);
      BuildPhase(run, b.build / 2, 1, &overhead_traced);
    } else {
      BuildPhase(run, b.build, 2, nullptr);
    }
    Status st = ServeFromBuild(run);
    TheLedger().Attempt();
    if (!st.ok()) TheLedger().Fail("fleet start: " + st.ToString());
  }
  const double rss_ready_mb = PeakRssMb();
  PrepareReference(run);

  if (run.fleet && run.fleet->router_server) {
    MetricsSnapshot phases_start = Snap();
    // Serving first, then analytics, on every workload: the serving
    // figures always follow the same set-up work.
    ServingPhase(run, {b.open, b.closed, b.batch},
                 a.trace && a.workload == "serving");
    if (a.trace && a.workload == "serving") {
      overhead_untraced = {1.0 / run.s.point_qps_untraced};
      overhead_traced = {1.0 / run.s.point_qps};
    }
    // Warm-up pair: page faults and first connections, not recorded.
    AnalyticsPhase(run, 0, 1, false);
    if (a.workload == "analytics" && a.trace) {
      Tracer::Get().SetEnabled(false);
      overhead_untraced = AnalyticsPhase(run, b.analytics / 2, 2, false);
      Tracer::Get().SetEnabled(true);
      overhead_traced = AnalyticsPhase(run, b.analytics / 2, 2, true);
    } else {
      AnalyticsPhase(run, b.analytics, 3, true);
    }
    // As in StartFleet: the shard files go before they are written back.
    run.local_traced.reset();
    run.local.reset();
    std::filesystem::remove_all(run.shard_dir);
    MetricsSnapshot phases_end = Snap();
    auto delta = [&](const char* name) {
      return CounterOf(phases_end, name) - CounterOf(phases_start, name);
    };
    if (delta("serve.cache.sweep.hits") != 0) {
      TheLedger().Violation("serve.cache.sweep.hits under rotating plans = " +
                            std::to_string(delta("serve.cache.sweep.hits")));
    }
    uint64_t shed = delta("serve.shed.busy") + delta("serve.shed.deadline");
    if (shed != 0) {
      TheLedger().Violation("serve.shed.* on the lock-free fleet = " +
                            std::to_string(shed));
    }
  }
  // Peak RSS of the library's build and serve path, read before the
  // accuracy pass allocates the benchmark's own rank draws.
  const double peak_rss_mb = PeakRssMb();

  uint64_t accuracy_t0 = NowNs();
  double nrmse = NeighborhoodAccuracy(run).nrmse;
  std::fprintf(stderr, "hipads_bench: accuracy Monte Carlo took %.2f s\n",
               (NowNs() - accuracy_t0) / 1e9);
  double nrmse_bound = 1.0 / std::sqrt(2.0 * (kK - 1)) + kNrmseSlack;
  if (!(nrmse <= nrmse_bound)) {
    TheLedger().Violation("nbhd_nrmse " + JsonNumber(nrmse) +
                          " exceeds the paper bound plus slack " +
                          JsonNumber(nrmse_bound));
  }
  bool was_tracing = Tracer::Get().enabled();
  Tracer::Get().SetEnabled(false);
  VerifySamples(run.samples, run.reference_core.get());
  Tracer::Get().SetEnabled(was_tracing);
  MetricsSnapshot at_end = Snap();
  std::fprintf(stderr,
               "hipads_bench: %zu point answers verified, %llu local + %llu "
               "fleet sweeps verified\n",
               run.samples.size(),
               static_cast<unsigned long long>(run.s.local_sweeps),
               static_cast<unsigned long long>(run.s.fleet_sweeps));

  std::vector<Metric> metrics;
  auto add = [&](const char* name, double v, const char* unit) {
    metrics.push_back({name, v, unit});
  };
  const Samples& s = run.s;
  const BuildResult& built = *run.built;
  if (!a.trace) {
    add("setup_s", Median(run.setup_s), "s");
    add("peak_rss_mb", peak_rss_mb, "MiB");
    add("build_s", Median(s.build_s), "s");
    add("store_bytes_per_entry",
        static_cast<double>(built.dir_bytes) / built.flat.TotalEntries(), "B");
    add("nbhd_nrmse", nrmse, "ratio");
    add("sweep_local_p50_ms", Median(s.sweep_local_ms), "ms");
    add("point_cpu_us_per_op", s.point_cpu_us_per_op, "us");
    add("batch_cpu_us_per_entry", s.batch_cpu_us_per_entry, "us");
  } else {
    auto delta = [&](const char* name) {
      return static_cast<double>(CounterOf(at_end, name) -
                                 CounterOf(at_start, name));
    };
    auto ratio = [&](const char* prefix) {
      std::string p = prefix;
      double hits = delta((p + ".hits").c_str());
      double misses = delta((p + ".misses").c_str());
      return hits / std::max(1.0, hits + misses);
    };
    add("graph.generate_ms", Median(run.generate_ms), "ms");
    add("graph.arcs", static_cast<double>(run.graph.num_arcs()), "count");
    add("ads.build.ms", Median(s.build_ms), "ms");
    add("ads.build.relaxations", static_cast<double>(built.stats.relaxations),
        "count");
    add("ads.build.insertions", static_cast<double>(built.stats.insertions),
        "count");
    add("ads.build.rounds", static_cast<double>(built.stats.rounds), "count");
    add("ads.build.to_flat_ms", Median(s.to_flat_ms), "ms");
    add("ads.hip.precompute_ms", Median(s.hip_ms), "ms");
    add("ads.hip.ns_per_entry",
        Median(s.hip_ms) * 1e6 / built.flat.TotalEntries(), "ns");
    add("ads.shard.write_ms", Median(s.write_ms), "ms");
    add("ads.shard.bytes_written", static_cast<double>(built.dir_bytes), "B");
    SpanMetrics(run, &metrics);
    auto batch = [&] {
      auto e = HistogramOf(at_end, "serve.batch.entries");
      auto b0 = HistogramOf(at_start, "serve.batch.entries");
      double count = static_cast<double>(e.first - b0.first);
      return (e.second - b0.second) / std::max(1.0, count);
    }();
    add("serve.server.point_cache_hit_ratio", ratio("serve.cache.point"),
        "ratio");
    add("serve.server.sweep_cache_hit_ratio", ratio("serve.cache.sweep"),
        "ratio");
    add("serve.server.shed",
        delta("serve.shed.busy") + delta("serve.shed.deadline"), "count");
    add("serve.server.batch_entries_mean", batch, "count");
    add("serve.client.connects", delta("client.tcp.connects"), "count");
    add("serve.router.retries", delta("router.retries"), "count");
    add("serve.router.scatter_fanout",
        delta("router.scatter.fanout") /
            std::max<double>(1, static_cast<double>(s.fleet_rotation)),
        "count");
    add("loadgen.late_ms_p99", Percentile(s.late_ms, 0.99), "ms");
    add("trace.overhead_ratio",
        Median(overhead_traced) / Median(overhead_untraced), "ratio");
  }

  std::string env = EnvJson(run);
  std::printf("%s\n", env.c_str());
  std::string result = "{\"correct\": " +
                       std::string(TheLedger().correct() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(TheLedger().attempted()) +
                       ", \"failed\": " + std::to_string(TheLedger().failed()) +
                       ", \"metrics\": " + MetricsJson(metrics) + "}";
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + JsonNumber(v[i]);
    }
    return out + "]";
  };
  std::string raw =
      "{\"entries\": " + std::to_string(built.flat.TotalEntries()) +
      ", \"rss_ready_mb\": " + JsonNumber(rss_ready_mb) +
      ", \"rss_after_phases_mb\": " + JsonNumber(peak_rss_mb) +
      ", \"rss_after_accuracy_mb\": " + JsonNumber(PeakRssMb()) +
      ", \"relaxations\": " + std::to_string(built.stats.relaxations) +
      ", \"setup_s\": " + list(run.setup_s) +
      ", \"build_s\": " + list(s.build_s) +
      ", \"sweep_local_ms\": " + list(s.sweep_local_ms) +
      ", \"sweep_fleet_ms\": " + list(s.sweep_fleet_ms) +
      ", \"trickle_samples\": " + std::to_string(s.trickle_us.size()) +
      ", \"open_samples\": " + std::to_string(s.open_samples) +
      ", \"sweep_fleet_p50_ms\": " + JsonNumber(Median(s.sweep_fleet_ms)) +
      ", \"trickle_point_p99_us\": " +
      JsonNumber(Percentile(s.trickle_us, 0.99)) +
      ", \"point_p50_us\": " + JsonNumber(s.point_p50_us) +
      ", \"point_p99_us\": " + JsonNumber(s.point_p99_us) +
      ", \"point_qps\": " + JsonNumber(s.point_qps) +
      ", \"batch_entries_per_s\": " + JsonNumber(s.batch_entries_per_s) +
      ", \"open_p50_us_windows\": " + list(s.open_p50_windows) +
      ", \"open_p99_us_windows\": " + list(s.open_p99_windows) +
      ", \"qps_windows\": " + list(s.qps_windows) +
      ", \"batch_entries_per_s_windows\": " + list(s.batch_windows) + "}";
  {
    std::ofstream record(a.work_dir + "/result-" + a.workload + "-" +
                         std::to_string(a.seed) + "-t" +
                         (a.trace ? "1" : "0") + ".json");
    record << "{\"run\": " << env << ", \"samples\": " << raw
           << ", \"result\": " << result << "}\n";
  }
  if (a.trace && !a.trace_out.empty()) {
    Tracer::Get().WriteChromeJson(a.trace_out, 50000);
  }
  TheLedger().Report();
  // Stop every server and prefetch thread before reporting the result.
  run.fleet.reset();
  run.local_traced.reset();
  run.local.reset();
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return TheLedger().correct() ? 0 : 1;
}

}  // namespace
}  // namespace hipads

int main(int argc, char** argv) { return hipads::Main(argc, argv); }
