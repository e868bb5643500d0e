// The observability subsystem: the process-wide metrics registry
// (util/metrics.h), the wire-scraped stats frames (kStatsRequest /
// kStatsResponse) and per-request tracing (serve/trace.h). The
// acceptance contract: counters account EXACTLY for the requests
// issued; scraping a router aggregates every range server's snapshot
// over live TCP; and metrics/tracing never change response bytes —
// responses are bitwise identical with metrics on, off, or while a
// scrape loop hammers the server mid-load (the tsan lane gives the
// concurrent cases their teeth).

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/sweep.h"
#include "graph/generators.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/trace.h"

namespace hipads {
namespace {

FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  return FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(graph_seed + 1)));
}

uint64_t CounterOf(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

int64_t GaugeOf(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return g.value;
  }
  return 0;
}

const MetricsSnapshot::HistogramValue* HistogramOf(
    const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

// ---------------------------------------------------------------------
// Registry unit tests.
// ---------------------------------------------------------------------

TEST(MetricsTest, CountersGaugesHistogramsRecordThroughTheRegistry) {
  MetricsRegistry::Get().ResetForTest();
  MetricCounter* c = MetricsRegistry::Get().Counter("test.counter");
  MetricGauge* g = MetricsRegistry::Get().Gauge("test.gauge");
  MetricHistogram* h = MetricsRegistry::Get().Histogram("test.hist");
  c->Add();
  c->Add(4);
  g->Add(3);
  g->Add(-5);
  h->Record(0);
  h->Record(1);
  h->Record(100);
  // The same name resolves to the same instrument.
  EXPECT_EQ(MetricsRegistry::Get().Counter("test.counter"), c);
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(CounterOf(snap, "test.counter"), 5u);
  EXPECT_EQ(GaugeOf(snap, "test.gauge"), -2);
  const auto* hist = HistogramOf(snap, "test.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 3u);
  EXPECT_EQ(hist->sum, 101u);
  // Log2 buckets: 0 -> bucket 0, 1 -> bucket 1, 100 (7 bits) -> bucket 7.
  EXPECT_EQ(hist->buckets[0], 1u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[7], 1u);
  EXPECT_EQ(MetricHistogram::BucketOf(std::numeric_limits<uint64_t>::max()),
            MetricHistogram::kBuckets - 1);
}

TEST(MetricsTest, AttachedInstrumentsSumUnderOneName) {
  MetricsRegistry::Get().ResetForTest();
  MetricsRegistry::Get().Counter("test.shared")->Add(10);
  {
    RegisteredCounter a("test.shared");
    RegisteredCounter b("test.shared");
    a.Add(5);
    b.Add(7);
    EXPECT_EQ(CounterOf(MetricsRegistry::Get().Snapshot(), "test.shared"),
              22u);
    // A move re-attaches the new address and keeps the value.
    RegisteredCounter moved = std::move(a);
    moved.Add(1);
    EXPECT_EQ(CounterOf(MetricsRegistry::Get().Snapshot(), "test.shared"),
              23u);
  }
  // Owners gone: only the registry-owned part remains.
  EXPECT_EQ(CounterOf(MetricsRegistry::Get().Snapshot(), "test.shared"),
            10u);
}

TEST(MetricsTest, KillSwitchGatesCountersAndHistogramsButNeverGauges) {
  MetricsRegistry::Get().ResetForTest();
  MetricCounter* c = MetricsRegistry::Get().Counter("test.gated");
  MetricHistogram* h = MetricsRegistry::Get().Histogram("test.gated_h");
  MetricGauge* g = MetricsRegistry::Get().Gauge("test.ungated");
  SetMetricsEnabled(false);
  c->Add(9);
  h->Record(9);
  g->Add(9);  // gauges are state, not samples — always live
  SetMetricsEnabled(true);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(g->value(), 9);
  g->Add(-9);
}

TEST(MetricsTest, SnapshotIsNameSortedAndSerializesDeterministically) {
  MetricsRegistry::Get().ResetForTest();
  MetricsRegistry::Get().Counter("test.z")->Add(1);
  MetricsRegistry::Get().Counter("test.a")->Add(2);
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  size_t ia = 0, iz = 0;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (snap.counters[i].name == "test.a") ia = i;
    if (snap.counters[i].name == "test.z") iz = i;
  }
  EXPECT_LT(ia, iz);
  EXPECT_NE(snap.ToText().find("counter test.a 2\n"), std::string::npos);
  EXPECT_NE(snap.ToJson().find("\"test.a\":2"), std::string::npos);
  // Two snapshots of identical state serialize identically.
  EXPECT_EQ(snap.ToText(), MetricsRegistry::Get().Snapshot().ToText());
  EXPECT_EQ(snap.ToJson(), MetricsRegistry::Get().Snapshot().ToJson());
}

// ---------------------------------------------------------------------
// Server instrumentation + wire scrape.
// ---------------------------------------------------------------------

TEST(ObservabilityTest, ServerScrapeAccountsExactlyForIssuedRequests) {
  MetricsRegistry::Get().ResetForTest();
  FlatAdsSet set = BuildFlat(60, 3, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel channel(&core);
  AdsClient client(&channel);

  ASSERT_TRUE(client.Info().ok());
  PointRequestMsg point;
  point.kind = PointKind::kNodeStats;
  point.d = std::numeric_limits<double>::infinity();
  for (uint64_t node : {3u, 5u, 5u}) {  // node 5 twice: one cache hit
    point.node = node;
    ASSERT_TRUE(client.Point(point).ok());
  }
  std::vector<PointRequestMsg> batch(2, point);
  batch[0].node = 7;
  batch[1].node = 9;
  ASSERT_TRUE(client.PointBatch(batch).ok());
  SweepRequestMsg sweep;
  sweep.collectors = {{CollectorKind::kHarmonic, 0, 0, 0.0}};
  sweep.num_threads = 1;
  ASSERT_TRUE(client.Sweep(sweep).ok());

  auto scraped = client.Stats();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  ASSERT_EQ(scraped.value().snapshots.size(), 1u);
  EXPECT_EQ(scraped.value().snapshots[0].label, "server");
  const MetricsSnapshot& snap = scraped.value().snapshots[0].metrics;
  EXPECT_EQ(CounterOf(snap, "serve.requests.info"), 1u);
  EXPECT_EQ(CounterOf(snap, "serve.requests.point"), 3u);
  EXPECT_EQ(CounterOf(snap, "serve.requests.point_batch"), 1u);
  EXPECT_EQ(CounterOf(snap, "serve.requests.sweep"), 1u);
  // The scrape itself is counted before it snapshots the registry.
  EXPECT_EQ(CounterOf(snap, "serve.requests.stats"), 1u);
  // Point-cache probes: 3 single lookups (miss, miss, hit — node 5 twice)
  // plus 2 batch entries (both misses) share the one cache.
  EXPECT_EQ(CounterOf(snap, "serve.cache.point.hits"), 1u);
  EXPECT_EQ(CounterOf(snap, "serve.cache.point.misses"), 4u);
  EXPECT_GT(CounterOf(snap, "serve.bytes_in"), 0u);
  EXPECT_GT(CounterOf(snap, "serve.bytes_out"), 0u);
  EXPECT_EQ(GaugeOf(snap, "serve.active_sweeps"), 0);
  const auto* latency = HistogramOf(snap, "serve.latency_us.point");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 3u);
  const auto* entries = HistogramOf(snap, "serve.batch.entries");
  ASSERT_NE(entries, nullptr);
  EXPECT_EQ(entries->count, 1u);
  EXPECT_EQ(entries->sum, 2u);
  // The sweep swept every node of the backend (ads-layer count metrics).
  EXPECT_EQ(CounterOf(snap, "ads.sweep.nodes"), 60u);
  EXPECT_GT(CounterOf(snap, "ads.sweep.entries"), 0u);
}

// The determinism guarantee, under concurrency: responses are bitwise
// identical with metrics on, metrics off, and while a scrape loop
// hammers kStatsRequest mid-load; counters still sum exactly.
TEST(ObservabilityTest, ResponsesBitwiseIdenticalUnderConcurrentScrapes) {
  MetricsRegistry::Get().ResetForTest();
  FlatAdsSet set = BuildFlat(60, 5, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});

  std::vector<std::string> frames;
  frames.push_back(EncodeFrame(MessageType::kInfoRequest, ""));
  PointRequestMsg point;
  point.kind = PointKind::kNodeStats;
  point.d = std::numeric_limits<double>::infinity();
  for (uint64_t node : {2u, 11u, 29u}) {
    point.node = node;
    frames.push_back(EncodeFrame(MessageType::kPointRequest,
                                 EncodePointRequest(point)));
  }
  PointBatchRequestMsg batch;
  point.node = 17;
  batch.entries.push_back(point);
  point.node = 23;
  batch.entries.push_back(point);
  frames.push_back(EncodeFrame(MessageType::kPointBatchRequest,
                               EncodePointBatchRequest(batch)));

  // Reference bytes, recorded with metrics disabled.
  SetMetricsEnabled(false);
  std::vector<std::string> expected;
  for (const std::string& frame : frames) {
    bool close = false;
    expected.push_back(core.HandleFrame(frame, &close));
  }
  SetMetricsEnabled(true);

  // Metrics back on, scrapes in flight: bytes must not move.
  constexpr int kLoaders = 2;
  constexpr int kIters = 25;
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::thread scraper([&] {
    std::string scrape =
        EncodeFrame(MessageType::kStatsRequest, EncodeStatsRequest({}));
    while (!done.load()) {
      bool close = false;
      std::string response = core.HandleFrame(scrape, &close);
      auto decoded = DecodeFrame(response);
      if (!decoded.ok() ||
          decoded.value().type != MessageType::kStatsResponse ||
          !DecodeStatsResponse(decoded.value().payload).ok()) {
        mismatches.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> loaders;
  for (int t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&] {
      for (int iter = 0; iter < kIters; ++iter) {
        for (size_t i = 0; i < frames.size(); ++i) {
          bool close = false;
          if (core.HandleFrame(frames[i], &close) != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  done.store(true);
  scraper.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Exact accounting: the disabled warm-up recorded nothing, the
  // concurrent phase recorded everything.
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(CounterOf(snap, "serve.requests.info"),
            uint64_t{kLoaders} * kIters);
  EXPECT_EQ(CounterOf(snap, "serve.requests.point"),
            uint64_t{kLoaders} * kIters * 3);
  EXPECT_EQ(CounterOf(snap, "serve.requests.point_batch"),
            uint64_t{kLoaders} * kIters);
}

// ---------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------

TEST(ObservabilityTest, TracedRequestsRecordSpansUntracedDoNot) {
  MetricsRegistry::Get().ResetForTest();
  TraceBuffer::Get().Clear();
  FlatAdsSet set = BuildFlat(60, 7, 4);
  FlatAdsBackend backend(&set);
  AdsServerCore core(&backend, ServerOptions{});
  LoopbackChannel channel(&core);
  AdsClient client(&channel);

  PointRequestMsg point;
  point.kind = PointKind::kNodeStats;
  point.node = 4;
  point.d = std::numeric_limits<double>::infinity();
  // Untraced: no spans recorded, no trace id on the wire.
  ASSERT_TRUE(client.Point(point).ok());
  EXPECT_TRUE(TraceBuffer::Get().Snapshot().empty());

  // Traced: the client stamps the thread's trace id into its frame
  // headers; the server's instrumented sections each record one span.
  {
    ScopedTraceContext trace(0x1234, 0x5678);
    point.node = 6;
    ASSERT_TRUE(client.Point(point).ok());
  }
  std::vector<TraceSpan> spans = TraceBuffer::Get().Snapshot();
  ASSERT_FALSE(spans.empty());
  bool saw_dispatch = false, saw_encode = false;
  for (const TraceSpan& span : spans) {
    EXPECT_EQ(span.trace_hi, 0x1234u);
    EXPECT_EQ(span.trace_lo, 0x5678u);
    if (span.name == "server.dispatch") saw_dispatch = true;
    if (span.name == "server.encode") saw_encode = true;
  }
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_encode);

  // The spans travel the wire when the scrape asks for them...
  auto with_spans = client.Stats(kStatsFlagTraceSpans);
  ASSERT_TRUE(with_spans.ok());
  ASSERT_EQ(with_spans.value().spans.size(), spans.size());
  EXPECT_EQ(with_spans.value().spans[0].label, "server");
  EXPECT_EQ(with_spans.value().spans[0].name, spans[0].name);
  // ...and stay home otherwise.
  auto without = client.Stats();
  ASSERT_TRUE(without.ok());
  EXPECT_TRUE(without.value().spans.empty());
}

// ---------------------------------------------------------------------
// The acceptance case: a live 2-server TCP fleet behind a router.
// ---------------------------------------------------------------------

TEST(ObservabilityTest, TcpFleetScrapeAggregatesEveryServer) {
  MetricsRegistry::Get().ResetForTest();
  FlatAdsSet full = BuildFlat(60, 9, 4);
  // Split into two range servers, each behind a real TCP socket.
  auto slice = [&full](NodeId begin, NodeId end) {
    FlatAdsSet s;
    s.flavor = full.flavor;
    s.k = full.k;
    s.ranks = full.ranks;
    for (NodeId v = begin; v < end; ++v) {
      auto entries = full.of(v).entries();
      s.AppendNode(std::vector<AdsEntry>(entries.begin(), entries.end()));
    }
    return s;
  };
  FlatAdsSet set_a = slice(0, 30), set_b = slice(30, 60);
  FlatAdsBackend backend_a(&set_a), backend_b(&set_b);
  ServerOptions options_a, options_b;
  options_b.node_begin = 30;
  AdsServerCore core_a(&backend_a, options_a), core_b(&backend_b, options_b);
  TcpServer server_a(&core_a, TcpServerOptions{0, 1});
  TcpServer server_b(&core_b, TcpServerOptions{0, 1});
  ASSERT_TRUE(server_a.Start().ok());
  ASSERT_TRUE(server_b.Start().ok());
  std::string addr_a = "127.0.0.1:" + std::to_string(server_a.port());
  std::string addr_b = "127.0.0.1:" + std::to_string(server_b.port());

  FleetManifest manifest;
  manifest.num_nodes = 60;
  manifest.servers.push_back(FleetEntry{addr_a, 0, 30});
  manifest.servers.push_back(FleetEntry{addr_b, 30, 60});
  auto connected =
      FleetRouter::Connect(manifest, TcpChannelFactory(TcpChannelOptions{}));
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  FleetRouter router = std::move(connected).value();

  // Issue requests that land on both servers.
  PointRequestMsg point;
  point.kind = PointKind::kNodeStats;
  point.d = std::numeric_limits<double>::infinity();
  for (uint64_t node : {5u, 15u, 35u, 45u}) {
    point.node = node;
    ASSERT_TRUE(router.Point(point, Deadline()).ok());
  }
  std::vector<CollectorSpec> spec = {{CollectorKind::kHarmonic, 0, 0, 0.0}};
  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  SweepRequestMsg sweep;
  sweep.collectors = spec;
  sweep.num_threads = 1;
  ASSERT_TRUE(router.ExecuteSweep(sweep, built.value(), Deadline()).ok());

  // Scrape through the router's own protocol front door.
  RouterCore router_core(&router);
  LoopbackChannel channel(&router_core);
  AdsClient client(&channel);
  auto scraped = client.Stats();
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  const std::vector<StatsSnapshotMsg>& snaps = scraped.value().snapshots;
  ASSERT_EQ(snaps.size(), 3u);
  EXPECT_EQ(snaps[0].label, "router");
  EXPECT_EQ(snaps[1].label, addr_a);
  EXPECT_EQ(snaps[2].label, addr_b);
  // The router fanned the sweep out to both servers.
  EXPECT_EQ(CounterOf(snaps[0].metrics, "router.scatter.fanout"), 2u);
  // Exact accounting. Both "servers" share this process's registry, so
  // each server snapshot reports the fleet-wide totals: 4 points routed,
  // 2 sweep partials executed, plus TCP accepts from the router's
  // validation connects and these scrapes.
  for (size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_EQ(CounterOf(snaps[i].metrics, "serve.requests.point"), 4u)
        << snaps[i].label;
    EXPECT_EQ(CounterOf(snaps[i].metrics, "serve.requests.sweep"), 2u)
        << snaps[i].label;
    EXPECT_GT(CounterOf(snaps[i].metrics, "serve.tcp.accepted"), 0u)
        << snaps[i].label;
  }
}

}  // namespace
}  // namespace hipads
