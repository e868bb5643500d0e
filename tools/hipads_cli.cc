// hipads — command-line front end for the library.
//
// Subcommands:
//   generate   write a synthetic graph as a SNAP edge list
//   sketch     build the ADS set of an edge-list graph and store it
//   convert    re-encode a stored ADS set (v1 text <-> v2 binary)
//   shard      split a stored ADS set into a sharded directory
//   query      answer estimation queries from a stored ADS set
//   stats      whole-graph statistics from a stored ADS set
//   serve      expose a stored ADS set over the wire protocol (TCP)
//   route      scatter/gather front end over a fleet of range servers
//   stats-scrape  scrape an endpoint's metrics registry over the wire
//   trace-dump    drain an endpoint's trace buffer as Chrome trace JSON
//
// Distributed serving: `serve` answers point and fused-sweep requests over
// the node range its backend holds (`--node-begin B` maps local node 0 to
// global node B — point it at one shard file of a sharded set); `route`
// reads a fleet manifest (host -> node range), fans every sweep out to all
// range servers and merges the partials in node order, so routed results
// are bitwise identical to a single-process sweep. `query`/`stats`
// `--remote host:port` target either a server or a router — the protocol
// makes them indistinguishable. Any failure (dead server, malformed frame,
// node out of range) exits nonzero before printing any result.
//
// Robustness flags: every remote-speaking command (`query`/`stats`
// `--remote`, `route`) accepts `--timeout-ms N` (overall request deadline,
// propagated hop by hop on the wire; 0 = none; a budget above 2^40 ms
// counts as 2^40 ms), `--retries N` (transport-failure retry budget with
// jittered backoff; attempts = N + 1), `--hedge 1` (race a second fresh
// connection for point requests after 50 ms of silence) and
// `--coalesce-us N` (batch concurrent same-server point requests into
// batch frames, flushed every N microseconds, at most 1000000; mutually
// exclusive with hedging). `serve` and `route` accept `--timeout-ms N` as
// the per-frame read stall bound on their listening sockets. Failures
// fail closed with an exit status and an error naming the failing server.
//
// Storage: `sketch` writes hipads-ads-v2 unless `--format text` asks for an
// archival v1 copy. `shard`, `query`, `stats` and `serve` open v2 only — a
// file, or a shard directory / manifest written by `shard` — through the
// unified AdsBackend storage layer; `convert` is the one command that
// reads v1 text, and migrates it to v2 once. `--backend=copy` (default)
// loads into a heap arena; `--backend=mmap` maps v2 files zero-copy.
// Sharded sets honor `--resident N` (max shard arenas in memory) and
// prefetch upcoming shards during whole-graph sweeps (`--prefetch D` sets
// the lookahead depth, 0 disables). A manifest referencing a missing or
// truncated shard file fails at open with a nonzero exit, before any
// partial output.
//
// Point queries: without `--remote`, `query --node` answers through the same
// code as `--remote` — an in-process range server behind a one-server
// fleet router, over a loopback channel — so local and remote answers are
// the same bytes and fail the same way.
//
// `--threads N` (0 = hardware count) is clamped to the hardware count, as
// a server clamps a sweep request's thread count; no output depends on it.
//
// Flags fail closed: an integer flag that is not plain decimal digits, or
// exceeds what its option holds (`--port` 65535, `--shards` 2^32 - 1, ...),
// and a number flag with trailing bytes exit 2 with a message naming the
// flag and nothing on stdout; `serve` and `route` read every flag before
// they open their input or bind a socket.
//
// Whole-graph statistics run on the fused sweep engine (ads/sweep.h): all
// statistics a command needs are collected in ONE pass over the backend —
// `stats` derives the neighbourhood function, effective diameter and mean
// distance from a single distance-distribution collector, and `stats
// --top N` fuses the top-k centrality ranking into that same pass, so a
// sharded set reads every shard file exactly once however many statistics
// are requested.
//
// HIP-resident storage: `sketch --hip 1` and `convert --hip 1` precompute
// the HIP estimator weights and store them in the v2 binary's optional HIP
// section (+16 bytes/entry); `convert --strip-hip 1` removes the section.
// Serving a HIP-resident file turns every point estimator into a pointer
// wrap over the mapped weights — `stats` and `serve` report which mode is
// active as `hip=resident|scan` (`stats` on stderr, keeping its stdout
// bitwise interchangeable with `--remote` runs). Answers are bitwise
// identical either way.
//
// Observability: every process keeps a registry of named counters, gauges
// and latency histograms (util/metrics.h). `stats-scrape --remote ADDR`
// asks the endpoint for a wire snapshot (kStatsRequest) — against a
// router it returns the router's own metrics plus one snapshot per range
// server, labeled by address. `--watch N` re-scrapes every N seconds.
// `serve`/`route --metrics-interval-s N` dump the local registry to
// stderr every N seconds. `query ... --trace 1` stamps its remote
// frame headers with a fresh 16-byte trace id; every hop appends
// timed spans to an in-process ring that `trace-dump --remote ADDR`
// drains and renders as Chrome trace-event JSON (load in
// chrome://tracing or https://ui.perfetto.dev). Metrics and traces never
// change response bytes — answers are bitwise identical with metrics on,
// off or mid-scrape.
//
// Examples:
//   hipads_cli generate --model ba --nodes 100000 --out graph.txt
//   hipads_cli sketch --graph graph.txt --k 32 --out s.ads2
//   hipads_cli sketch --graph g.txt --hip 1 --out sh.ads2
//   hipads_cli convert --in s.ads2 --format text --out s.ads
//   hipads_cli convert --in old.ads --out old.ads2
//   hipads_cli convert --in s.ads2 --hip 1 --out s-hip.ads2
//   hipads_cli convert --in s-hip.ads2 --strip-hip 1 --out s.ads2
//   hipads_cli shard --in s.ads2 --shards 8 --out-dir shards/
//   hipads_cli query --sketches s.ads2 --backend=mmap --node 17 --distance 3
//   hipads_cli query --sketches s.ads2 --node 17 --lookup 4,8,15
//   hipads_cli query --sketches s.ads2 --node 17 --jaccard 23 --distance 3
//   hipads_cli query --sketches shards/ --top 10 --centrality harmonic
//   hipads_cli stats --sketches shards/ --backend=mmap --resident 2
//   hipads_cli stats --sketches shards/ --top 10 --prefetch 2
//   hipads_cli stats --sketches s.ads2 --distance-quantile 0.5 --qg exp
//   hipads_cli serve --sketches shards/shard-00000.ads2 --port 7470
//   hipads_cli route --fleet fleet.txt --port 7480
//   hipads_cli stats --remote 127.0.0.1:7480 --top 10
//   hipads_cli query --remote 127.0.0.1:7480 --node 17 --jaccard 23
//   hipads_cli stats-scrape --remote 127.0.0.1:7480 --watch 5
//   hipads_cli query --remote 127.0.0.1:7480 --node 17 --distance 3 --trace 1
//   hipads_cli trace-dump --remote 127.0.0.1:7480 --out trace.json

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include <filesystem>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "ads/serialize.h"
#include "ads/shard.h"
#include "ads/sweep.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/table.h"

#include <unistd.h>

namespace hipads {
namespace {

// Minimal argument parsing: `--flag value` pairs or `--flag=value`.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      const char* arg = argv[i];
      const char* eq = std::strchr(arg, '=');
      if (eq != nullptr) {
        values_[std::string(arg + 2, eq)] = eq + 1;
        i += 1;
      } else if (i + 1 < argc) {
        values_[argv[i] + 2] = argv[i + 1];
        i += 2;
      } else {
        std::fprintf(stderr, "missing value for flag '%s'\n", argv[i]);
        std::exit(2);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  // The integer value of --key in [0, max], or `def` when the flag is
  // absent. Fails closed: anything but plain decimal digits (a sign,
  // spaces, trailing bytes) or a value above `max` exits 2 naming the
  // flag, so a bad value never wraps, truncates or reads as 0. `max`
  // defaults to the largest T, the type the caller stores it in.
  template <typename T = uint64_t>
  T GetInt(const std::string& key, std::type_identity_t<T> def,
           std::type_identity_t<T> max = std::numeric_limits<T>::max()) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const uint64_t value = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
        errno == ERANGE || value > max) {
      std::fprintf(stderr, "--%s must be an integer in [0, %llu], got '%s'\n",
                   key.c_str(), static_cast<unsigned long long>(max), text);
      std::exit(2);
    }
    return static_cast<T>(value);
  }
  // The value of --key in strtod's syntax (so `inf` is accepted), or `def`
  // when the flag is absent; trailing bytes exit 2 naming the flag.
  double GetDouble(const std::string& key, double def) const {
    auto it = values_.find(key);
    if (it == values_.end()) return def;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0') {
      std::fprintf(stderr, "--%s must be a number, got '%s'\n", key.c_str(),
                   text);
      std::exit(2);
    }
    return value;
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Shared robustness knobs of every remote-speaking command:
//   --timeout-ms N    overall request deadline (and connect timeout); 0 = none
//   --retries N       transport-failure retry budget (attempts = N + 1)
//   --hedge 1         hedge point requests over a second fresh connection
//   --coalesce-us N   coalesce concurrent same-server point requests into
//                     batch frames, flushing every N microseconds (0 = off,
//                     at most kMaxCoalesceWindowUs; the
//                     HIPADS_COALESCE_WINDOW_US env var also sets it)
struct RemoteOptions {
  uint64_t timeout_ms = 0;
  uint32_t retries = 1;
  bool hedge = false;
  uint64_t coalesce_us = 0;
};

RemoteOptions GetRemoteOptions(const Args& args) {
  RemoteOptions remote;
  remote.timeout_ms = args.GetInt("timeout-ms", 0);
  remote.retries = args.GetInt<uint32_t>("retries", 1);
  remote.hedge = args.GetInt("hedge", 0, 1) != 0;
  remote.coalesce_us = args.GetInt("coalesce-us", 0, kMaxCoalesceWindowUs);
  return remote;
}

Deadline RemoteDeadline(const RemoteOptions& remote) {
  return remote.timeout_ms > 0 ? Deadline::AfterMs(remote.timeout_ms)
                               : Deadline();
}

TcpChannelOptions RemoteChannelOptions(const RemoteOptions& remote) {
  TcpChannelOptions options;
  if (remote.timeout_ms > 0) options.connect_timeout_ms = remote.timeout_ms;
  return options;
}

// With `--trace 1`, installs a fresh nonzero trace id on this thread (so
// every remote call below carries it in its frame header) and prints
// the id on stderr for correlation with a later `trace-dump`. Id
// uniqueness only needs to hold across concurrent CLI runs: wall-clock
// entropy mixed with the pid is plenty (tools may read clocks — the
// HL001 determinism ban covers the library trees, not this binary).
void MaybeStartTrace(const Args& args,
                     std::optional<ScopedTraceContext>* scope) {
  if (args.GetInt("trace", 0, 1) == 0) return;
  uint64_t t = static_cast<uint64_t>(
      std::chrono::system_clock::now().time_since_epoch().count());
  uint64_t hi = t * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  uint64_t lo = (static_cast<uint64_t>(getpid()) << 32) ^ t;
  if ((hi | lo) == 0) lo = 1;
  scope->emplace(hi, lo);
  std::fprintf(stderr, "trace id %016llx%016llx\n",
               static_cast<unsigned long long>(hi),
               static_cast<unsigned long long>(lo));
}

RouterOptions RemoteRouterOptions(const RemoteOptions& remote) {
  RouterOptions options;
  options.timeout_ms = remote.timeout_ms;
  options.retries = remote.retries;
  options.hedge = remote.hedge;
  options.coalesce_window_us = remote.coalesce_us;
  return options;
}

// Wraps the one endpoint `info` describes, reached at `address` through
// `factory`, in a single-server fleet: every command that talks to it gets
// the router's whole robustness stack — deadlines on each hop,
// reconnect-with-backoff retries, optional hedging — and failure messages
// that name the failing server.
StatusOr<FleetRouter> SingleServerFleet(const std::string& address,
                                        const ServerInfoMsg& info,
                                        const ChannelFactory& factory,
                                        const RouterOptions& options) {
  FleetManifest manifest;
  manifest.num_nodes = info.node_end;
  FleetEntry entry;
  entry.address = address;
  entry.begin = static_cast<NodeId>(info.node_begin);
  entry.end = static_cast<NodeId>(info.node_end);
  manifest.servers.push_back(std::move(entry));
  return FleetRouter::Connect(std::move(manifest), factory, options);
}

// Opens `--remote ADDRESS` as a single-server fleet.
StatusOr<FleetRouter> ConnectSingleServerFleet(const std::string& address,
                                               const RemoteOptions& remote) {
  TcpChannelOptions channel_options = RemoteChannelOptions(remote);
  auto channel = TcpChannel::ConnectAddress(address, channel_options);
  if (!channel.ok()) {
    return Status::IOError("remote " + address + ": " +
                           channel.status().ToString());
  }
  AdsClient client(channel.value().get(), RemoteDeadline(remote));
  auto info = client.Info();
  if (!info.ok()) {
    return Status::IOError("remote " + address + ": " +
                           info.status().ToString());
  }
  return SingleServerFleet(address, info.value(),
                           TcpChannelFactory(channel_options),
                           RemoteRouterOptions(remote));
}

bool ParseFormatFlag(const std::string& name, AdsFileFormat* out) {
  if (name == "text" || name == "v1") {
    *out = AdsFileFormat::kTextV1;
  } else if (name == "binary" || name == "v2") {
    *out = AdsFileFormat::kBinaryV2;
  } else {
    std::fprintf(stderr, "unknown --format %s (text|binary)\n", name.c_str());
    return false;
  }
  return true;
}

int CmdGenerate(const Args& args) {
  std::string model = args.Get("model", "ba");
  // 2^31 keeps the rmat scale and the grid side search from overflowing.
  const NodeId n = args.GetInt<NodeId>("nodes", 10000, NodeId{1} << 31);
  uint64_t seed = args.GetInt("seed", 1);
  std::string out = args.Get("out", "graph.txt");
  Graph g;
  if (model == "ba") {
    // The seed clique needs attach + 1 <= n nodes.
    const uint32_t attach = args.GetInt<uint32_t>("attach", 3);
    if (attach == 0 || attach >= n) {
      std::fprintf(stderr, "--model ba needs 1 <= --attach < --nodes\n");
      return 2;
    }
    g = BarabasiAlbert(n, attach, seed);
  } else if (model == "er") {
    g = ErdosRenyi(n, args.GetInt("edges", 4ULL * n), /*undirected=*/true,
                   seed);
  } else if (model == "rmat") {
    uint32_t scale = 1;
    while ((1u << scale) < n) ++scale;
    g = Rmat(scale, args.GetInt("edges", 8ULL), seed);
  } else if (model == "grid") {
    uint32_t side = 1;
    while (side * side < n) ++side;
    g = Grid2D(side, side);
  } else {
    std::fprintf(stderr, "unknown --model %s (ba|er|rmat|grid)\n",
                 model.c_str());
    return 2;
  }
  Status s = WriteEdgeListFile(g, out);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s: %u nodes, %llu arcs (%s)\n", out.c_str(),
              g.num_nodes(), static_cast<unsigned long long>(g.num_arcs()),
              model.c_str());
  return 0;
}

int CmdSketch(const Args& args) {
  std::string graph_path = args.Get("graph", "");
  if (graph_path.empty()) {
    std::fprintf(stderr, "sketch requires --graph FILE\n");
    return 2;
  }
  // Every builder needs k >= 1.
  const uint32_t k = args.GetInt<uint32_t>("k", 16);
  if (k == 0) {
    std::fprintf(stderr, "--k must be between 1 and %u\n",
                 std::numeric_limits<uint32_t>::max());
    return 2;
  }
  bool directed = args.Has("directed");
  auto graph = ReadEdgeListFile(graph_path, /*undirected=*/!directed);
  if (!graph.ok()) return Fail(graph.status());
  const Graph& g = graph.value();

  uint64_t seed = args.GetInt("seed", 42);
  std::string flavor_name = args.Get("flavor", "bottom-k");
  SketchFlavor flavor = SketchFlavor::kBottomK;
  if (flavor_name == "k-mins") flavor = SketchFlavor::kKMins;
  else if (flavor_name == "k-partition") flavor = SketchFlavor::kKPartition;
  else if (flavor_name != "bottom-k") {
    std::fprintf(stderr, "unknown --flavor %s\n", flavor_name.c_str());
    return 2;
  }
  double base = args.GetDouble("base", 0.0);
  RankAssignment ranks = base > 1.0 ? RankAssignment::BaseB(seed, base)
                                    : RankAssignment::Uniform(seed);

  // --threads N: builder threads (0 = hardware count). Output is
  // bit-identical for every thread count.
  const uint32_t threads =
      ClampThreads(args.GetInt("threads", HardwareThreads()));
  const uint32_t shards = args.GetInt<uint32_t>("shards", 0);
  std::string format_name = args.Get("format", "binary");
  AdsFileFormat format;
  if (!ParseFormatFlag(format_name, &format)) return 2;
  // A v1 text copy is not a serving input, so it never takes the default
  // --sketches name.
  std::string out = args.Get(
      "out", format == AdsFileFormat::kBinaryV2 ? "sketches.ads2"
                                                : "sketches.ads");
  if (shards > 0 && args.Has("format") &&
      format != AdsFileFormat::kBinaryV2) {
    std::fprintf(stderr,
                 "--shards writes hipads-ads-v2 binary shards; "
                 "--format %s conflicts\n",
                 format_name.c_str());
    return 2;
  }
  // --hip 1: precompute the HIP estimator weights once, at build time, and
  // store them in the v2 binary's optional HIP section so every serving
  // engine materializes estimators as a pointer wrap instead of a scan.
  const bool add_hip = args.GetInt("hip", 0, 1) != 0;
  if (add_hip && shards == 0 && format != AdsFileFormat::kBinaryV2) {
    std::fprintf(stderr,
                 "--hip requires the v2 binary format (the text format has "
                 "no HIP section)\n");
    return 2;
  }
  // Flatten the builder output once and free it; every writer (and the
  // HIP precompute, whose weight arrays align with the arena) takes the
  // flat arena.
  AdsBuildStats stats;
  FlatAdsSet flat = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstraParallel(
      g, k, flavor, ranks, threads, &stats));
  if (add_hip) PrecomputeHipWeights(&flat, threads);
  Status s = shards > 0 ? WriteShardedAdsSet(flat, out, shards)
                        : WriteAdsSetFile(flat, out, format);
  if (!s.ok()) return Fail(s);
  std::printf(
      "sketched %u nodes (k=%u, %s, %u threads): %llu entries (%.1f/node), "
      "%llu relaxations -> %s%s\n",
      g.num_nodes(), k, flavor_name.c_str(), threads,
      static_cast<unsigned long long>(flat.TotalEntries()),
      static_cast<double>(flat.TotalEntries()) / g.num_nodes(),
      static_cast<unsigned long long>(stats.relaxations), out.c_str(),
      shards > 0 ? " (sharded)" : "");
  return 0;
}

// `convert` is the one reader of both formats: the v2 magic tells them
// apart. A v2 file goes to ReadFlatAdsSetFile, which reads it straight
// into the arena; only v1 text is read into memory to be parsed.
StatusOr<FlatAdsSet> ReadEitherFormat(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + path);
  char magic[8];  // the v2 magic's length
  f.read(magic, sizeof(magic));
  if (IsBinaryAdsData(std::string_view(magic, f.gcount()))) {
    return ReadFlatAdsSetFile(path);
  }
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot read " + path);
  std::string text(size, '\0');
  f.clear();
  f.seekg(0);
  if (!f.read(text.data(), text.size())) {
    return Status::IOError("cannot read " + path);
  }
  return ParseFlatAdsSet(text);
}

int CmdConvert(const Args& args) {
  std::string in = args.Get("in", "");
  std::string out = args.Get("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "convert requires --in FILE --out FILE\n");
    return 2;
  }
  AdsFileFormat format;
  if (!ParseFormatFlag(args.Get("format", "binary"), &format)) return 2;
  const bool add_hip = args.GetInt("hip", 0, 1) != 0;
  const bool strip_hip = args.GetInt("strip-hip", 0, 1) != 0;
  if (add_hip && strip_hip) {
    std::fprintf(stderr, "--hip and --strip-hip conflict\n");
    return 2;
  }
  if (add_hip && format != AdsFileFormat::kBinaryV2) {
    std::fprintf(stderr,
                 "--hip requires the v2 binary format (the text format has "
                 "no HIP section)\n");
    return 2;
  }
  auto loaded = ReadEitherFormat(in);
  if (!loaded.ok()) return Fail(loaded.status());
  FlatAdsSet set = std::move(loaded).value();
  if (strip_hip) {
    set.hip_tau.clear();
    set.hip_weight.clear();
  } else if (add_hip && !set.has_hip()) {
    PrecomputeHipWeights(&set, ClampThreads(args.GetInt("threads", 0)));
  }
  Status s = WriteAdsSetFile(set, out, format);
  if (!s.ok()) return Fail(s);
  std::printf("converted %s -> %s (%s, %zu nodes, %llu entries, hip=%s)\n",
              in.c_str(), out.c_str(),
              format == AdsFileFormat::kBinaryV2 ? "hipads-ads-v2 binary"
                                                 : "hipads-ads-v1 text",
              set.num_nodes(),
              static_cast<unsigned long long>(set.TotalEntries()),
              set.has_hip() && format == AdsFileFormat::kBinaryV2
                  ? "resident"
                  : "scan");
  return 0;
}

int CmdShard(const Args& args) {
  std::string in = args.Get("in", "");
  std::string dir = args.Get("out-dir", "");
  if (in.empty() || dir.empty()) {
    std::fprintf(stderr,
                 "shard requires --in FILE --out-dir DIR [--shards N]\n");
    return 2;
  }
  const uint32_t shards = args.GetInt<uint32_t>("shards", 4);
  auto loaded = ReadFlatAdsSetFile(in);
  if (!loaded.ok()) return Fail(loaded.status());
  // The split can differ from --shards (at most one shard per node, at
  // least one shard), so report the count written.
  std::vector<NodeId> splits = BalancedShardSplits(loaded.value(), shards);
  Status s = WriteShardedAdsSet(loaded.value(), dir, splits);
  if (!s.ok()) return Fail(s);
  std::printf("sharded %s -> %s: %zu shards, %zu nodes, %llu entries\n",
              in.c_str(), dir.c_str(), splits.size(),
              loaded.value().num_nodes(),
              static_cast<unsigned long long>(loaded.value().TotalEntries()));
  return 0;
}

void PrintTopTable(const TopKCollector& top, const std::string& kind) {
  Table t({"rank", "node", kind});
  std::vector<NodeId> nodes = top.TopNodes();
  for (size_t i = 0; i < nodes.size(); ++i) {
    t.NewRow()
        .Add(static_cast<uint64_t>(i + 1))
        .Add(static_cast<uint64_t>(nodes[i]))
        .Add(top.values()[nodes[i]], 6);
  }
  t.PrintText(std::cout);
}

// One open path for every input kind (v2 file or shard directory) and both
// storage modes. Sharded opens validate the manifest's
// file list up front, so a missing/truncated shard fails here — with a
// clear message and nonzero exit — never as a partial sweep.
StatusOr<std::unique_ptr<AdsBackend>> OpenServingBackend(const Args& args) {
  std::string backend = args.Get("backend", "copy");
  AdsBackendOptions options;
  if (backend == "mmap") {
    options.mode = BackendMode::kMmap;
  } else if (backend == "copy") {
    options.mode = BackendMode::kCopy;
  } else {
    return Status::InvalidArgument("unknown --backend " + backend +
                                   " (copy|mmap)");
  }
  options.max_resident = args.GetInt<uint32_t>("resident", 1);
  // --prefetch D: lookahead depth of the sharded prefetch pipeline
  // (0 disables the background thread entirely).
  const uint32_t prefetch = args.GetInt<uint32_t>("prefetch", 1);
  options.prefetch = prefetch != 0;
  options.prefetch_depth = prefetch == 0 ? 1 : prefetch;
  return OpenAdsBackend(args.Get("sketches", "sketches.ads2"), options);
}

// Parses a comma-separated node list ("4,8,15"); nullopt on anything that
// is not digits and commas, on a trailing comma, and on ids that would
// wrap the NodeId type.
std::optional<std::vector<NodeId>> ParseNodeList(const std::string& list) {
  std::vector<NodeId> nodes;
  const char* p = list.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    uint64_t value = std::strtoull(p, &end, 10);
    if (end == p || value > std::numeric_limits<NodeId>::max()) {
      return std::nullopt;
    }
    nodes.push_back(static_cast<NodeId>(value));
    if (*end == ',') {
      if (end[1] == '\0') return std::nullopt;
      ++end;
    } else if (*end != '\0') {
      return std::nullopt;
    }
    p = end;
  }
  return nodes;
}

// What a fused sweep produced, wherever it ran: typed collector pointers
// (spec order) plus the served set's shape for the header lines.
struct SweepOutcome {
  std::vector<SweepCollector*> collectors;
  size_t num_nodes = 0;
  uint32_t k = 0;
  uint64_t total_entries = 0;
};

// Shared engine of `query --top` and `stats`: builds the collectors the
// spec names, then runs ONE fused sweep — locally over the opened backend,
// or remotely by shipping the very same spec to a server/router
// (`--remote host:port`). Local and remote paths run identical collector
// objects, so their outputs are bitwise interchangeable. Returns a
// nonzero exit code on any failure, before anything is printed.
int ExecuteSpec(const Args& args, const std::vector<CollectorSpec>& spec,
                SweepPlan* plan, std::unique_ptr<AdsBackend>* backend,
                SweepOutcome* out) {
  auto built = BuildPlanFromSpec(spec, plan);
  if (!built.ok()) return Fail(built.status());
  out->collectors = built.value();
  const uint32_t threads = ClampThreads(args.GetInt("threads", 0));
  if (args.Has("remote")) {
    RemoteOptions remote = GetRemoteOptions(args);
    std::optional<ScopedTraceContext> trace_scope;
    MaybeStartTrace(args, &trace_scope);
    auto connected =
        ConnectSingleServerFleet(args.Get("remote", ""), remote);
    if (!connected.ok()) return Fail(connected.status());
    FleetRouter router = std::move(connected).value();
    if (router.node_begin() != 0) {
      return Fail(Status::InvalidArgument(
          "endpoint serves nodes [" + std::to_string(router.node_begin()) +
          ", " + std::to_string(router.num_nodes()) +
          "), not the full set — run sweeps through a fleet router"));
    }
    SweepRequestMsg request;
    request.collectors = spec;
    request.num_threads = threads;
    Status s = router.ExecuteSweep(request, out->collectors,
                                   RemoteDeadline(remote));
    if (!s.ok()) return Fail(s);
    out->num_nodes = router.num_nodes();
    out->k = router.info().k;
    out->total_entries = router.total_entries();
    return 0;
  }
  auto opened = OpenServingBackend(args);
  if (!opened.ok()) return Fail(opened.status());
  *backend = std::move(opened).value();
  Status swept = RunSweep(**backend, *plan, threads);
  if (!swept.ok()) return Fail(swept);
  out->num_nodes = (*backend)->num_nodes();
  out->k = (*backend)->k();
  out->total_entries = (*backend)->TotalEntries();
  return 0;
}

// `query --node`: one point request through a single-server fleet router
// — over TCP with `--remote` (so --timeout-ms, --retries and --hedge all
// apply), otherwise over a loopback channel into an in-process server —
// printed the same way on both paths.
int PointQuery(const Args& args, uint64_t node, FleetRouter& router,
               const Deadline& deadline) {
  auto point = [&](const PointRequestMsg& request) {
    return router.Point(request, deadline);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (args.Has("lookup")) {
    auto targets = ParseNodeList(args.Get("lookup", ""));
    if (!targets.has_value()) {
      std::fprintf(stderr, "bad --lookup list '%s' (want n1,n2,...)\n",
                   args.Get("lookup", "").c_str());
      return 2;
    }
    PointRequestMsg request;
    request.kind = PointKind::kLookup;
    request.node = node;
    request.targets.assign(targets->begin(), targets->end());
    auto response = point(request);
    if (!response.ok()) return Fail(response.status());
    if (response.value().values.size() != targets->size()) {
      return Fail(Status::Corruption("lookup response size mismatch"));
    }
    for (size_t i = 0; i < targets->size(); ++i) {
      double d = response.value().values[i];
      if (d < 0.0) {
        std::printf("node %llu: %u not sketched\n",
                    static_cast<unsigned long long>(node),
                    targets.value()[i]);
      } else {
        std::printf("node %llu: d(%u) = %g\n",
                    static_cast<unsigned long long>(node),
                    targets.value()[i], d);
      }
    }
    return 0;
  }

  if (args.Has("jaccard")) {
    PointRequestMsg request;
    request.kind = PointKind::kJaccard;
    request.node = node;
    request.other = args.GetInt("jaccard", 0);
    request.d = args.GetDouble("distance", kInf);
    auto response = point(request);
    if (!response.ok()) return Fail(response.status());
    if (response.value().values.size() != 2) {
      return Fail(Status::Corruption("jaccard response size mismatch"));
    }
    double jaccard = response.value().values[0];
    double uni = response.value().values[1];
    std::printf("J(%llu, %llu; d=%g) ~ %.4f, |intersection| ~ %.1f\n",
                static_cast<unsigned long long>(node),
                static_cast<unsigned long long>(request.other), request.d,
                jaccard, jaccard * uni);
    return 0;
  }

  PointRequestMsg request;
  request.kind = PointKind::kNodeStats;
  request.node = node;
  request.d = args.Has("distance") ? args.GetDouble("distance", 1.0) : kInf;
  auto response = point(request);
  if (!response.ok()) return Fail(response.status());
  const std::vector<double>& values = response.value().values;
  // The server dispatches on whether d is infinite (the triple vs the
  // single cardinality), so mirror that here — not the flag — and print
  // `--distance inf` as N_inf, the reachable count.
  if (std::isinf(request.d)) {
    if (values.size() != 3) {
      return Fail(Status::Corruption("node-stats response size mismatch"));
    }
    if (args.Has("distance")) {
      std::printf("|N_%g(%llu)| ~ %.1f\n", request.d,
                  static_cast<unsigned long long>(node), values[0]);
    } else {
      std::printf("node %llu: reachable ~ %.1f, harmonic ~ %.2f, "
                  "distance sum ~ %.1f\n",
                  static_cast<unsigned long long>(node), values[0], values[1],
                  values[2]);
    }
  } else {
    if (values.size() != 1) {
      return Fail(Status::Corruption("node-stats response size mismatch"));
    }
    std::printf("|N_%g(%llu)| ~ %.1f\n", request.d,
                static_cast<unsigned long long>(node), values[0]);
  }
  return 0;
}

int CmdQuery(const Args& args) {
  if (args.Has("top")) {
    std::string kind = args.Get("centrality", "harmonic");
    ScoreKind score;
    if (!ParseScoreKind(kind, &score)) {
      return Fail(Status::InvalidArgument("unknown --centrality " + kind));
    }
    std::vector<CollectorSpec> spec{
        {CollectorKind::kTopK, static_cast<uint32_t>(score),
         args.GetInt<uint32_t>("top", 10), 0.0}};
    SweepPlan plan;
    std::unique_ptr<AdsBackend> backend;
    SweepOutcome out;
    int rc = ExecuteSpec(args, spec, &plan, &backend, &out);
    if (rc != 0) return rc;
    PrintTopTable(*static_cast<TopKCollector*>(out.collectors[0]), kind);
    return 0;
  }

  const uint64_t node = args.GetInt("node", 0);
  if (args.Has("remote")) {
    RemoteOptions remote = GetRemoteOptions(args);
    std::optional<ScopedTraceContext> trace_scope;
    MaybeStartTrace(args, &trace_scope);
    auto connected = ConnectSingleServerFleet(args.Get("remote", ""), remote);
    if (!connected.ok()) return Fail(connected.status());
    return PointQuery(args, node, connected.value(), RemoteDeadline(remote));
  }
  auto opened = OpenServingBackend(args);
  if (!opened.ok()) return Fail(opened.status());
  AdsServerCore core(opened.value().get(), ServerOptions{});
  const ChannelFactory loopback =
      [&core](const std::string&) -> StatusOr<std::unique_ptr<Channel>> {
    return std::unique_ptr<Channel>(std::make_unique<LoopbackChannel>(&core));
  };
  auto local = SingleServerFleet(args.Get("sketches", "sketches.ads2"),
                                 core.Info(), loopback, RouterOptions{});
  if (!local.ok()) return Fail(local.status());
  return PointQuery(args, node, local.value(), Deadline());
}

double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Everything `stats` prints comes from ONE fused sweep (ads/sweep.h): the
// distance-histogram collector yields the neighbourhood function, the
// effective diameter and the mean distance; --top N, --distance-quantile Q
// and --qg KIND each add one collector to the same plan. However many
// statistics are requested, a sharded set reads every shard file exactly
// once — and with --remote the identical spec runs on a server or fleet
// router, with bitwise-identical results.
int CmdStats(const Args& args) {
  double quantile = args.GetDouble("quantile", 0.9);
  std::string kind = args.Get("centrality", "harmonic");

  std::vector<CollectorSpec> spec{
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0}};
  size_t top_at = 0;
  if (args.Has("top")) {
    ScoreKind score;
    if (!ParseScoreKind(kind, &score)) {
      return Fail(Status::InvalidArgument("unknown --centrality " + kind));
    }
    top_at = spec.size();
    spec.push_back({CollectorKind::kTopK, static_cast<uint32_t>(score),
                    args.GetInt<uint32_t>("top", 10), 0.0});
  }
  size_t quant_at = 0;
  double quant_q = args.GetDouble("distance-quantile", 0.5);
  if (args.Has("distance-quantile")) {
    quant_at = spec.size();
    spec.push_back({CollectorKind::kDistanceQuantile, 0, 0, quant_q});
  }
  size_t qg_at = 0;
  std::string qg_name = args.Get("qg", "");
  double qg_param = args.GetDouble("qg-param", 0.5);
  if (args.Has("qg")) {
    QgKind g;
    if (!ParseQgKind(qg_name, &g)) {
      return Fail(Status::InvalidArgument("unknown --qg " + qg_name +
                                          " (exp|invsq)"));
    }
    qg_at = spec.size();
    spec.push_back(
        {CollectorKind::kQg, static_cast<uint32_t>(g), 0, qg_param});
  }

  SweepPlan plan;
  std::unique_ptr<AdsBackend> backend;
  SweepOutcome out;
  int rc = ExecuteSpec(args, spec, &plan, &backend, &out);
  if (rc != 0) return rc;
  auto* hist = static_cast<DistanceHistogramCollector*>(out.collectors[0]);

  // Build the cumulative neighbourhood function once; the effective
  // diameter is a quantile scan of it and the table prints its head.
  std::map<double, double> nf = hist->NeighborhoodFunction();
  double total = nf.empty() ? 0.0 : nf.rbegin()->second;
  double eff_diameter = nf.empty() ? 0.0 : nf.rbegin()->first;
  for (const auto& [d, pairs] : nf) {
    if (pairs >= quantile * total) {
      eff_diameter = d;
      break;
    }
  }
  // hip=resident means every point estimator materializes from storage-
  // resident weights (a pointer wrap); scan recomputes them per node. The
  // answers are bitwise identical either way — this is about speed, so it
  // goes to stderr as engine diagnostics: stdout stays bitwise
  // interchangeable between local and --remote runs (a tested guarantee),
  // and a remote sweep has no local backend to probe anyway.
  if (backend != nullptr) {
    std::fprintf(stderr, "hip=%s\n",
                 backend->HipResident() ? "resident" : "scan");
  }
  std::printf("nodes: %zu, k=%u, entries=%llu\n", out.num_nodes, out.k,
              static_cast<unsigned long long>(out.total_entries));
  std::printf("effective diameter (%g): %.1f\n", quantile, eff_diameter);
  std::printf("mean distance: %.2f\n", hist->MeanDistance());
  if (top_at != 0) {
    PrintTopTable(*static_cast<TopKCollector*>(out.collectors[top_at]),
                  kind);
  }
  if (quant_at != 0) {
    auto* quant =
        static_cast<DistanceQuantileCollector*>(out.collectors[quant_at]);
    std::printf("per-node distance quantile (q=%g): mean %.2f\n", quant_q,
                MeanOf(quant->values()));
  }
  if (qg_at != 0) {
    auto* qg = static_cast<QgCollector*>(out.collectors[qg_at]);
    std::printf("Q_g (%s, param %g): mean %.4f\n", qg_name.c_str(), qg_param,
                MeanOf(qg->values()));
  }
  Table t({"d", "pairs within d"});
  for (const auto& [d, pairs] : nf) {
    t.NewRow().Add(d, 4).Add(pairs, 6);
    if (pairs >= 0.99 * total) break;
  }
  t.PrintText(std::cout);
  return 0;
}

// Scrapes the endpoint once and prints every snapshot it returned — one
// "== label ==" block per process (a server answers with one block named
// "server"; a router prepends its own "router" block and labels each
// range server's block with its address).
Status ScrapeOnce(Channel* channel, const Deadline& deadline) {
  AdsClient client(channel, deadline);
  auto response = client.Stats();
  if (!response.ok()) return response.status();
  for (const StatsSnapshotMsg& snap : response.value().snapshots) {
    std::printf("== %s ==\n%s", snap.label.c_str(),
                snap.metrics.ToText().c_str());
  }
  std::fflush(stdout);
  return Status::Ok();
}

// `stats-scrape --remote ADDR [--watch N] [--timeout-ms T]`: wire-scrape
// an endpoint's metrics registry; --watch re-scrapes every N seconds
// until interrupted.
int CmdStatsScrape(const Args& args) {
  RemoteOptions remote = GetRemoteOptions(args);
  std::string address = args.Get("remote", "");
  auto channel =
      TcpChannel::ConnectAddress(address, RemoteChannelOptions(remote));
  if (!channel.ok()) return Fail(channel.status());
  const unsigned watch_s = args.GetInt<unsigned>("watch", 0);
  for (;;) {
    Status s = ScrapeOnce(channel.value().get(), RemoteDeadline(remote));
    if (!s.ok()) return Fail(s);
    if (watch_s == 0) return 0;
    std::printf("\n");
    sleep(watch_s);
  }
}

// Appends `s` as a JSON string literal. Span labels and names arrive off
// the wire as raw bytes, so every control byte is escaped, not only the
// quote and the backslash.
void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c));
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

// `trace-dump --remote ADDR [--out FILE]`: drains the endpoint's span
// buffer (routers gather every range server's buffer too) and renders
// Chrome trace-event JSON — one "process" per source label, one "thread"
// per distinct trace id, so chrome://tracing lays concurrent traces out
// on separate rows. Span timestamps are per-process steady-clock micros:
// ordering is meaningful within one source row, not across machines.
int CmdTraceDump(const Args& args) {
  RemoteOptions remote = GetRemoteOptions(args);
  std::string address = args.Get("remote", "");
  auto channel =
      TcpChannel::ConnectAddress(address, RemoteChannelOptions(remote));
  if (!channel.ok()) return Fail(channel.status());
  AdsClient client(channel.value().get(), RemoteDeadline(remote));
  auto response = client.Stats(kStatsFlagTraceSpans);
  if (!response.ok()) return Fail(response.status());
  const std::vector<TraceSpanMsg>& spans = response.value().spans;

  std::map<std::string, int> pids;       // source label -> pid
  std::map<std::string, int> tids;       // trace id -> tid (per label)
  std::string json = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceSpanMsg& span : spans) {
    auto [pid_it, inserted] =
        pids.emplace(span.label, static_cast<int>(pids.size()) + 1);
    if (inserted) {
      if (!first) json.push_back(',');
      first = false;
      json += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
              std::to_string(pid_it->second) + ",\"args\":{\"name\":";
      AppendJsonString(span.label, &json);
      json += "}}";
    }
    char trace_id[48];
    std::snprintf(trace_id, sizeof(trace_id), "%016llx%016llx",
                  static_cast<unsigned long long>(span.trace_hi),
                  static_cast<unsigned long long>(span.trace_lo));
    auto [tid_it, unused] = tids.emplace(span.label + "/" + trace_id,
                                         static_cast<int>(tids.size()) + 1);
    if (!first) json.push_back(',');
    first = false;
    json += "{\"name\":";
    AppendJsonString(span.name, &json);
    json += ",\"cat\":\"hipads\",\"ph\":\"X\",\"ts\":" +
            std::to_string(span.start_us) +
            ",\"dur\":" + std::to_string(span.dur_us) +
            ",\"pid\":" + std::to_string(pid_it->second) +
            ",\"tid\":" + std::to_string(tid_it->second) +
            ",\"args\":{\"trace\":\"" + trace_id + "\"}}";
  }
  json += "]}\n";

  std::string out_path = args.Get("out", "");
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      return Fail(Status::IOError("cannot write " + out_path));
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  std::fprintf(stderr, "%zu spans from %zu sources\n", spans.size(),
               pids.size());
  if (spans.empty()) {
    std::fprintf(stderr,
                 "hint: traced requests fill the buffer — run e.g. "
                 "`hipads_cli query --remote %s ... --trace 1` first\n",
                 address.c_str());
  }
  return 0;
}

// Blocks under a serving loop forever; with an interval, dumps the local
// metrics registry to stderr every `metrics_interval_s` seconds in the
// scrape text format.
[[noreturn]] void ServeForever(unsigned metrics_interval_s) {
  if (metrics_interval_s == 0) {
    for (;;) pause();
  }
  for (;;) {
    sleep(metrics_interval_s);
    std::string text = MetricsRegistry::Get().Snapshot().ToText();
    std::fprintf(stderr, "-- metrics --\n%s", text.c_str());
    std::fflush(stderr);
  }
}

// `serve`: expose one backend — any engine, any node range — over TCP.
// Every flag is read before the backend opens or a socket binds, so a bad
// value exits 2 having started nothing.
int CmdServe(const Args& args) {
  ServerOptions options;
  options.node_begin = args.GetInt<NodeId>("node-begin", 0);
  options.num_threads = ClampThreads(args.GetInt("threads", 0));
  TcpServerOptions tcp;
  tcp.port = args.GetInt<uint16_t>("port", 7470);
  tcp.num_workers = args.GetInt<uint32_t>("workers", 4);
  // --timeout-ms bounds how long a connection may dribble one frame in
  // (slow-loris defense); idle connections between frames are unbounded.
  tcp.idle_timeout_ms = args.GetInt("timeout-ms", 0);
  const unsigned metrics_interval_s =
      args.GetInt<unsigned>("metrics-interval-s", 0);
  auto opened = OpenServingBackend(args);
  if (!opened.ok()) return Fail(opened.status());
  AdsServerCore core(opened.value().get(), options);
  TcpServer server(&core, tcp);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  ServerInfoMsg info = core.Info();
  std::printf(
      "serving nodes [%llu, %llu) (k=%u, %llu entries, hip=%s) on port %u\n",
      static_cast<unsigned long long>(info.node_begin),
      static_cast<unsigned long long>(info.node_end), info.k,
      static_cast<unsigned long long>(info.total_entries),
      opened.value()->HipResident() ? "resident" : "scan", server.port());
  std::fflush(stdout);
  ServeForever(metrics_interval_s);
}

// `route`: the scatter/gather front end over a fleet manifest. Connects
// (and validates) the whole fleet before binding its own port, so a dead
// or misconfigured range server fails startup with a nonzero exit; every
// flag is read before that, as in `serve`.
int CmdRoute(const Args& args) {
  RemoteOptions remote = GetRemoteOptions(args);
  TcpServerOptions tcp;
  tcp.port = args.GetInt<uint16_t>("port", 7480);
  tcp.num_workers = args.GetInt<uint32_t>("workers", 4);
  tcp.idle_timeout_ms = args.GetInt("timeout-ms", 0);
  const unsigned metrics_interval_s =
      args.GetInt<unsigned>("metrics-interval-s", 0);
  auto manifest = ReadFleetManifestFile(args.Get("fleet", "fleet.txt"));
  if (!manifest.ok()) return Fail(manifest.status());
  auto connected = FleetRouter::Connect(
      std::move(manifest).value(),
      TcpChannelFactory(RemoteChannelOptions(remote)),
      RemoteRouterOptions(remote));
  if (!connected.ok()) return Fail(connected.status());
  FleetRouter router = std::move(connected).value();
  RouterCore core(&router);
  TcpServer server(&core, tcp);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::printf("routing %zu range servers, %llu nodes (k=%u) on port %u\n",
              router.num_servers(),
              static_cast<unsigned long long>(router.num_nodes()),
              router.info().k,
              server.port());
  std::fflush(stdout);
  ServeForever(metrics_interval_s);
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hipads_cli {generate|sketch|convert|shard|query|"
                 "stats|serve|route|stats-scrape|trace-dump} "
                 "[--flag value]...\n");
    return 2;
  }
  std::string cmd = argv[1];
  Args args(argc - 2, argv + 2);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "sketch") return CmdSketch(args);
  if (cmd == "convert") return CmdConvert(args);
  if (cmd == "shard") return CmdShard(args);
  if (cmd == "query") return CmdQuery(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "route") return CmdRoute(args);
  if (cmd == "stats-scrape") return CmdStatsScrape(args);
  if (cmd == "trace-dump") return CmdTraceDump(args);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace hipads

int main(int argc, char** argv) { return hipads::Main(argc, argv); }
