// The serving processes of the distributed subsystem.
//
// A range server owns an AdsBackend — any engine: in-memory arena, zero-
// copy mmap, sharded-with-prefetch — holding the sketches of one
// contiguous global node range, and answers the wire protocol
// (serve/protocol.h) over it:
//
//   AdsServerCore  transport-free request dispatch: one request frame in,
//                  one response frame out. This is the piece the loopback
//                  transport, the fuzz suite and the TCP server all share,
//                  so the full protocol surface is testable deterministically
//                  without a socket in sight.
//   TcpServer      a thread-pooled TCP front end: N worker threads accept
//                  connections and pump frames through a FrameHandler.
//
// Concurrency: when the backend reports ImmutableReads() — flat arenas and
// mmap sets — the core runs LOCK-FREE: any number of point lookups and
// whole-range sweeps execute concurrently with no serialization at all
// (results are bitwise deterministic either way, so overlap is invisible).
// Serialized engines (ShardedAdsSet's lazy residency) keep a mutex, and
// point lookups arriving while a sweep holds the backend are SHED with
// Unavailable instead of queueing behind minutes of compute — the caller's
// retry policy (serve/router.h) turns that into bounded extra latency.
// Both modes sit behind small LRU response caches, so repeated cheap
// lookups never touch the backend at all.
//
// Points have one path: a lone kPointRequest is answered as a batch of
// one, so a lone point and a batch entry share the cache, the shedding
// decision and the computation, and answer with the same bytes.
//
// The node-id split: a range server launched with node_begin B serves
// global nodes [B, B + backend.num_nodes()). Shard files written by
// WriteShardedAdsSet are complete, independently loadable ADS files whose
// local node i is global node begin + i (entry target ids stay global), so
// a fleet is deployed by pointing each server at a shard file (or sharded
// subdirectory) with the matching --node-begin offset. Sweep responses are
// labeled with the global range; per-node statistics depend only on the
// node's own sketch, so the relabeling is exact.

#ifndef HIPADS_SERVE_SERVER_H_
#define HIPADS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ads/backend.h"
#include "ads/estimators.h"
#include "serve/protocol.h"
#include "util/annotations.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"

namespace hipads {

/// Transport-free request endpoint: turns one request frame into one
/// response frame. Implementations must never crash on malformed input —
/// frames arrive from the network.
class FrameHandler {
 public:
  virtual ~FrameHandler();

  /// Handles one frame. Always returns a complete response frame (kError
  /// for anything invalid). Sets *close_connection when the byte stream
  /// can no longer be trusted (undecodable frame: once framing is lost,
  /// every subsequent byte is garbage), telling a streaming transport to
  /// drop the connection after sending the response.
  /// Safe to call from multiple threads concurrently.
  virtual std::string HandleFrame(std::string_view request,
                                  bool* close_connection) = 0;
};

/// Bounded, thread-safe LRU mapping request bytes to response bytes.
/// Every answer a serving backend can give is immutable (sketches never
/// change once loaded), so cached responses never go stale; the cache
/// exists so a repeated cheap lookup is served without touching the
/// backend — including while a whole-graph sweep holds a serialized
/// backend busy. Capacity 0 disables it.
class ResponseCache {
 public:
  /// `metric_prefix` names this cache in the metrics registry: hits and
  /// misses surface as `<prefix>.hits` / `<prefix>.misses` in scrapes.
  ResponseCache(size_t capacity, std::string metric_prefix)
      : hits_(metric_prefix + ".hits"),
        misses_(metric_prefix + ".misses"),
        capacity_(capacity) {}

  /// Copies the cached response into *value and refreshes recency.
  bool Get(const std::string& key, std::string* value);
  void Put(const std::string& key, std::string value);

  /// Lifetime hit count — observability for tests asserting that batched
  /// and single-request paths share one cache. Backed by the registry
  /// counter, so a wire scrape and this accessor can never disagree.
  uint64_t hits() const { return hits_.value(); }

 private:
  using Entry = std::pair<std::string, std::string>;  // key, response

  Mutex mu_;
  RegisteredCounter hits_;
  RegisteredCounter misses_;
  // Immutable after construction: Put reads it before taking mu_ for its
  // capacity-0 fast path, which is only race-free because nothing ever
  // writes it again (const makes that a compiler guarantee, not a habit).
  const size_t capacity_;
  std::list<Entry> lru_ HIPADS_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      HIPADS_GUARDED_BY(mu_);
};

/// Serving options for AdsServerCore.
struct ServerOptions {
  /// Global node id of the backend's local node 0.
  NodeId node_begin = 0;
  /// Threads per sweep (0 = hardware count). Bitwise-neutral.
  uint32_t num_threads = 1;
  /// Entries in the point-result LRU, keyed by exact request payload
  /// bytes (0 disables).
  uint32_t point_cache_entries = 1024;
  /// Entries in the sweep-response LRU, keyed by the canonical spec
  /// encoding (SweepSpecCacheKey, thread-count excluded; 0 disables).
  uint32_t sweep_cache_entries = 4;
};

/// The request dispatcher of a range server. Borrows the backend, which
/// must outlive the core. Immutable-read backends are served lock-free;
/// serialized backends are guarded by an internal mutex with point-
/// lookup shedding (see the file comment). Requests carrying an expired
/// deadline are shed with DeadlineExceeded before touching the backend,
/// and an in-flight sweep aborts between node ranges once its request's
/// deadline passes — a fleet under deadline pressure sheds load instead
/// of computing answers nobody is waiting for.
class AdsServerCore : public FrameHandler {
 public:
  AdsServerCore(const AdsBackend* backend, const ServerOptions& options);

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override;

  /// The info this server reports (also used by fleet validation).
  ServerInfoMsg Info() const;

  /// Lifetime point-cache hit count (batched and single requests share the
  /// same cache; tests assert cross-shape hits through this).
  uint64_t point_cache_hits() const { return point_cache_.hits(); }

 private:
  StatusOr<Frame> Dispatch(const Frame& request, const Deadline& deadline);
  StatusOr<Frame> HandlePoint(const PointRequestMsg& msg,
                              const std::string& payload);
  StatusOr<Frame> HandlePointBatch(const PointBatchRequestMsg& msg);
  StatusOr<Frame> HandleSweep(const SweepRequestMsg& msg,
                              const Deadline& deadline);
  /// Answers a kStatsRequest with this process's registry snapshot
  /// (labeled "server") and, when asked, the buffered trace spans.
  StatusOr<Frame> HandleStats(const StatsRequestMsg& msg) const;
  /// Maps a global node id into the served range (the NotFound here is THE
  /// out-of-range answer — single and batched paths must fail with
  /// identical bytes).
  StatusOr<NodeId> LocalIdOf(uint64_t node) const;
  /// The one point engine: fills out[i] with the answer to requests[i]
  /// (a lone request is a batch of one). keys[i] is requests[i]'s
  /// point-cache key, its canonical single-request encoding — a lone
  /// request's own payload bytes; `keys` is read only when the cache is
  /// on. Hits bypass the backend and its lock. The misses are computed in
  /// one pass in node order: consecutive same-node entries share one
  /// backend fetch and one estimator — until a Jaccard entry, whose second
  /// fetch can evict the shared view's shard — and consecutive identical
  /// entries reuse the previous result (responses are deterministic, so
  /// the copy is bitwise-equal to a recompute). A serialized backend is
  /// locked once for the pass or, while a sweep holds it, every miss is
  /// shed with Unavailable.
  void AnswerPoints(std::span<const PointRequestMsg> requests,
                    std::span<const std::string> keys,
                    std::span<PointBatchResponseEntry> out);
  /// One entry's answer from its node's fetched view. `hip` carries the
  /// node's storage-resident HIP weights when the backend has them
  /// (estimator materialization is then a pointer wrap); when absent the
  /// scan runs into a per-thread scratch — both produce byte-identical
  /// responses. `est` caches the node's HipEstimator across the node's
  /// consecutive entries.
  StatusOr<std::string> ComputePointWithView(
      const PointRequestMsg& msg, const AdsView& view, const HipView& hip,
      std::optional<HipEstimator>* est) const;

  const AdsBackend* backend_;
  ServerOptions options_;
  const bool lock_free_;  // backend_->ImmutableReads()
  // Serializes backend access on serialized engines. It guards the
  // *pointee* of backend_ — and only when !lock_free_, a runtime property
  // — so the guarded relation is enforced by the call structure of
  // AnswerPoints and HandleSweep (and the tsan lane), not by a GUARDED_BY
  // the analysis could check.
  mutable Mutex mu_;
  // Sweeps holding the serialized backend: points arriving while it is
  // nonzero are shed. This core's own count — the registry gauge
  // "serve.active_sweeps" sums every core in the process.
  std::atomic<int> active_sweeps_{0};
  ResponseCache point_cache_;
  ResponseCache sweep_cache_;
};

/// Options for TcpServer.
struct TcpServerOptions {
  /// Port to bind (0 = ephemeral; read the chosen one back via port()).
  uint16_t port = 0;
  /// Concurrent connections served (worker threads accepting on the shared
  /// listening socket); further connections wait in the listen backlog.
  uint32_t num_workers = 4;
  /// Mid-frame stall bound: once the first byte of a frame has arrived,
  /// the rest of it (and the response write) must complete within this
  /// budget or the connection is dropped — a client stalled mid-frame
  /// (or a slow-loris) cannot pin a worker forever. Idle time BETWEEN
  /// frames stays unbounded. 0 = no bound.
  uint64_t idle_timeout_ms = 0;
};

/// Thread-pooled TCP transport around a FrameHandler. Start() binds and
/// spawns the workers; Stop() (or destruction) shuts the listener down and
/// joins them. Connections are served frame-by-frame, strictly in arrival
/// order, until the peer closes or a handler reports loss of framing.
/// Accepted sockets set TCP_NODELAY: responses are single complete frames,
/// and Nagle would only stall their final short segment.
class TcpServer {
 public:
  TcpServer(FrameHandler* handler, const TcpServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  Status Start();
  void Stop();

  /// The bound port (valid after Start; resolves port 0 requests).
  uint16_t port() const { return port_; }

 private:
  void WorkerLoop();
  void ServeConnection(int fd);
  /// False once Stop is signaled or the deadline passes.
  bool WaitReadable(int fd, const Deadline& deadline);

  FrameHandler* handler_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  // self-pipe waking workers out of poll
  uint16_t port_ = 0;
  std::vector<std::thread> workers_;
};

}  // namespace hipads

#endif  // HIPADS_SERVE_SERVER_H_
