// The serving processes of the distributed subsystem.
//
// A range server owns an AdsBackend — any engine: in-memory arena, zero-
// copy mmap, sharded-with-prefetch — holding the sketches of one
// contiguous global node range, and answers the wire protocol
// (serve/protocol.h) over it:
//
//   ServingCore    the request path every serving process shares: one
//                  request frame in, one response frame out, transport-
//                  free, so the loopback transport, the fuzz suite and
//                  the TCP server all drive it.
//   AdsServerCore  a range server's five typed answers over its backend
//                  (RouterCore, serve/router.h, supplies a fleet's).
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
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
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

/// The request path of a serving process, around the five typed answers
/// its subclass supplies as encoded response payloads. HandleFrame
/// rejects undecodable bytes (untraced kError, connection closed),
/// installs the request's trace id and echoes it, re-anchors the wire
/// deadline and sheds an expired request before any answer runs, decodes
/// the typed request, and encodes the answer or error. It records
/// `<prefix>.requests.<kind>` and `<prefix>.latency_us.<kind>` (kind:
/// info, point, point_batch, sweep, stats, other), `<prefix>.bytes_in`,
/// `.bytes_out`, `.undecodable_frames` and `.shed.deadline`, and the spans
/// `<label>.dispatch` and `<label>.encode`. A range server's prefix is
/// "serve" and its label "server"; a router uses "router" for both.
class ServingCore : public FrameHandler {
 public:
  std::string HandleFrame(std::string_view request,
                          bool* close_connection) final;

 protected:
  ServingCore(const std::string& metric_prefix, std::string label);

  /// This process's label in stats answers and trace spans.
  const std::string& label() const { return label_; }

  // The typed answers, each an encoded response payload or the error the
  // response frame carries. `deadline` is the request's, re-anchored.
  virtual std::string AnswerInfo() = 0;
  /// `payload` is the request's own bytes, the canonical encoding of `msg`.
  virtual StatusOr<std::string> AnswerPoint(const PointRequestMsg& msg,
                                            std::string_view payload,
                                            const Deadline& deadline) = 0;
  /// raw[i] is msg.entries[i]'s own bytes, its canonical encoding (a view
  /// into the request frame).
  virtual StatusOr<std::string> AnswerPointBatch(
      const PointBatchRequestMsg& msg, std::span<const std::string_view> raw,
      const Deadline& deadline) = 0;
  virtual StatusOr<std::string> AnswerSweep(const SweepRequestMsg& msg,
                                            const Deadline& deadline) = 0;
  virtual StatusOr<std::string> AnswerStats(const StatsRequestMsg& msg,
                                            const Deadline& deadline) = 0;

 private:
  StatusOr<Frame> Dispatch(MessageType type, std::string_view payload,
                           const Deadline& deadline);

  // Indexed by request kind: info, point, point_batch, sweep, stats, other.
  static constexpr size_t kNumKinds = 6;
  MetricCounter* requests_[kNumKinds];
  MetricHistogram* latency_us_[kNumKinds];
  MetricCounter* const bytes_in_;
  MetricCounter* const bytes_out_;
  MetricCounter* const undecodable_;
  MetricCounter* const shed_deadline_;
  const std::string label_;
  const std::string dispatch_span_;
  const std::string encode_span_;
};

/// This process's own part of a stats answer: its registry snapshot
/// labeled `label`, and with kStatsFlagTraceSpans in `flags` its buffered
/// trace spans under the same label.
StatsResponseMsg ProcessStats(const std::string& label, uint32_t flags);

/// Bounded, thread-safe LRU mapping request bytes to response bytes.
/// Every answer a serving backend can give is immutable (sketches never
/// change once loaded), so cached responses never go stale; the cache
/// exists so a repeated cheap lookup is served without touching the
/// backend — including while a whole-graph sweep holds a serialized
/// backend busy. Capacity 0 disables it.
///
/// The cache is a slab of at most `capacity` slots, each a key and its
/// response, linked by slot index in recency order and found through an
/// open-addressed index. Slots are added as entries arrive; once all are
/// in use, a new key takes the least recently used slot and reuses its
/// strings in place, so a warm cache allocates only for a response longer
/// than any its slot held before. A run of lookups (GetEach) or of fills
/// (PutEach) takes the lock once, and behaves exactly as that many Gets or
/// Puts in order.
class ResponseCache {
 public:
  /// `metric_prefix` names this cache in the metrics registry: hits and
  /// misses add to `<prefix>.hits` / `<prefix>.misses`, process totals
  /// that every cache of that name shares and that outlive the cache.
  ResponseCache(size_t capacity, const std::string& metric_prefix);

  /// Copies the cached response into *value and refreshes recency.
  bool Get(std::string_view key, std::string* value);
  void Put(std::string_view key, std::string_view value);

  /// Get for each of `keys`, in order, under one lock: a hit refreshes the
  /// key's recency and calls on_hit(i, response), where the view is valid
  /// only during the call; a miss calls nothing. on_hit must not call into
  /// this cache.
  template <typename OnHit>
  void GetEach(std::span<const std::string_view> keys, OnHit&& on_hit) {
    size_t hits = 0;
    {
      MutexLock lock(mu_);
      for (size_t i = 0; i < keys.size(); ++i) {
        const Slot* slot = FindLocked(keys[i]);
        if (slot == nullptr) continue;
        ++hits;
        on_hit(i, std::string_view(slot->value));
      }
      hits_ += hits;
    }
    CountLookups(hits, keys.size() - hits);
  }

  /// Put for each of `n` pairs, in order, under one lock: pair_at(j)
  /// returns the j-th (key, value), which are copied into the cache.
  template <typename PairAt>
  void PutEach(size_t n, PairAt&& pair_at) {
    if (capacity_ == 0 || n == 0) return;  // capacity_ is const
    MutexLock lock(mu_);
    for (size_t j = 0; j < n; ++j) {
      const std::pair<std::string_view, std::string_view> kv = pair_at(j);
      PutLocked(kv.first, kv.second);
    }
  }

  /// This cache's lifetime hit count — observability for tests asserting
  /// that batched and single-request paths share one cache. Counted
  /// whether or not metrics are enabled.
  uint64_t hits() const;

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};
  struct Slot {
    std::string key;
    std::string value;
    uint64_t hash = 0;
    uint32_t newer = kNone;  // toward the most recently used slot
    uint32_t older = kNone;  // toward the least recently used slot
  };

  /// The slot holding `key`, made the most recently used; null if absent.
  const Slot* FindLocked(std::string_view key) HIPADS_REQUIRES(mu_);
  void PutLocked(std::string_view key, std::string_view value)
      HIPADS_REQUIRES(mu_);
  /// The index position of the slot holding `key` (hashing to `hash`), or
  /// of the empty position that ends its probe when no slot holds it.
  size_t ProbeLocked(std::string_view key, uint64_t hash) const
      HIPADS_REQUIRES(mu_);
  /// The index position of slot `s`, which is in the index.
  size_t PositionLocked(uint32_t s) const HIPADS_REQUIRES(mu_);
  void UnlinkLocked(uint32_t s) HIPADS_REQUIRES(mu_);
  void LinkFrontLocked(uint32_t s) HIPADS_REQUIRES(mu_);
  /// Empties index position `at`, shifting back the entries after it that
  /// its occupant displaced, so probes never need tombstones.
  void EraseIndexLocked(size_t at) HIPADS_REQUIRES(mu_);
  /// Rebuilds the index at `size` positions (a power of two).
  void RehashLocked(size_t size) HIPADS_REQUIRES(mu_);
  void CountLookups(size_t hits, size_t misses);

  mutable Mutex mu_;
  uint64_t hits_ HIPADS_GUARDED_BY(mu_) = 0;
  MetricCounter* const hit_counter_;
  MetricCounter* const miss_counter_;
  // Immutable after construction: PutEach reads it before taking mu_ for
  // its capacity-0 fast path, which is only race-free because nothing ever
  // writes it again (const makes that a compiler guarantee, not a habit).
  const size_t capacity_;
  std::vector<Slot> slots_ HIPADS_GUARDED_BY(mu_);  // grows to capacity_
  // Open addressing with linear probing. An entry holds its slot's index
  // + 1 in the low 32 bits and the low 32 bits of its key's hash above
  // them, so a probe reads only the slots whose hash bits match, and an
  // erase shifts entries back without reading any; 0 is an empty
  // position. At most half full, so every probe ends at an empty position.
  std::vector<uint64_t> index_ HIPADS_GUARDED_BY(mu_);
  uint32_t newest_ HIPADS_GUARDED_BY(mu_) = kNone;
  uint32_t oldest_ HIPADS_GUARDED_BY(mu_) = kNone;
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

/// The answers of a range server. Borrows the backend, which must
/// outlive the core. Immutable-read backends are served lock-free;
/// serialized backends are guarded by an internal mutex with point-
/// lookup shedding (see the file comment). Requests carrying an expired
/// deadline are shed by ServingCore before touching the backend, and an
/// in-flight sweep aborts between node ranges once its request's
/// deadline passes — a fleet under deadline pressure sheds load instead
/// of computing answers nobody is waiting for.
class AdsServerCore : public ServingCore {
 public:
  AdsServerCore(const AdsBackend* backend, const ServerOptions& options);

  /// The info this server reports (also used by fleet validation).
  ServerInfoMsg Info() const;

  /// Lifetime point-cache hit count (batched and single requests share the
  /// same cache; tests assert cross-shape hits through this).
  uint64_t point_cache_hits() const { return point_cache_.hits(); }

 private:
  std::string AnswerInfo() override;
  StatusOr<std::string> AnswerPoint(const PointRequestMsg& msg,
                                    std::string_view payload,
                                    const Deadline& deadline) override;
  StatusOr<std::string> AnswerPointBatch(const PointBatchRequestMsg& msg,
                                         std::span<const std::string_view> raw,
                                         const Deadline& deadline) override;
  StatusOr<std::string> AnswerSweep(const SweepRequestMsg& msg,
                                    const Deadline& deadline) override;
  /// This process's registry snapshot (labeled "server") and, when asked,
  /// its buffered trace spans.
  StatusOr<std::string> AnswerStats(const StatsRequestMsg& msg,
                                    const Deadline& deadline) override;
  /// Maps a global node id into the served range (the NotFound here is THE
  /// out-of-range answer — single and batched paths must fail with
  /// identical bytes).
  StatusOr<NodeId> LocalIdOf(uint64_t node) const;

  /// One answer of AnswerPoints: its status and, when Ok, its encoded
  /// PointResponseMsg at [begin, begin + size) of the answer buffer.
  struct PointAnswer {
    Status status;
    size_t begin = 0;
    size_t size = 0;
  };
  /// The one point engine: answers requests[i] into out[i], appending
  /// every Ok answer's bytes to `*bytes` (a lone request is a batch of
  /// one, whose bytes are exactly its answer). keys[i] is requests[i]'s
  /// point-cache key, its canonical single-request encoding — the
  /// request's own bytes; `keys` is read only when the cache is on. The
  /// cache is probed under one lock, and hits bypass the backend and its
  /// lock. The misses are computed in one pass in node order, each encoded
  /// once into `*bytes`: consecutive same-node entries share one backend
  /// fetch and one estimator — until a Jaccard entry, whose second fetch
  /// can evict the shared view's shard — and consecutive identical entries
  /// share the previous answer (responses are deterministic, so it is
  /// bitwise-equal to a recompute). A serialized backend is locked once
  /// for the pass or, while a sweep holds it, every miss is shed with
  /// Unavailable. The Ok misses then fill the cache under one lock.
  void AnswerPoints(std::span<const PointRequestMsg> requests,
                    std::span<const std::string_view> keys,
                    std::span<PointAnswer> out, std::string* bytes);
  /// Appends one entry's encoded answer from its node's fetched view to
  /// `*out`. `hip` carries the node's stored HIP weights, which the
  /// estimator wraps. `est` caches the node's HipEstimator across the
  /// node's consecutive entries. On an error nothing is appended.
  Status AppendPointAnswer(const PointRequestMsg& msg, const AdsView& view,
                           const HipView& hip,
                           std::optional<HipEstimator>* est,
                           std::string* out) const;

  const AdsBackend* backend_;
  ServerOptions options_;
  const bool lock_free_;  // backend_->ImmutableReads()
  // Serializes backend access on serialized engines. It guards the
  // *pointee* of backend_ — and only when !lock_free_, a runtime property
  // — so the guarded relation is enforced by the call structure of
  // AnswerPoints and AnswerSweep (and the tsan lane), not by a GUARDED_BY
  // the analysis could check.
  mutable Mutex mu_;
  // Sweeps holding the serialized backend: points arriving while it is
  // nonzero are shed. This core's own count — the registry gauge
  // "serve.active_sweeps" sums every core in the process.
  std::atomic<int> active_sweeps_{0};
  ResponseCache point_cache_;
  ResponseCache sweep_cache_;
};

/// The most worker threads a TcpServer starts: each is a thread with its
/// own stack, so a mistyped count must fail instead of exhausting the
/// host. `serve` and `route` bound --workers by it.
inline constexpr uint32_t kMaxTcpWorkers = 1024;

/// Options for TcpServer.
struct TcpServerOptions {
  /// Port to bind (0 = ephemeral; read the chosen one back via port()).
  uint16_t port = 0;
  /// Concurrent connections served (worker threads accepting on the shared
  /// listening socket); further connections wait in the listen backlog.
  /// 0 starts one; more than kMaxTcpWorkers fails Start.
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

  /// Binds and spawns the workers. InvalidArgument, having created no
  /// thread or socket, when num_workers exceeds kMaxTcpWorkers.
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
