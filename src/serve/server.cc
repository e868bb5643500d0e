#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ads/estimators.h"
#include "ads/similarity.h"
#include "serve/trace.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace hipads {

FrameHandler::~FrameHandler() = default;

namespace {

// Request kinds with their own request and latency instruments.
enum RequestKind {
  kReqInfo,
  kReqPoint,
  kReqBatch,
  kReqSweep,
  kReqStats,
  kReqOther,
};

RequestKind RequestKindOf(MessageType type) {
  switch (type) {
    case MessageType::kInfoRequest:
      return kReqInfo;
    case MessageType::kPointRequest:
      return kReqPoint;
    case MessageType::kPointBatchRequest:
      return kReqBatch;
    case MessageType::kSweepRequest:
      return kReqSweep;
    case MessageType::kStatsRequest:
      return kReqStats;
    default:
      return kReqOther;
  }
}

constexpr const char* kRequestKindNames[] = {
    "info", "point", "point_batch", "sweep", "stats", "other"};

// The range server's own instruments, resolved once: the registry lookup
// takes a mutex, so hot paths record through cached raw pointers (the
// registry owns the instruments and never frees them).
struct ServeMetrics {
  MetricCounter* shed_busy;
  MetricCounter* hip_resident;
  MetricCounter* hip_scan;
  MetricGauge* active_sweeps;
  MetricHistogram* batch_entries;
  MetricCounter* tcp_accepted;
};

ServeMetrics& Metrics() {
  static ServeMetrics* m = [] {
    auto* mm = new ServeMetrics();
    MetricsRegistry& reg = MetricsRegistry::Get();
    mm->shed_busy = reg.Counter("serve.shed.busy");
    mm->hip_resident = reg.Counter("serve.point.hip_resident");
    mm->hip_scan = reg.Counter("serve.point.hip_scan");
    mm->active_sweeps = reg.Gauge("serve.active_sweeps");
    mm->batch_entries = reg.Histogram("serve.batch.entries");
    mm->tcp_accepted = reg.Counter("serve.tcp.accepted");
    return mm;
  }();
  return *m;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServingCore
// ---------------------------------------------------------------------------

ServingCore::ServingCore(const std::string& metric_prefix, std::string label)
    : bytes_in_(MetricsRegistry::Get().Counter(metric_prefix + ".bytes_in")),
      bytes_out_(MetricsRegistry::Get().Counter(metric_prefix + ".bytes_out")),
      undecodable_(MetricsRegistry::Get().Counter(metric_prefix +
                                                  ".undecodable_frames")),
      shed_deadline_(
          MetricsRegistry::Get().Counter(metric_prefix + ".shed.deadline")),
      label_(std::move(label)),
      dispatch_span_(label_ + ".dispatch"),
      encode_span_(label_ + ".encode") {
  static_assert(std::size(kRequestKindNames) == kNumKinds);
  const std::string requests = metric_prefix + ".requests.";
  const std::string latency_us = metric_prefix + ".latency_us.";
  for (size_t i = 0; i < kNumKinds; ++i) {
    requests_[i] =
        MetricsRegistry::Get().Counter(requests + kRequestKindNames[i]);
    latency_us_[i] =
        MetricsRegistry::Get().Histogram(latency_us + kRequestKindNames[i]);
  }
}

std::string ServingCore::HandleFrame(std::string_view request,
                                     bool* close_connection) {
  bytes_in_->Add(request.size());
  *close_connection = false;
  auto frame = DecodeFrame(request);
  if (!frame.ok()) {
    // Undecodable bytes: answer with the reason, then drop the stream —
    // after a framing failure there is no trustworthy record boundary.
    *close_connection = true;
    undecodable_->Add();
    std::string err =
        EncodeFrame(MessageType::kError, EncodeError(frame.status()));
    bytes_out_->Add(err.size());
    return err;
  }
  // The request's trace id is echoed back and installed for the handling
  // thread, so the instrumented sections below Dispatch (and every
  // downstream hop a router makes) record spans against it.
  const uint64_t trace_hi = frame.value().trace_hi;
  const uint64_t trace_lo = frame.value().trace_lo;
  ScopedTraceContext trace_context(trace_hi, trace_lo);
  const RequestKind kind = RequestKindOf(frame.value().type);
  requests_[kind]->Add();
  Deadline deadline = Deadline::FromWireMs(frame.value().deadline_ms);
  StatusOr<Frame> response = [&] {
    ScopedLatencyTimer timer(latency_us_[kind]);
    ScopedTraceSpan span(dispatch_span_.c_str());
    return Dispatch(frame.value(), deadline);
  }();
  std::string encoded;
  {
    ScopedTraceSpan span(encode_span_.c_str());
    encoded = response.ok()
                  ? EncodeFrame(response.value().type,
                                response.value().payload,
                                /*deadline_ms=*/0, trace_hi, trace_lo)
                  : EncodeFrame(MessageType::kError,
                                EncodeError(response.status()),
                                /*deadline_ms=*/0, trace_hi, trace_lo);
  }
  bytes_out_->Add(encoded.size());
  return encoded;
}

StatusOr<Frame> ServingCore::Dispatch(const Frame& request,
                                      const Deadline& deadline) {
  if (deadline.Expired()) {
    // Nobody is waiting for this answer anymore: shed before any compute.
    shed_deadline_->Add();
    return Status::DeadlineExceeded("request deadline expired; shed");
  }
  // The answer to a decoded request, as a frame of `type`.
  auto respond = [](MessageType type,
                    StatusOr<std::string> payload) -> StatusOr<Frame> {
    if (!payload.ok()) return payload.status();
    return Frame{type, std::move(payload).value()};
  };
  switch (request.type) {
    case MessageType::kInfoRequest:
      if (!request.payload.empty()) {
        return Status::Corruption("info request carries a payload");
      }
      return Frame{MessageType::kInfoResponse, AnswerInfo()};
    case MessageType::kPointRequest: {
      auto msg = DecodePointRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kPointResponse,
                     AnswerPoint(msg.value(), request.payload, deadline));
    }
    case MessageType::kPointBatchRequest: {
      auto msg = DecodePointBatchRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kPointBatchResponse,
                     AnswerPointBatch(msg.value(), deadline));
    }
    case MessageType::kSweepRequest: {
      auto msg = DecodeSweepRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kSweepResponse,
                     AnswerSweep(msg.value(), deadline));
    }
    case MessageType::kStatsRequest: {
      auto msg = DecodeStatsRequest(request.payload);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kStatsResponse,
                     AnswerStats(msg.value(), deadline));
    }
    default:
      return Status::InvalidArgument("frame type is not a request");
  }
}

StatsResponseMsg ProcessStats(const std::string& label, uint32_t flags) {
  StatsResponseMsg response;
  StatsSnapshotMsg snap;
  snap.label = label;
  snap.metrics = MetricsRegistry::Get().Snapshot();
  response.snapshots.push_back(std::move(snap));
  if ((flags & kStatsFlagTraceSpans) != 0) {
    for (TraceSpan& span : TraceBuffer::Get().Snapshot()) {
      TraceSpanMsg out;
      out.label = label;
      out.name = std::move(span.name);
      out.trace_hi = span.trace_hi;
      out.trace_lo = span.trace_lo;
      out.start_us = span.start_us;
      out.dur_us = span.dur_us;
      response.spans.push_back(std::move(out));
    }
  }
  return response;
}

// ---------------------------------------------------------------------------
// ResponseCache
// ---------------------------------------------------------------------------

ResponseCache::ResponseCache(size_t capacity, const std::string& metric_prefix)
    : hit_counter_(MetricsRegistry::Get().Counter(metric_prefix + ".hits")),
      miss_counter_(MetricsRegistry::Get().Counter(metric_prefix + ".misses")),
      capacity_(capacity) {}

uint64_t ResponseCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

bool ResponseCache::Get(const std::string& key, std::string* value) {
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    miss_counter_->Add();
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *value = it->second->second;
  ++hits_;
  hit_counter_->Add();
  return true;
}

void ResponseCache::Put(const std::string& key, std::string value) {
  if (capacity_ == 0) return;  // capacity_ is const: lock-free fast path
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// AdsServerCore
// ---------------------------------------------------------------------------

AdsServerCore::AdsServerCore(const AdsBackend* backend,
                             const ServerOptions& options)
    : ServingCore("serve", "server"),
      backend_(backend),
      options_(options),
      lock_free_(backend->ImmutableReads()),
      point_cache_(options.point_cache_entries, "serve.cache.point"),
      sweep_cache_(options.sweep_cache_entries, "serve.cache.sweep") {}

ServerInfoMsg AdsServerCore::Info() const {
  ServerInfoMsg info;
  info.node_begin = options_.node_begin;
  info.node_end = options_.node_begin + backend_->num_nodes();
  info.total_entries = backend_->TotalEntries();
  info.k = backend_->k();
  info.flavor = static_cast<uint32_t>(backend_->flavor());
  info.rank_sup = backend_->ranks().sup();
  return info;
}

std::string AdsServerCore::AnswerInfo() { return EncodeServerInfo(Info()); }

StatusOr<std::string> AdsServerCore::AnswerStats(const StatsRequestMsg& msg,
                                                 const Deadline&) {
  return EncodeStatsResponse(ProcessStats(label(), msg.flags));
}

StatusOr<std::string> AdsServerCore::AnswerPoint(const PointRequestMsg& msg,
                                                 const std::string& payload,
                                                 const Deadline&) {
  // A lone point is a batch of one. Its payload is a canonical encoding
  // of the question, so it is the cache key as it stands.
  PointBatchResponseEntry answer;
  AnswerPoints({&msg, 1}, {&payload, 1}, {&answer, 1});
  if (!answer.status.ok()) return answer.status;
  return std::move(answer.payload);
}

StatusOr<NodeId> AdsServerCore::LocalIdOf(uint64_t node) const {
  uint64_t begin = options_.node_begin;
  uint64_t end = begin + backend_->num_nodes();
  if (node < begin || node >= end) {
    return Status::NotFound("node " + std::to_string(node) +
                            " is outside the served range");
  }
  return static_cast<NodeId>(node - begin);
}

StatusOr<std::string> AdsServerCore::ComputePointWithView(
    const PointRequestMsg& msg, const AdsView& view, const HipView& hip,
    std::optional<HipEstimator>* est) const {
  uint64_t begin = options_.node_begin;
  uint64_t end = begin + backend_->num_nodes();
  PointResponseMsg response;
  switch (msg.kind) {
    case PointKind::kNodeStats: {
      if (!est->has_value()) {
        ScopedTraceSpan estimator_span("server.estimator");
        (hip.present() ? Metrics().hip_resident : Metrics().hip_scan)->Add();
        // Storage-resident weights make this a pointer wrap; without them
        // the estimator scans into a per-thread scratch, allocation-free
        // once warm. It borrows the scratch, which is safe: an estimator
        // never outlives the pass that created it, and the pass resets it
        // before the scratch is scanned again.
        thread_local HipScratch scratch;
        est->emplace(view, hip, backend_->k(), backend_->flavor(),
                     backend_->ranks(), &scratch);
      }
      if (std::isinf(msg.d)) {
        response.values = {(*est)->ReachableCount(),
                           (*est)->HarmonicCentrality(),
                           (*est)->DistanceSum()};
      } else {
        response.values = {(*est)->NeighborhoodCardinality(msg.d)};
      }
      break;
    }
    case PointKind::kLookup: {
      // Entry target ids are global, so lookups need no translation.
      AdsNodeIndex index(view);
      response.values.reserve(msg.targets.size());
      for (uint64_t target : msg.targets) {
        if (target > std::numeric_limits<NodeId>::max()) {
          response.values.push_back(-1.0);
        } else {
          response.values.push_back(
              index.DistanceOf(static_cast<NodeId>(target)));
        }
      }
      break;
    }
    case PointKind::kJaccard: {
      if (msg.other < begin || msg.other >= end) {
        return Status::NotFound(
            "similarity target " + std::to_string(msg.other) +
            " is outside the served range (route through a fleet router "
            "for cross-server pairs)");
      }
      // Fetching the second view may evict the shard backing the first
      // (bounded residency), so pin a copy of the first sketch.
      std::vector<AdsEntry> pinned(view.entries().begin(),
                                   view.entries().end());
      AdsView u_view{std::span<const AdsEntry>(pinned)};
      auto other_view =
          backend_->ViewOf(static_cast<NodeId>(msg.other - begin));
      if (!other_view.ok()) return other_view.status();
      double sup = backend_->ranks().sup();
      double jaccard = JaccardSimilarity(u_view, other_view.value(), msg.d,
                                         backend_->k(), sup);
      double uni = UnionCardinality(u_view, other_view.value(), msg.d,
                                    backend_->k(), sup);
      response.values = {jaccard, uni};
      break;
    }
    case PointKind::kFetchSketch: {
      response.entries.assign(view.entries().begin(), view.entries().end());
      break;
    }
  }
  return EncodePointResponse(response);
}

namespace {

// Exact request equality — the dedup guard for reusing a computed entry.
// `d` compares with operator== (NaN never equals, so a NaN entry is
// simply recomputed; ±0.0 compare equal and yield identical responses since
// the payload never echoes d and every distance comparison treats them
// alike).
bool SamePointRequest(const PointRequestMsg& a, const PointRequestMsg& b) {
  return a.kind == b.kind && a.node == b.node && a.other == b.other &&
         a.d == b.d && a.targets == b.targets;
}

}  // namespace

void AdsServerCore::AnswerPoints(std::span<const PointRequestMsg> requests,
                                 std::span<const std::string> keys,
                                 std::span<PointBatchResponseEntry> out) {
  const bool use_cache = options_.point_cache_entries > 0;
  std::vector<size_t> misses;
  misses.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    // A hit bypasses backend and locks entirely (entry status stays Ok).
    if (use_cache && point_cache_.Get(keys[i], &out[i].payload)) continue;
    misses.push_back(i);
  }
  if (misses.empty()) return;
  // One pass in node order. stable_sort keeps equal-node entries in
  // request order; results land by original index either way, so the
  // reorder is invisible on the wire.
  if (misses.size() > 1) {
    std::stable_sort(misses.begin(), misses.end(),
                     [&requests](size_t a, size_t b) {
                       return requests[a].node < requests[b].node;
                     });
  }
  auto compute = [&] {
    // The node whose view, HIP weights and estimator the pass holds.
    std::optional<uint64_t> shared_node;
    StatusOr<AdsView> view = AdsView{};
    HipView hip;
    std::optional<HipEstimator> est;
    std::optional<size_t> prev;  // the entry computed last
    for (size_t i : misses) {
      const PointRequestMsg& entry = requests[i];
      // Identical entries are adjacent after the sort, and responses are
      // deterministic, so the previous result (payload or status) IS this
      // entry's result: one copy instead of a recomputed scan.
      if (prev.has_value() && SamePointRequest(entry, requests[*prev])) {
        out[i] = out[*prev];
        continue;
      }
      prev = i;
      auto local = LocalIdOf(entry.node);
      if (!local.ok()) {
        out[i].status = local.status();
        continue;
      }
      if (shared_node != entry.node) {
        est.reset();
        {
          ScopedTraceSpan span("server.backend_fetch");
          view = backend_->ViewOf(local.value());
        }
        hip = HipView{};
        if (view.ok()) {
          // A HipOf failure is served by the scan fallback instead of
          // erroring: precomputed weights are an optimization, never an
          // answer change.
          auto hip_or = backend_->HipOf(local.value());
          if (hip_or.ok()) hip = hip_or.value();
        }
        shared_node = entry.node;
      }
      if (!view.ok()) {
        out[i].status = view.status();
        continue;
      }
      auto result = ComputePointWithView(entry, view.value(), hip, &est);
      if (result.ok()) {
        out[i].payload = std::move(result).value();
      } else {
        out[i].status = result.status();
      }
      // A Jaccard entry's second fetch may evict the shard backing `view`
      // (bounded residency), so the share ends with it.
      if (entry.kind == PointKind::kJaccard) shared_node.reset();
    }
  };
  if (lock_free_) {
    compute();
  } else if (active_sweeps_.load() > 0) {
    // A sweep owns the serialized backend for what may be minutes.
    // Queueing a microsecond lookup behind it inverts every latency goal —
    // shed instead and let the caller's retry budget absorb it.
    Metrics().shed_busy->Add(misses.size());
    for (size_t i : misses) {
      out[i].status = Status::Unavailable(
          "backend busy with a sweep; point lookup shed, retry");
    }
  } else {
    MutexLock lock(mu_);  // once for the whole pass
    compute();
  }
  if (use_cache) {
    for (size_t i : misses) {
      if (out[i].status.ok()) point_cache_.Put(keys[i], out[i].payload);
    }
  }
}

StatusOr<std::string> AdsServerCore::AnswerPointBatch(
    const PointBatchRequestMsg& msg, const Deadline&) {
  const size_t n = msg.entries.size();
  Metrics().batch_entries->Record(n);
  // Per-entry cache keys are the canonical single-request bytes: a batch
  // reads and fills exactly the cache lone kPointRequests use, so either
  // shape warms the other. With the cache disabled the keys are never
  // consulted, so skip the per-entry re-encode entirely.
  std::vector<std::string> keys;
  if (options_.point_cache_entries > 0) {
    keys.reserve(n);
    for (const PointRequestMsg& entry : msg.entries) {
      keys.push_back(EncodePointRequest(entry));
    }
  }
  PointBatchResponseMsg response;
  response.entries.resize(n);
  AnswerPoints(msg.entries, keys, response.entries);
  return EncodePointBatchResponse(response);
}

StatusOr<std::string> AdsServerCore::AnswerSweep(const SweepRequestMsg& msg,
                                                 const Deadline& deadline) {
  // Sweep results depend only on the spec (thread counts are bitwise
  // neutral), so the canonical spec encoding keys the response cache.
  const std::string cache_key = SweepSpecCacheKey(msg.collectors);
  std::string cached;
  if (options_.sweep_cache_entries > 0 && sweep_cache_.Get(cache_key, &cached)) {
    return cached;
  }
  SweepPlan plan;
  auto collectors = BuildPlanFromSpec(msg.collectors, &plan);
  if (!collectors.ok()) return collectors.status();
  // The thread count is wire-controlled: clamp it to this host's hardware
  // (invisible to the client, whose answer never depends on it).
  const uint32_t threads = ClampThreads(
      msg.num_threads != 0 ? msg.num_threads : options_.num_threads);
  // Between node ranges the sweep polls its request's deadline: once it
  // passes, the remaining compute would produce an answer nobody awaits.
  std::function<Status()> checkpoint;
  if (deadline.has_deadline()) {
    checkpoint = [deadline] {
      return deadline.Expired()
                 ? Status::DeadlineExceeded(
                       "sweep aborted: request deadline expired")
                 : Status::Ok();
    };
  }
  Status swept;
  if (lock_free_) {
    swept = RunSweep(*backend_, plan, threads, checkpoint);
  } else {
    ++active_sweeps_;
    Metrics().active_sweeps->Add(1);
    {
      MutexLock lock(mu_);
      swept = RunSweep(*backend_, plan, threads, checkpoint);
    }
    Metrics().active_sweeps->Add(-1);
    --active_sweeps_;
  }
  if (!swept.ok()) return swept;

  SweepResponseMsg response;
  response.begin = options_.node_begin;
  response.end = options_.node_begin + backend_->num_nodes();
  response.partials.resize(collectors.value().size());
  for (size_t i = 0; i < collectors.value().size(); ++i) {
    // Collectors here are locally indexed: slice their whole [0, n).
    Status s = collectors.value()[i]->EncodePartial(
        0, static_cast<NodeId>(backend_->num_nodes()),
        &response.partials[i]);
    if (!s.ok()) return s;
  }
  std::string encoded = EncodeSweepResponse(response);
  if (options_.sweep_cache_entries > 0) {
    sweep_cache_.Put(cache_key, encoded);
  }
  return encoded;
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::TcpServer(FrameHandler* handler, const TcpServerOptions& options)
    : handler_(handler), options_(options) {
  stop_pipe_[0] = stop_pipe_[1] = -1;
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("server already started");
  if (::pipe(stop_pipe_) != 0) {
    return Status::IOError("pipe failed: " + std::string(std::strerror(errno)));
  }
  auto fail = [this](const std::string& what, int fd) {
    Status s = Status::IOError(what + " failed: " +
                               std::string(std::strerror(errno)));
    if (fd >= 0) ::close(fd);
    ::close(stop_pipe_[0]);
    ::close(stop_pipe_[1]);
    stop_pipe_[0] = stop_pipe_[1] = -1;
    return s;
  };
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket", -1);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind", fd);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname", fd);
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 128) != 0) {
    return fail("listen", fd);
  }
  // Non-blocking listener: workers are woken by poll, so a connection
  // grabbed by a sibling worker yields EAGAIN instead of blocking forever.
  int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  listen_fd_ = fd;
  uint32_t workers = options_.num_workers == 0 ? 1 : options_.num_workers;
  workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void TcpServer::Stop() {
  if (listen_fd_ < 0) return;
  // Wake every worker out of poll; they observe the stop pipe and exit.
  char byte = 's';
  [[maybe_unused]] ssize_t ignored = ::write(stop_pipe_[1], &byte, 1);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
}

void TcpServer::WorkerLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;  // a sibling worker won the race
      }
      return;
    }
    Metrics().tcp_accepted->Add();
    // Non-blocking connection fd: reads poll first, and response writes
    // can be bounded by the mid-frame deadline instead of parking in the
    // kernel against a stalled peer.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ServeConnection(fd);
    ::close(fd);
  }
}

bool TcpServer::WaitReadable(int fd, const Deadline& deadline) {
  // Blocks until `fd` has data (or EOF) — or until Stop signals or the
  // deadline passes, so a worker parked on an idle connection never
  // wedges shutdown and a mid-frame stall costs bounded time.
  for (;;) {
    int timeout = -1;
    if (deadline.has_deadline()) {
      uint64_t remaining = deadline.RemainingMs();
      if (remaining == 0) return false;  // stalled mid-frame: drop it
      timeout = remaining > static_cast<uint64_t>(
                                std::numeric_limits<int>::max())
                    ? std::numeric_limits<int>::max()
                    : static_cast<int>(remaining);
    }
    pollfd fds[2];
    fds[0] = {fd, POLLIN, 0};
    fds[1] = {stop_pipe_[0], POLLIN, 0};
    int rc = ::poll(fds, 2, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) continue;  // timeout: loop re-checks the deadline
    if (fds[1].revents != 0) return false;  // stop requested
    if (fds[0].revents != 0) return true;   // readable (or hup -> read 0)
  }
}

void TcpServer::ServeConnection(int fd) {
  // Frame-by-frame pump. A handler-reported framing loss, any socket
  // error, or a mid-frame stall past idle_timeout_ms ends the connection;
  // the next client simply reconnects.
  //
  // Returns 1 when exactly n bytes were read, 0 on clean EOF at a frame
  // boundary (nothing read yet), -1 on error / stop / deadline. Arms the
  // per-frame deadline when the frame's first byte arrives.
  auto read_exact = [&](char* buf, size_t n, Deadline* frame_deadline,
                        bool at_frame_start) -> int {
    size_t done = 0;
    while (done < n) {
      if (!WaitReadable(fd, *frame_deadline)) return -1;
      ssize_t got = ::read(fd, buf + done, n - done);
      if (got == 0) return (at_frame_start && done == 0) ? 0 : -1;
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return -1;
      }
      if (at_frame_start && done == 0 && options_.idle_timeout_ms > 0) {
        *frame_deadline = Deadline::AfterMs(options_.idle_timeout_ms);
      }
      done += static_cast<size_t>(got);
    }
    return 1;
  };

  for (;;) {
    // The whole frame lands in one buffer: header first, then (once the
    // header validates) the payload appended after it.
    std::string request(kFrameHeaderBytes, '\0');
    Deadline frame_deadline;  // armed once the frame's first byte arrives
    int rc = read_exact(request.data(), kFrameHeaderBytes, &frame_deadline,
                        /*at_frame_start=*/true);
    if (rc <= 0) return;  // clean EOF between frames, or failure

    FrameHeader header;
    if (DecodeFrameHeaderPrefix(request.data(), kFrameHeaderBytes, &header)
            .ok()) {
      // Header is sane: the payload length can be trusted enough to read.
      request.resize(kFrameHeaderBytes + header.payload_bytes);
      if (header.payload_bytes > 0 &&
          read_exact(request.data() + kFrameHeaderBytes, header.payload_bytes,
                     &frame_deadline, /*at_frame_start=*/false) != 1) {
        return;
      }
    }
    // A bad header goes to the handler as-is, so the client gets the
    // precise rejection before the connection closes (framing is lost).
    bool close_connection = false;
    std::string response = handler_->HandleFrame(request, &close_connection);
    Deadline write_deadline = options_.idle_timeout_ms > 0
                                  ? Deadline::AfterMs(options_.idle_timeout_ms)
                                  : Deadline();
    if (!WriteAllBytes(fd, response.data(), response.size(), write_deadline)
             .ok()) {
      return;
    }
    if (close_connection) return;
  }
}

}  // namespace hipads
