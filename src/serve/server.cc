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
#include "util/hash.h"
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
  // The payload stays a view into the request bytes: decoders read it in
  // place, and point entries forward and key caches as those bytes.
  FrameHeader header;
  std::string_view payload;
  Status decoded = DecodeFrameView(request, &header, &payload);
  if (!decoded.ok()) {
    // Undecodable bytes: answer with the reason, then drop the stream —
    // after a framing failure there is no trustworthy record boundary.
    *close_connection = true;
    undecodable_->Add();
    std::string err = EncodeFrame(MessageType::kError, EncodeError(decoded));
    bytes_out_->Add(err.size());
    return err;
  }
  // The request's trace id is echoed back and installed for the handling
  // thread, so the instrumented sections below Dispatch (and every
  // downstream hop a router makes) record spans against it.
  const uint64_t trace_hi = header.trace_hi;
  const uint64_t trace_lo = header.trace_lo;
  ScopedTraceContext trace_context(trace_hi, trace_lo);
  const RequestKind kind = RequestKindOf(header.type);
  requests_[kind]->Add();
  Deadline deadline = Deadline::FromWireMs(header.deadline_ms);
  StatusOr<Frame> response = [&] {
    ScopedLatencyTimer timer(latency_us_[kind]);
    ScopedTraceSpan span(dispatch_span_.c_str());
    return Dispatch(header.type, payload, deadline);
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

StatusOr<Frame> ServingCore::Dispatch(MessageType type,
                                      std::string_view payload,
                                      const Deadline& deadline) {
  if (deadline.Expired()) {
    // Nobody is waiting for this answer anymore: shed before any compute.
    shed_deadline_->Add();
    return Status::DeadlineExceeded("request deadline expired; shed");
  }
  // The answer to a decoded request, as a frame of `type`.
  auto respond = [](MessageType response_type,
                    StatusOr<std::string> answer) -> StatusOr<Frame> {
    if (!answer.ok()) return answer.status();
    return Frame{response_type, std::move(answer).value()};
  };
  switch (type) {
    case MessageType::kInfoRequest:
      if (!payload.empty()) {
        return Status::Corruption("info request carries a payload");
      }
      return Frame{MessageType::kInfoResponse, AnswerInfo()};
    case MessageType::kPointRequest: {
      auto msg = DecodePointRequest(payload);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kPointResponse,
                     AnswerPoint(msg.value(), payload, deadline));
    }
    case MessageType::kPointBatchRequest: {
      std::vector<std::string_view> raw;
      auto msg = DecodePointBatchRequest(payload, &raw);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kPointBatchResponse,
                     AnswerPointBatch(msg.value(), raw, deadline));
    }
    case MessageType::kSweepRequest: {
      auto msg = DecodeSweepRequest(payload);
      if (!msg.ok()) return msg.status();
      return respond(MessageType::kSweepResponse,
                     AnswerSweep(msg.value(), deadline));
    }
    case MessageType::kStatsRequest: {
      auto msg = DecodeStatsRequest(payload);
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
      // Slot indices are 32-bit, and home positions come from 32 hash
      // bits; no cache could fill 2^31 slots anyway.
      capacity_(std::min<size_t>(capacity, size_t{1} << 30)) {}

uint64_t ResponseCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

void ResponseCache::CountLookups(size_t hits, size_t misses) {
  if (hits > 0) hit_counter_->Add(hits);
  if (misses > 0) miss_counter_->Add(misses);
}

bool ResponseCache::Get(std::string_view key, std::string* value) {
  bool hit = false;
  GetEach({&key, 1}, [&](size_t, std::string_view cached) {
    value->assign(cached);
    hit = true;
  });
  return hit;
}

void ResponseCache::Put(std::string_view key, std::string_view value) {
  PutEach(1, [&](size_t) { return std::make_pair(key, value); });
}

namespace {

// An index entry: the hash's low 32 bits (which also give a key's home
// position, the index being smaller than 2^32) over slot + 1.
uint64_t IndexEntry(uint64_t hash, uint32_t s) {
  return (hash << 32) | (uint64_t{s} + 1);
}
uint32_t SlotOf(uint64_t entry) { return static_cast<uint32_t>(entry) - 1; }
uint64_t HashBitsOf(uint64_t entry) { return entry >> 32; }

}  // namespace

size_t ResponseCache::ProbeLocked(std::string_view key, uint64_t hash) const {
  const size_t mask = index_.size() - 1;
  const uint64_t bits = hash & 0xffffffffu;
  for (size_t at = hash & mask;; at = (at + 1) & mask) {
    const uint64_t entry = index_[at];
    if (entry == 0) return at;
    if (HashBitsOf(entry) != bits) continue;
    const Slot& slot = slots_[SlotOf(entry)];
    if (slot.hash == hash && slot.key == key) return at;
  }
}

size_t ResponseCache::PositionLocked(uint32_t s) const {
  const size_t mask = index_.size() - 1;
  size_t at = slots_[s].hash & mask;
  while (SlotOf(index_[at]) != s) at = (at + 1) & mask;
  return at;
}

const ResponseCache::Slot* ResponseCache::FindLocked(std::string_view key) {
  if (slots_.empty()) return nullptr;
  const uint64_t entry =
      index_[ProbeLocked(key, Xxh64(key.data(), key.size(), 0))];
  if (entry == 0) return nullptr;
  const uint32_t s = SlotOf(entry);
  if (newest_ != s) {
    UnlinkLocked(s);
    LinkFrontLocked(s);
  }
  return &slots_[s];
}

void ResponseCache::PutLocked(std::string_view key, std::string_view value) {
  const uint64_t hash = Xxh64(key.data(), key.size(), 0);
  if (slots_.size() < capacity_ && 2 * (slots_.size() + 1) > index_.size()) {
    RehashLocked(std::max<size_t>(16, 2 * index_.size()));
  }
  size_t at = ProbeLocked(key, hash);
  if (index_[at] != 0) {  // a cached key: replace its response
    const uint32_t s = SlotOf(index_[at]);
    slots_[s].value.assign(value);
    if (newest_ != s) {
      UnlinkLocked(s);
      LinkFrontLocked(s);
    }
    return;
  }
  uint32_t s;
  if (slots_.size() < capacity_) {
    s = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    // Full: the least recently used slot leaves the index and takes the
    // new key, strings reused in place.
    s = oldest_;
    EraseIndexLocked(PositionLocked(s));
    UnlinkLocked(s);
    at = ProbeLocked(key, hash);  // the erase may have shifted the probe
  }
  Slot& slot = slots_[s];
  slot.key.assign(key);
  slot.value.assign(value);
  slot.hash = hash;
  index_[at] = IndexEntry(hash, s);
  LinkFrontLocked(s);
}

void ResponseCache::UnlinkLocked(uint32_t s) {
  Slot& slot = slots_[s];
  (slot.newer == kNone ? newest_ : slots_[slot.newer].older) = slot.older;
  (slot.older == kNone ? oldest_ : slots_[slot.older].newer) = slot.newer;
  slot.newer = slot.older = kNone;
}

void ResponseCache::LinkFrontLocked(uint32_t s) {
  Slot& slot = slots_[s];
  slot.newer = kNone;
  slot.older = newest_;
  (newest_ == kNone ? oldest_ : slots_[newest_].newer) = s;
  newest_ = s;
}

void ResponseCache::EraseIndexLocked(size_t at) {
  const size_t mask = index_.size() - 1;
  index_[at] = 0;
  for (size_t next = (at + 1) & mask; index_[next] != 0;
       next = (next + 1) & mask) {
    // The entry at `next` stays unless the hole lies on its probe path:
    // between its home position and `next`, cyclically.
    const size_t home = HashBitsOf(index_[next]) & mask;
    const bool stays = at <= next ? (at < home && home <= next)
                                  : (at < home || home <= next);
    if (stays) continue;
    index_[at] = index_[next];
    index_[next] = 0;
    at = next;
  }
}

void ResponseCache::RehashLocked(size_t size) {
  index_.assign(size, 0);
  const size_t mask = size - 1;
  for (uint32_t s = 0; s < slots_.size(); ++s) {
    size_t at = slots_[s].hash & mask;
    while (index_[at] != 0) at = (at + 1) & mask;
    index_[at] = IndexEntry(slots_[s].hash, s);
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
                                                 std::string_view payload,
                                                 const Deadline&) {
  // A lone point is a batch of one. Its payload is a canonical encoding
  // of the question, so it is the cache key as it stands, and its answer
  // is the whole answer buffer.
  PointAnswer answer;
  std::string bytes;
  AnswerPoints({&msg, 1}, {&payload, 1}, {&answer, 1}, &bytes);
  if (!answer.status.ok()) return answer.status;
  return bytes;
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

Status AdsServerCore::AppendPointAnswer(const PointRequestMsg& msg,
                                        const AdsView& view,
                                        const HipView& hip,
                                        std::optional<HipEstimator>* est,
                                        std::string* out) const {
  uint64_t begin = options_.node_begin;
  uint64_t end = begin + backend_->num_nodes();
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
        // Reachable count, harmonic centrality and distance sum from one
        // walk. Each sum adds its own terms from 0.0 in entry order, so
        // each is the same bits as its standalone walk.
        static const HipSum kSums[] = {HipSum::Reachable(),
                                       HipSum::Harmonic(),
                                       HipSum::DistanceSum()};
        HipSumState state[std::size(kSums)];
        (*est)->WalkSums(kSums, state,
                         [](double, std::span<const double>,
                            std::span<const double>) { return false; });
        const double values[] = {state[0].value, state[1].value,
                                 state[2].value};
        AppendPointResponse(values, {}, out);
      } else {
        const double value = (*est)->NeighborhoodCardinality(msg.d);
        AppendPointResponse({&value, 1}, {}, out);
      }
      return Status::Ok();
    }
    case PointKind::kLookup: {
      // Entry target ids are global, so lookups need no translation.
      AdsNodeIndex index(view);
      std::vector<double> distances;
      distances.reserve(msg.targets.size());
      for (uint64_t target : msg.targets) {
        distances.push_back(
            target > std::numeric_limits<NodeId>::max()
                ? -1.0
                : index.DistanceOf(static_cast<NodeId>(target)));
      }
      AppendPointResponse(distances, {}, out);
      return Status::Ok();
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
      const double values[] = {
          JaccardSimilarity(u_view, other_view.value(), msg.d, backend_->k(),
                            sup),
          UnionCardinality(u_view, other_view.value(), msg.d, backend_->k(),
                           sup)};
      AppendPointResponse(values, {}, out);
      return Status::Ok();
    }
    case PointKind::kFetchSketch:
      AppendPointResponse({}, view.entries(), out);
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown point request kind");
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
                                 std::span<const std::string_view> keys,
                                 std::span<PointAnswer> out,
                                 std::string* bytes) {
  const bool use_cache = options_.point_cache_entries > 0;
  std::vector<size_t> misses;
  misses.reserve(requests.size());
  if (use_cache) {
    // Hits come back in request order: every index skipped between two
    // hits is a miss. A hit bypasses backend and locks entirely (its
    // status stays Ok).
    size_t next = 0;
    point_cache_.GetEach(keys, [&](size_t i, std::string_view cached) {
      for (; next < i; ++next) misses.push_back(next);
      ++next;
      out[i].begin = bytes->size();
      out[i].size = cached.size();
      bytes->append(cached);
    });
    for (; next < requests.size(); ++next) misses.push_back(next);
  } else {
    for (size_t i = 0; i < requests.size(); ++i) misses.push_back(i);
  }
  if (misses.empty()) return;
  // One pass in node order, equal-node entries in request order; results
  // land by original index either way, so the reorder is invisible on the
  // wire.
  if (misses.size() > 1) {
    std::sort(misses.begin(), misses.end(), [&requests](size_t a, size_t b) {
      return requests[a].node != requests[b].node
                 ? requests[a].node < requests[b].node
                 : a < b;
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
      // deterministic, so the previous answer (bytes or status) IS this
      // entry's answer: shared, not recomputed.
      if (prev.has_value() && SamePointRequest(entry, requests[*prev])) {
        out[i].begin = out[*prev].begin;
        out[i].size = out[*prev].size;
        if (!out[*prev].status.ok()) out[i].status = out[*prev].status;
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
      out[i].begin = bytes->size();
      Status answered =
          AppendPointAnswer(entry, view.value(), hip, &est, bytes);
      if (!answered.ok()) out[i].status = std::move(answered);
      out[i].size = bytes->size() - out[i].begin;
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
    // Fill in the pass's order, as Puts one miss at a time would.
    std::erase_if(misses, [&out](size_t i) { return !out[i].status.ok(); });
    const std::string_view answers = *bytes;
    point_cache_.PutEach(misses.size(), [&](size_t j) {
      const PointAnswer& answer = out[misses[j]];
      return std::make_pair(keys[misses[j]],
                            answers.substr(answer.begin, answer.size));
    });
  }
}

StatusOr<std::string> AdsServerCore::AnswerPointBatch(
    const PointBatchRequestMsg& msg, std::span<const std::string_view> raw,
    const Deadline&) {
  const size_t n = msg.entries.size();
  Metrics().batch_entries->Record(n);
  // Per-entry cache keys are the entries' own bytes, the canonical
  // single-request encodings: a batch reads and fills exactly the cache
  // lone kPointRequests use, so either shape warms the other.
  std::vector<PointAnswer> answers(n);
  std::string bytes;
  AnswerPoints(msg.entries, raw, answers, &bytes);
  PointBatchResponseMsg response;
  response.entries.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!answers[i].status.ok()) {
      response.entries[i].status = std::move(answers[i].status);
    }
    response.entries[i].payload =
        std::string_view(bytes).substr(answers[i].begin, answers[i].size);
  }
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
  if (options_.num_workers > kMaxTcpWorkers) {
    return Status::InvalidArgument(
        "worker count " + std::to_string(options_.num_workers) +
        " exceeds the bound of " + std::to_string(kMaxTcpWorkers));
  }
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
    // A frame's first bytes are waited for. The rest of it has usually
    // arrived with them, so a payload read goes first and waits only once
    // a read comes up short.
    bool wait = at_frame_start;
    while (done < n) {
      if (wait && !WaitReadable(fd, *frame_deadline)) return -1;
      ssize_t got = ::read(fd, buf + done, n - done);
      if (got == 0) return (at_frame_start && done == 0) ? 0 : -1;
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) wait = true;
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        return -1;
      }
      if (at_frame_start && done == 0 && options_.idle_timeout_ms > 0) {
        *frame_deadline = Deadline::AfterMs(options_.idle_timeout_ms);
      }
      done += static_cast<size_t>(got);
      wait = true;
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
      // Header is sane: read the payload it announces, allocating only as
      // its bytes arrive.
      if (!ReadPayload(&request, header.payload_bytes,
                       [&](char* dst, size_t len) {
                         return read_exact(dst, len, &frame_deadline,
                                           /*at_frame_start=*/false) == 1;
                       })) {
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
