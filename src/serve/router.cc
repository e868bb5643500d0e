#include "serve/router.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "ads/similarity.h"
#include "serve/trace.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/mutex.h"

namespace hipads {

namespace {

// A coalesced batch flushes once it holds this many entries, before its
// window ends.
constexpr size_t kCoalesceMaxBatch = 64;
static_assert(kCoalesceMaxBatch <= kMaxPointBatchEntries);

// Instrument pointers resolved once (the registry lookup takes a mutex);
// per-server error counters are looked up on the failure path, where the
// lookup cost is noise.
struct RouterMetrics {
  MetricCounter* scatter_fanout;
  MetricCounter* retries;
  MetricCounter* hedge_fired;
  MetricCounter* hedge_won;
  MetricHistogram* coalesce_batch_fill;
  MetricHistogram* coalesce_flush_wait_us;
};

RouterMetrics& Metrics() {
  static RouterMetrics* m = [] {
    auto* mm = new RouterMetrics();
    MetricsRegistry& reg = MetricsRegistry::Get();
    mm->scatter_fanout = reg.Counter("router.scatter.fanout");
    mm->retries = reg.Counter("router.retries");
    mm->hedge_fired = reg.Counter("router.hedge.fired");
    mm->hedge_won = reg.Counter("router.hedge.won");
    mm->coalesce_batch_fill = reg.Histogram("router.coalesce.batch_fill");
    mm->coalesce_flush_wait_us =
        reg.Histogram("router.coalesce.flush_wait_us");
    return mm;
  }();
  return *m;
}

void CountServerError(const std::string& address) {
  MetricsRegistry::Get().Counter("router.server_errors." + address)->Add();
}

// Encodes a downstream request frame carrying the handling thread's trace
// id (zero when untraced) — the hop that propagates a traced request's id
// across the fleet.
std::string EncodeDownstreamFrame(MessageType type, const std::string& payload,
                                  const Deadline& deadline) {
  const TraceId trace = CurrentTraceId();
  return EncodeFrame(type, payload, deadline.ToWireMs(), trace.hi, trace.lo);
}

// Backoff jitter uses the deterministic Mix64 mixer (util/hash.h): same
// seed, server and attempt always back off the same amount, so fault
// tests are reproducible, while distinct servers/attempts decorrelate.

// Transport-shaped failures worth retrying: dead/broken connections and
// explicit shed responses. Semantic errors (bad request, missing node)
// and expired deadlines are final.
bool Retryable(const Status& s) {
  return s.code() == Status::Code::kIOError ||
         s.code() == Status::Code::kUnavailable;
}

// Rebuilds `s` with a new message, preserving the code for the codes the
// retry policy keys on (Status constructors are factory-only).
Status WithMessage(const Status& s, std::string msg) {
  switch (s.code()) {
    case Status::Code::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(msg));
    case Status::Code::kUnavailable:
      return Status::Unavailable(std::move(msg));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(msg));
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(msg));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    default:
      return Status::IOError(std::move(msg));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fleet manifest
// ---------------------------------------------------------------------------

std::string SerializeFleetManifest(const FleetManifest& manifest) {
  std::ostringstream os;
  os << kFleetManifestMagic << '\n';
  os << "nodes " << manifest.num_nodes << '\n';
  for (const FleetEntry& e : manifest.servers) {
    os << "server " << e.begin << ' ' << e.end << ' ' << e.address << '\n';
  }
  return os.str();
}

StatusOr<FleetManifest> ParseFleetManifest(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kFleetManifestMagic) {
    return Status::Corruption("missing hipads-fleet-v1 manifest header");
  }
  FleetManifest manifest;
  bool saw_nodes = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "nodes") {
      if (saw_nodes) {
        return Status::Corruption("duplicate nodes line in fleet manifest");
      }
      if (!(fields >> manifest.num_nodes)) {
        return Status::Corruption("bad nodes line in fleet manifest");
      }
      saw_nodes = true;
    } else if (keyword == "server") {
      FleetEntry e;
      if (!(fields >> e.begin >> e.end >> e.address)) {
        return Status::Corruption("bad server line in fleet manifest: " +
                                  line);
      }
      std::string extra;
      if (fields >> extra) {
        return Status::Corruption("trailing fields on server line: " + line);
      }
      manifest.servers.push_back(std::move(e));
    } else {
      return Status::Corruption("unknown fleet manifest line: " + line);
    }
  }
  if (!saw_nodes) {
    return Status::Corruption("fleet manifest missing nodes line");
  }
  Status s = ValidateFleetManifest(manifest);
  if (!s.ok()) return s;
  return manifest;
}

StatusOr<FleetManifest> ReadFleetManifestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open fleet manifest " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseFleetManifest(buffer.str());
}

Status ValidateFleetManifest(const FleetManifest& manifest) {
  if (manifest.servers.empty()) {
    return Status::InvalidArgument("fleet manifest lists no servers");
  }
  // A root fleet starts at 0; a sub-fleet (an inner tier of a stacked
  // router tree) may start at any B — either way the ranges must be
  // sorted, non-empty, contiguous, and end exactly at `nodes`.
  NodeId expected = manifest.servers.front().begin;
  for (const FleetEntry& e : manifest.servers) {
    if (e.begin != expected || e.end <= e.begin) {
      return Status::InvalidArgument(
          "fleet ranges must be sorted, non-empty and contiguous: "
          "server " + e.address + " covers [" + std::to_string(e.begin) +
          ", " + std::to_string(e.end) + ") but [" +
          std::to_string(expected) + ", ...) was expected");
    }
    expected = e.end;
  }
  if (expected != manifest.num_nodes) {
    return Status::InvalidArgument(
        "fleet ranges end at " + std::to_string(expected) +
        " but the manifest declares " + std::to_string(manifest.num_nodes) +
        " nodes");
  }
  return Status::Ok();
}

ChannelFactory TcpChannelFactory() {
  return TcpChannelFactory(TcpChannelOptions{});
}

ChannelFactory TcpChannelFactory(const TcpChannelOptions& options) {
  return [options](const std::string& address)
             -> StatusOr<std::unique_ptr<Channel>> {
    auto channel = TcpChannel::ConnectAddress(address, options);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<Channel>(std::move(channel).value());
  };
}

// ---------------------------------------------------------------------------
// FleetRouter
// ---------------------------------------------------------------------------

StatusOr<FleetRouter> FleetRouter::Connect(FleetManifest manifest,
                                           const ChannelFactory& factory,
                                           const RouterOptions& options) {
  Status s = ValidateFleetManifest(manifest);
  if (!s.ok()) return s;
  FleetRouter router;
  router.manifest_ = std::move(manifest);
  router.factory_ = factory;
  router.options_ = options;
  if (router.options_.coalesce_window_us == 0) {
    // CI's tsan lane (and operators chasing tail latency) force the
    // coalescing path on without recompiling anything.
    const char* env = std::getenv("HIPADS_COALESCE_WINDOW_US");
    if (env != nullptr && *env != '\0') {
      char* end = nullptr;
      errno = 0;
      router.options_.coalesce_window_us = std::strtoull(env, &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(env[0])) || *end != '\0' ||
          errno == ERANGE) {
        return Status::InvalidArgument(
            "HIPADS_COALESCE_WINDOW_US must be a decimal integer, got '" +
            std::string(env) + "'");
      }
    }
  }
  if (router.options_.coalesce_window_us > kMaxCoalesceWindowUs) {
    return Status::InvalidArgument(
        "coalescing window of " +
        std::to_string(router.options_.coalesce_window_us) +
        " us exceeds the bound of " + std::to_string(kMaxCoalesceWindowUs) +
        " us");
  }
  router.slots_.reserve(router.manifest_.servers.size());
  router.batchers_.reserve(router.manifest_.servers.size());
  Deadline handshake_deadline = router.EffectiveDeadline(Deadline());
  for (size_t i = 0; i < router.manifest_.servers.size(); ++i) {
    const FleetEntry& entry = router.manifest_.servers[i];
    auto channel = factory(entry.address);
    if (!channel.ok()) {
      return Status::IOError("fleet server " + entry.address +
                             " is unreachable: " +
                             channel.status().ToString());
    }
    auto slot = std::make_unique<ServerSlot>();
    // slot->channel is guarded by slot->mu. Connect used to write it bare
    // — benign only while nothing serves during construction, a latent
    // race once fleets reconnect concurrently (and a -Wthread-safety
    // error either way). Hold the lock for the install + handshake.
    std::shared_ptr<Channel> handshake_channel;
    {
      MutexLock lock(slot->mu);
      slot->channel = std::shared_ptr<Channel>(std::move(channel).value());
      handshake_channel = slot->channel;
    }
    AdsClient client(handshake_channel.get(), handshake_deadline);
    auto info = client.Info();
    if (!info.ok()) {
      return Status::IOError("fleet server " + entry.address +
                             " failed the info handshake: " +
                             info.status().ToString());
    }
    const ServerInfoMsg& reported = info.value();
    if (reported.node_begin != entry.begin ||
        reported.node_end != entry.end) {
      return Status::InvalidArgument(
          "fleet server " + entry.address + " serves [" +
          std::to_string(reported.node_begin) + ", " +
          std::to_string(reported.node_end) +
          ") but the manifest assigns [" + std::to_string(entry.begin) +
          ", " + std::to_string(entry.end) + ")");
    }
    ServerInfoMsg& fleet = router.info_;
    if (i == 0) {
      fleet = reported;
      fleet.node_end = router.manifest_.num_nodes;
      fleet.total_entries = 0;
    } else if (reported.k != fleet.k || reported.flavor != fleet.flavor ||
               reported.rank_sup != fleet.rank_sup) {
      return Status::InvalidArgument(
          "fleet server " + entry.address +
          " disagrees on sketch parameters (k/flavor/rank sup)");
    }
    fleet.total_entries += reported.total_entries;
    router.slots_.push_back(std::move(slot));
    router.batchers_.push_back(std::make_unique<PointBatcher>());
  }
  return router;
}

Deadline FleetRouter::EffectiveDeadline(const Deadline& deadline) const {
  if (options_.timeout_ms == 0) return deadline;
  return Deadline::Min(deadline, Deadline::AfterMs(options_.timeout_ms));
}

StatusOr<std::shared_ptr<Channel>> FleetRouter::ChannelFor(size_t idx) {
  ServerSlot& slot = *slots_[idx];
  MutexLock lock(slot.mu);
  if (!slot.channel) {
    auto created = factory_(manifest_.servers[idx].address);
    if (!created.ok()) {
      return WithMessage(created.status(),
                         "cannot reconnect to fleet server " +
                             manifest_.servers[idx].address + ": " +
                             created.status().message());
    }
    slot.channel = std::shared_ptr<Channel>(std::move(created).value());
  }
  return slot.channel;
}

void FleetRouter::InvalidateChannel(size_t idx,
                                    const std::shared_ptr<Channel>& bad) {
  ServerSlot& slot = *slots_[idx];
  MutexLock lock(slot.mu);
  if (slot.channel == bad) slot.channel.reset();
}

StatusOr<Frame> FleetRouter::CallServer(size_t idx, MessageType type,
                                        const std::string& payload,
                                        MessageType expected_response,
                                        const Deadline& deadline) {
  const std::string& address = manifest_.servers[idx].address;
  Status last = Status::Unavailable("no attempt made");
  const uint32_t attempts = options_.retries + 1;
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      Metrics().retries->Add();
      // Jittered exponential backoff, never sleeping past the deadline.
      uint64_t shift = attempt - 1;
      uint64_t backoff = shift >= 63
                             ? options_.backoff_max_ms
                             : options_.backoff_base_ms << shift;
      if (backoff > options_.backoff_max_ms) backoff = options_.backoff_max_ms;
      uint64_t h = Mix64((idx * 0x100000001b3ull) ^ attempt);
      uint64_t sleep_ms = backoff / 2 + (backoff ? h % (backoff / 2 + 1) : 0);
      if (deadline.has_deadline() && deadline.RemainingMs() <= sleep_ms) {
        return Status::DeadlineExceeded(
            "fleet server " + address + ": deadline expired after " +
            std::to_string(attempt) + " attempt(s): " + last.message());
      }
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
    }
    if (deadline.Expired()) {
      return Status::DeadlineExceeded(
          "fleet server " + address + ": deadline expired after " +
          std::to_string(attempt) + " attempt(s): " + last.message());
    }
    auto channel = ChannelFor(idx);
    if (!channel.ok()) {
      CountServerError(address);
      last = channel.status();
      if (Retryable(last)) continue;
      return last;
    }
    Frame frame;
    Status s = channel.value()->Call(
        EncodeDownstreamFrame(type, payload, deadline), &frame, deadline);
    if (!s.ok()) {
      // The connection is suspect (half-written frame, dead socket):
      // drop it so the next attempt starts on a fresh one.
      InvalidateChannel(idx, channel.value());
      CountServerError(address);
      last = s;
      if (Retryable(s)) continue;
      return WithMessage(s, "fleet server " + address + ": " + s.message());
    }
    if (frame.type == MessageType::kError) {
      Status err = DecodeError(frame.payload);
      if (Retryable(err)) {  // e.g. a shed point lookup: retry after backoff
        CountServerError(address);
        last = err;
        continue;
      }
      return err;  // semantic errors pass through as the server sent them
    }
    if (frame.type != expected_response) {
      InvalidateChannel(idx, channel.value());
      CountServerError(address);
      return Status::Corruption("fleet server " + address +
                                ": unexpected response frame type");
    }
    return frame;
  }
  return WithMessage(last, "fleet server " + address + " failed after " +
                               std::to_string(attempts) +
                               " attempt(s): " + last.message());
}

StatusOr<Frame> FleetRouter::HedgeAttempt(size_t idx,
                                          const std::string& payload,
                                          const Deadline& deadline) {
  // Deliberately NOT the slot channel: the point of the hedge is to route
  // around whatever is wrong with the established connection.
  auto channel = factory_(manifest_.servers[idx].address);
  if (!channel.ok()) return channel.status();
  Frame frame;
  Status s = channel.value()->Call(
      EncodeDownstreamFrame(MessageType::kPointRequest, payload, deadline),
      &frame, deadline);
  if (!s.ok()) return s;
  if (frame.type == MessageType::kError) return DecodeError(frame.payload);
  if (frame.type != MessageType::kPointResponse) {
    return Status::Corruption("unexpected response frame type");
  }
  return frame;
}

std::vector<std::optional<PointBatchResponseEntry>>
FleetRouter::SendPointBatch(size_t idx,
                            const std::vector<std::string>& payloads,
                            const Deadline& deadline) {
  std::vector<std::optional<PointBatchResponseEntry>> answers(
      payloads.size());
  auto frame = CallServer(idx, MessageType::kPointBatchRequest,
                          EncodePointBatchRequestRaw(payloads),
                          MessageType::kPointBatchResponse, deadline);
  StatusOr<PointBatchResponseMsg> decoded =
      frame.ok() ? DecodePointBatchResponse(frame.value().payload)
                 : frame.status();
  if (!decoded.ok() || decoded.value().entries.size() != payloads.size()) {
    // Whole-batch failure (transport, protocol, count mismatch): every
    // entry re-sends alone — the batch was an optimization, never a
    // change to any caller's contract.
    return answers;
  }
  for (size_t i = 0; i < payloads.size(); ++i) {
    // A shed/retryable entry re-sends alone through the single-request
    // retry policy; semantic errors are final and byte-identical to the
    // unbatched answer.
    PointBatchResponseEntry& entry = decoded.value().entries[i];
    if (!Retryable(entry.status)) answers[i] = std::move(entry);
  }
  return answers;
}

void FleetRouter::ExecuteCoalescedBatch(
    size_t idx, const std::vector<PendingPoint*>& batch) {
  PointBatcher& batcher = *batchers_[idx];
  Metrics().coalesce_batch_fill->Record(batch.size());
  // A lone member (no follower showed up inside the window) re-sends
  // alone at once: exactly the plain single call, no batch frame on the
  // wire.
  std::vector<std::optional<PointBatchResponseEntry>> answers(batch.size());
  if (batch.size() > 1) {
    // The batch is bounded by the tightest member deadline; a member whose
    // own budget is looser re-sends alone if that tight bound fails the
    // whole frame.
    Deadline batch_deadline;
    std::vector<std::string> encoded;
    encoded.reserve(batch.size());
    for (const PendingPoint* p : batch) {
      batch_deadline = Deadline::Min(batch_deadline, p->deadline);
      encoded.push_back(*p->payload);
    }
    answers = SendPointBatch(idx, encoded, batch_deadline);
  }
  MutexLock lock(batcher.mu);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->answer = std::move(answers[i]);
    batch[i]->done = true;
  }
  batcher.cv.NotifyAll();
}

StatusOr<Frame> FleetRouter::CallPointCoalesced(size_t idx,
                                                const std::string& payload,
                                                const Deadline& deadline) {
  PointBatcher& batcher = *batchers_[idx];
  PendingPoint me;
  me.payload = &payload;
  me.deadline = deadline;
  bool leader = false;
  std::vector<PendingPoint*> batch;
  {
    MutexLock lock(batcher.mu);
    if (!batcher.leader_active) {
      batcher.leader_active = true;
      leader = true;
    }
    batcher.queue.push_back(&me);
    if (leader) {
      // Collect followers for the flush window — or until the batch is
      // full, whichever comes first. Connect bounded the window, so this
      // sum cannot overflow.
      auto flush_at =
          Deadline::Clock::now() +
          std::chrono::microseconds(options_.coalesce_window_us);
      {
        ScopedLatencyTimer wait_timer(Metrics().coalesce_flush_wait_us);
        while (batcher.queue.size() < kCoalesceMaxBatch) {
          if (batcher.cv.WaitUntil(batcher.mu, flush_at) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      batch = std::move(batcher.queue);
      batcher.queue.clear();
      // Release leadership at swap time: the next arrival starts a new
      // batch while this one is on the wire.
      batcher.leader_active = false;
    } else {
      if (batcher.queue.size() >= kCoalesceMaxBatch) batcher.cv.NotifyAll();
      // Safe to wait unboundedly: the leader always distributes — its
      // batch call is bounded by the members' minimum deadline, which
      // includes ours.
      while (!me.done) batcher.cv.Wait(batcher.mu);
    }
  }
  if (leader) ExecuteCoalescedBatch(idx, batch);
  std::optional<PointBatchResponseEntry> answer;
  {
    MutexLock lock(batcher.mu);  // me.answer was written under it
    answer = std::move(me.answer);
  }
  if (answer.has_value()) {
    if (!answer->status.ok()) return answer->status;
    return Frame{MessageType::kPointResponse, std::move(answer->payload)};
  }
  // Re-send alone: the caller's own single-request call, full retry
  // policy — semantics identical to never having coalesced.
  return CallServer(idx, MessageType::kPointRequest, payload,
                    MessageType::kPointResponse, deadline);
}

StatusOr<Frame> FleetRouter::CallPoint(size_t idx, const std::string& payload,
                                       const Deadline& deadline) {
  if (!options_.hedge) {
    if (options_.coalesce_window_us > 0) {
      return CallPointCoalesced(idx, payload, deadline);
    }
    return CallServer(idx, MessageType::kPointRequest, payload,
                      MessageType::kPointResponse, deadline);
  }
  // Hedged: the primary call (full retry policy) races a delayed fresh-
  // connection attempt. Both compute identical bytes, so whichever
  // succeeds is THE answer; the loser is joined (its cost is bounded by
  // the deadline) and discarded.
  Mutex mu;
  CondVar cv;
  bool primary_done = false;
  StatusOr<Frame> primary_result = Status::Unavailable("pending");
  std::thread primary([&] {
    auto result = CallServer(idx, MessageType::kPointRequest, payload,
                             MessageType::kPointResponse, deadline);
    MutexLock lock(mu);
    primary_result = std::move(result);
    primary_done = true;
    cv.NotifyAll();
  });
  bool fire_hedge = false;
  {
    auto hedge_at = Deadline::AfterMs(options_.hedge_delay_ms).at();
    MutexLock lock(mu);
    while (!primary_done) {
      if (cv.WaitUntil(mu, hedge_at) == std::cv_status::timeout) break;
    }
    fire_hedge = !primary_done;
  }
  StatusOr<Frame> hedge_result = Status::Unavailable("hedge not fired");
  if (fire_hedge) {
    Metrics().hedge_fired->Add();
    hedge_result = HedgeAttempt(idx, payload, deadline);
  }
  primary.join();
  if (hedge_result.ok()) {
    Metrics().hedge_won->Add();
    return hedge_result;
  }
  if (primary_result.ok()) return primary_result;
  return primary_result;  // primary error: it carries the server's address
}

StatusOr<size_t> FleetRouter::OwnerOf(uint64_t v) const {
  if (v < node_begin() || v >= manifest_.num_nodes) {
    return Status::NotFound("node " + std::to_string(v) +
                            " outside the served range [" +
                            std::to_string(node_begin()) + ", " +
                            std::to_string(manifest_.num_nodes) + ")");
  }
  // Ranges are sorted and tile [0, N): binary search by begin.
  size_t lo = 0, hi = manifest_.servers.size();
  while (hi - lo > 1) {
    size_t mid = (lo + hi) / 2;
    if (manifest_.servers[mid].begin <= v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

StatusOr<std::vector<AdsEntry>> FleetRouter::FetchSketch(
    uint64_t node, const Deadline& deadline) {
  auto owner = OwnerOf(node);
  if (!owner.ok()) return owner.status();
  PointRequestMsg fetch;
  fetch.kind = PointKind::kFetchSketch;
  fetch.node = node;
  auto frame = CallPoint(owner.value(), EncodePointRequest(fetch), deadline);
  if (!frame.ok()) return frame.status();
  auto response = DecodePointResponse(frame.value().payload);
  if (!response.ok()) return response.status();
  return std::move(response).value().entries;
}

StatusOr<PointResponseMsg> FleetRouter::Point(const PointRequestMsg& request,
                                              const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  auto owner = OwnerOf(request.node);
  if (!owner.ok()) return owner.status();
  if (request.kind == PointKind::kJaccard) {
    auto other_owner = OwnerOf(request.other);
    if (!other_owner.ok()) return other_owner.status();
    if (other_owner.value() != owner.value()) {
      // The pair spans two servers: fetch both raw sketches and run the
      // same similarity estimator the servers run, router-side. Same
      // inputs, same function — same result to the last bit.
      auto u = FetchSketch(request.node, deadline);
      if (!u.ok()) return u.status();
      auto v = FetchSketch(request.other, deadline);
      if (!v.ok()) return v.status();
      AdsView u_view{std::span<const AdsEntry>(u.value())};
      AdsView v_view{std::span<const AdsEntry>(v.value())};
      PointResponseMsg response;
      response.values = {JaccardSimilarity(u_view, v_view, request.d,
                                           info_.k, info_.rank_sup),
                         UnionCardinality(u_view, v_view, request.d, info_.k,
                                          info_.rank_sup)};
      return response;
    }
  }
  auto frame =
      CallPoint(owner.value(), EncodePointRequest(request), deadline);
  if (!frame.ok()) return frame.status();
  return DecodePointResponse(frame.value().payload);
}

std::vector<PointBatchResponseEntry> FleetRouter::PointBatch(
    const std::vector<PointRequestMsg>& requests,
    const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  std::vector<PointBatchResponseEntry> entries(requests.size());
  // Any entry the batched wire path cannot answer identically goes
  // through the single-request Point path — which is also the fallback
  // whenever a batched answer comes back retryable, so every entry's
  // bytes equal a lone Point call's.
  auto fill_single = [&](size_t i) {
    auto response = Point(requests[i], deadline_in);
    if (response.ok()) {
      entries[i].payload = EncodePointResponse(response.value());
    } else {
      entries[i].status = response.status();
    }
  };
  std::vector<std::vector<size_t>> groups(slots_.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const PointRequestMsg& request = requests[i];
    auto owner = OwnerOf(request.node);
    if (!owner.ok()) {
      entries[i].status = owner.status();
      continue;
    }
    if (request.kind == PointKind::kJaccard) {
      auto other_owner = OwnerOf(request.other);
      if (!other_owner.ok()) {
        entries[i].status = other_owner.status();
        continue;
      }
      if (other_owner.value() != owner.value()) {
        fill_single(i);  // cross-server pair: router-side similarity
        continue;
      }
    }
    groups[owner.value()].push_back(i);
  }
  for (size_t s = 0; s < groups.size(); ++s) {
    const std::vector<size_t>& group = groups[s];
    for (size_t begin = 0; begin < group.size();
         begin += kMaxPointBatchEntries) {
      size_t count = std::min(kMaxPointBatchEntries, group.size() - begin);
      std::vector<std::string> encoded;
      encoded.reserve(count);
      for (size_t j = 0; j < count; ++j) {
        encoded.push_back(EncodePointRequest(requests[group[begin + j]]));
      }
      auto answers = SendPointBatch(s, encoded, deadline);
      for (size_t j = 0; j < count; ++j) {
        size_t i = group[begin + j];
        std::optional<PointBatchResponseEntry>& answer = answers[j];
        if (answer.has_value()) {
          entries[i] = std::move(*answer);
        } else {
          fill_single(i);
        }
      }
    }
  }
  return entries;
}

Status FleetRouter::ExecuteSweep(
    const SweepRequestMsg& request,
    const std::vector<SweepCollector*>& collectors,
    const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  size_t n = slots_.size();
  Metrics().scatter_fanout->Add(n);
  std::vector<Status> statuses(n, Status::Ok());
  std::vector<SweepResponseMsg> responses(n);
  const std::string payload = EncodeSweepRequest(request);
  // Scatter: every range server sweeps concurrently, each call carrying
  // the remaining deadline budget and the full retry policy. Results land
  // in per-server slots; nothing depends on completion order.
  std::vector<std::thread> calls;
  calls.reserve(n);
  // Scatter threads inherit the caller's trace id explicitly — the trace
  // context is thread-local, so a traced sweep's fan-out hops would
  // otherwise go out untraced.
  const TraceId trace = CurrentTraceId();
  for (size_t i = 0; i < n; ++i) {
    calls.emplace_back([this, i, &payload, &deadline, &statuses, &responses,
                        trace] {
      ScopedTraceContext trace_context(trace.hi, trace.lo);
      auto frame = CallServer(i, MessageType::kSweepRequest, payload,
                              MessageType::kSweepResponse, deadline);
      if (!frame.ok()) {
        statuses[i] = frame.status();
        return;
      }
      auto decoded = DecodeSweepResponse(frame.value().payload);
      if (!decoded.ok()) {
        statuses[i] = decoded.status();
      } else {
        responses[i] = std::move(decoded).value();
      }
    });
  }
  for (std::thread& t : calls) t.join();

  // Gather: absorb in node order, each range's partial merged exactly as
  // the sweep executor's slots are.
  for (SweepCollector* c : collectors) c->Begin(manifest_.num_nodes);
  for (size_t i = 0; i < n; ++i) {
    const FleetEntry& entry = manifest_.servers[i];
    if (!statuses[i].ok()) {
      return WithMessage(statuses[i],
                         "sweep failed on fleet server " + entry.address +
                             ": " + statuses[i].ToString());
    }
    if (responses[i].begin != entry.begin || responses[i].end != entry.end) {
      return Status::Corruption("fleet server " + entry.address +
                                " answered for the wrong node range");
    }
    Status s = AbsorbSweepResponse(responses[i], collectors);
    if (!s.ok()) {
      return Status::Corruption("bad partial from fleet server " +
                                entry.address + ": " + s.ToString());
    }
  }
  return Status::Ok();
}

StatusOr<StatsResponseMsg> FleetRouter::Stats(uint32_t flags,
                                              const Deadline& deadline_in) {
  Deadline deadline = EffectiveDeadline(deadline_in);
  StatsResponseMsg result = ProcessStats("router", flags);
  const std::string payload = EncodeStatsRequest(StatsRequestMsg{flags});
  for (size_t i = 0; i < slots_.size(); ++i) {
    const std::string& address = manifest_.servers[i].address;
    auto frame = CallServer(i, MessageType::kStatsRequest, payload,
                            MessageType::kStatsResponse, deadline);
    if (!frame.ok()) return frame.status();
    auto decoded = DecodeStatsResponse(frame.value().payload);
    if (!decoded.ok()) {
      return Status::Corruption("bad stats response from fleet server " +
                                address + ": " +
                                decoded.status().ToString());
    }
    // A plain server answers one "server" snapshot: relabel it with the
    // address it came from. A nested router answers several; keep its
    // labels as a suffix so a stacked tree's scrape stays unambiguous.
    for (StatsSnapshotMsg& snap : decoded.value().snapshots) {
      snap.label = snap.label == "server" ? address
                                          : address + "/" + snap.label;
      result.snapshots.push_back(std::move(snap));
    }
    for (TraceSpanMsg& span : decoded.value().spans) {
      span.label = span.label == "server" ? address
                                          : address + "/" + span.label;
      result.spans.push_back(std::move(span));
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// RouterCore
// ---------------------------------------------------------------------------

RouterCore::RouterCore(FleetRouter* router)
    : ServingCore("router", "router"), router_(router) {}

std::string RouterCore::AnswerInfo() {
  return EncodeServerInfo(router_->info());
}

StatusOr<std::string> RouterCore::AnswerPoint(const PointRequestMsg& msg,
                                              const std::string&,
                                              const Deadline& deadline) {
  auto response = router_->Point(msg, deadline);
  if (!response.ok()) return response.status();
  return EncodePointResponse(response.value());
}

StatusOr<std::string> RouterCore::AnswerPointBatch(
    const PointBatchRequestMsg& msg, const Deadline& deadline) {
  PointBatchResponseMsg response;
  response.entries = router_->PointBatch(msg.entries, deadline);
  return EncodePointBatchResponse(response);
}

StatusOr<std::string> RouterCore::AnswerSweep(const SweepRequestMsg& msg,
                                              const Deadline& deadline) {
  SweepPlan plan;
  auto collectors = BuildPlanFromSpec(msg.collectors, &plan);
  if (!collectors.ok()) return collectors.status();
  Status swept = router_->ExecuteSweep(msg, collectors.value(), deadline);
  if (!swept.ok()) return swept;
  SweepResponseMsg response;
  response.begin = router_->node_begin();
  response.end = router_->num_nodes();
  response.partials.resize(collectors.value().size());
  for (size_t i = 0; i < collectors.value().size(); ++i) {
    // Router collectors are globally indexed but only cover this
    // fleet's range: slice exactly [node_begin, N) so the next tier's
    // gather absorbs it at the same global offsets.
    Status s = collectors.value()[i]->EncodePartial(
        static_cast<NodeId>(router_->node_begin()),
        static_cast<NodeId>(router_->num_nodes()), &response.partials[i]);
    if (!s.ok()) return s;
  }
  return EncodeSweepResponse(response);
}

StatusOr<std::string> RouterCore::AnswerStats(const StatsRequestMsg& msg,
                                              const Deadline& deadline) {
  auto stats = router_->Stats(msg.flags, deadline);
  if (!stats.ok()) return stats.status();
  return EncodeStatsResponse(stats.value());
}

}  // namespace hipads
