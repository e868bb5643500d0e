#include "trace.h"

#include <chrono>
#include <cstdio>

#include "serve/protocol.h"

namespace hipads_bench {

using hipads::Frame;
using hipads::MessageType;

uint64_t NowNs() {
  static const auto start = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

namespace {

// Per-thread span chain: the innermost open span and the root of the chain.
thread_local uint64_t tl_parent = 0;
thread_local uint64_t tl_request = 0;

// End of the last range load or reduce block on the sweeping thread; a
// block's map phase runs from here to its first Reduce.
thread_local uint64_t tl_boundary_ns = 0;

std::atomic<uint64_t> g_map_busy_ns{0};

struct MapBusy {
  uint64_t start_ns = 0;
  uint64_t pending_ns = 0;
  uint32_t nodes = 0;

  void Flush() {
    g_map_busy_ns.fetch_add(pending_ns, std::memory_order_relaxed);
    pending_ns = 0;
  }
  // Pool threads end with their sweep; their last nodes still count.
  ~MapBusy() { Flush(); }
};
thread_local MapBusy tl_map;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeJson(const std::string& path, size_t max_spans) const {
  std::vector<Span> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  size_t n = spans.size() < max_spans ? spans.size() : max_spans;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    // One row per request chain, so concurrent requests do not overlap.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"hipads_bench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%llu,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"kind\":%u,\"bytes\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 s.dur_ns() / 1e3,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.kind,
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fprintf(f, "],\"otherData\":{\"spans_total\":%zu,\"spans_written\":%zu}}\n",
               spans.size(), n);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, uint32_t kind)
    : active_(Tracer::Get().enabled()) {
  if (!active_) return;
  span_.name = name;
  span_.kind = kind;
  span_.id = Tracer::Get().NextId();
  span_.parent = tl_parent;
  span_.request = tl_parent == 0 ? span_.id : tl_request;
  saved_parent_ = tl_parent;
  saved_request_ = tl_request;
  tl_parent = span_.id;
  tl_request = span_.request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_parent = saved_parent_;
  tl_request = saved_request_;
  Tracer::Get().Record(span_);
}

uint64_t MapBusyNs() { return g_map_busy_ns.load(std::memory_order_relaxed); }

void FlushMapBusy() { tl_map.Flush(); }

hipads::StatusOr<hipads::AdsArenaView> TracedBackend::Range(uint32_t r) const {
  hipads::StatusOr<hipads::AdsArenaView> range = [&] {
    ScopedSpan span("ads.shard.range_load");
    return inner_->Range(r);
  }();
  tl_boundary_ns = NowNs();
  return range;
}

void TracedCollector::Begin(size_t num_nodes) {
  inner_->Begin(num_nodes);
  tl_boundary_ns = NowNs();
}

void TracedCollector::Map(hipads::NodeId v, const hipads::HipEstimator& est) {
  if (!Tracer::Get().enabled()) {
    inner_->Map(v, est);
    return;
  }
  if (first_) tl_map.start_ns = NowNs();
  inner_->Map(v, est);
  if (last_) {
    tl_map.pending_ns += NowNs() - tl_map.start_ns;
    if (++tl_map.nodes % 256 == 0) tl_map.Flush();
  }
}

void TracedCollector::Reduce(hipads::NodeId first,
                             std::span<const hipads::HipEstimator> ests) {
  if (first_ && Tracer::Get().enabled()) {
    // The block's map phase: from the previous boundary on this thread to
    // the first Reduce of the block.
    Span map;
    map.name = "ads.sweep.map";
    map.id = Tracer::Get().NextId();
    map.parent = tl_parent;
    map.request = tl_parent == 0 ? map.id : tl_request;
    map.start_ns = tl_boundary_ns;
    map.end_ns = NowNs();
    Tracer::Get().Record(map);
  }
  {
    ScopedSpan span("ads.sweep.reduce");
    inner_->Reduce(first, ests);
  }
  tl_boundary_ns = NowNs();
}

void WrapPlan(const hipads::SweepPlan& inner,
              std::vector<std::unique_ptr<TracedCollector>>* wrappers,
              hipads::SweepPlan* traced) {
  const auto& collectors = inner.collectors();
  for (size_t i = 0; i < collectors.size(); ++i) {
    wrappers->push_back(std::make_unique<TracedCollector>(
        collectors[i], i == 0, i + 1 == collectors.size()));
    traced->Add(wrappers->back().get());
  }
}

MessageType FrameType(std::string_view frame) {
  hipads::FrameHeader header;
  if (!hipads::DecodeFrameHeaderPrefix(frame.data(), frame.size(), &header)
           .ok()) {
    return MessageType::kError;
  }
  return header.type;
}

std::string TracedHandler::HandleFrame(std::string_view request,
                                       bool* close_connection) {
  if (!Tracer::Get().enabled()) {
    return inner_->HandleFrame(request, close_connection);
  }
  MessageType type = FrameType(request);
  const char* name = "serve.server.handle";
  if (is_router_) {
    name = type == MessageType::kSweepRequest        ? "serve.router.sweep"
           : type == MessageType::kPointBatchRequest ? "serve.router.batch"
                                                     : "serve.router.point";
  }
  ScopedSpan span(name, static_cast<uint32_t>(type));
  std::string response = inner_->HandleFrame(request, close_connection);
  span.AddBytes(request.size() + response.size());
  return response;
}

hipads::Status TracedChannel::Call(std::string_view request_frame,
                                   Frame* response,
                                   const hipads::Deadline& deadline) {
  if (!Tracer::Get().enabled()) {
    return inner_->Call(request_frame, response, deadline);
  }
  ScopedSpan span(name_, static_cast<uint32_t>(FrameType(request_frame)));
  hipads::Status status = inner_->Call(request_frame, response, deadline);
  span.AddBytes(response->payload.size());
  return status;
}

hipads::ChannelFactory TracedChannelFactory(hipads::ChannelFactory inner) {
  return [inner = std::move(inner)](const std::string& address)
             -> hipads::StatusOr<std::unique_ptr<hipads::Channel>> {
    auto channel = inner(address);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<hipads::Channel>(std::make_unique<TracedChannel>(
        std::move(channel).value(), "serve.client.call"));
  };
}

}  // namespace hipads_bench
