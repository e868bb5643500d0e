// Bench-owned tracing: in-memory spans recorded by decorators that wrap the
// library's public interfaces from the outside. Nothing here touches the
// library's own trace ring (serve/trace.h); the decorators sit at layer
// boundaries the benchmark composes itself:
//
//   TracedBackend    an AdsBackend forwarding every virtual; Range() is the
//                    "ads.shard.range_load" span (shard load + validation,
//                    or the wait on a prefetch).
//   TracedCollector  a SweepCollector forwarding Map/Reduce/NeedsReduce and
//                    the partial seam; Reduce blocks are "ads.sweep.reduce"
//                    spans, the gap before a block's first Reduce is an
//                    "ads.sweep.map" span, and Map busy time is summed over
//                    threads (MapBusyNs).
//   TracedHandler    a FrameHandler between a TcpServer and its core:
//                    "serve.server.handle" on range servers,
//                    "serve.router.point" / "serve.router.sweep" /
//                    "serve.router.batch" on the router.
//   TracedChannel    a Channel wrapping TcpChannel: "serve.client.call".
//
// A span records name, start, end, its parent (the enclosing span on the
// same thread) and a request id (the root span of that thread's chain).
// Recording is off until Tracer::SetEnabled(true), so the decorators cost
// one relaxed load per call in untraced phases. At exit the spans are
// written as Chrome trace-event JSON, the format `hipads_cli trace-dump`
// emits.

#ifndef HIPADS_BENCH_TRACE_H_
#define HIPADS_BENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ads/backend.h"
#include "ads/sweep.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"

namespace hipads_bench {

/// Steady-clock nanoseconds since the first call in this process.
uint64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // id of the root span of this thread's chain
  uint32_t kind = 0;     // wire MessageType for serve spans, else 0
  uint64_t bytes = 0;    // request + response frame bytes (serve spans)

  uint64_t dur_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static Tracer& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void Record(const Span& span);
  /// Every span recorded so far, in recording order.
  std::vector<Span> Spans() const;
  /// Writes up to `max_spans` spans as Chrome trace-event JSON.
  bool WriteChromeJson(const std::string& path, size_t max_spans) const;

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope as one span when tracing is on; pushes itself as the
/// parent of spans opened on the same thread inside it.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint32_t kind = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void AddBytes(uint64_t n) { span_.bytes += n; }

 private:
  bool active_;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// Map busy time summed over every thread, since process start.
uint64_t MapBusyNs();
/// Folds the calling thread's pending Map busy time into MapBusyNs().
void FlushMapBusy();

class TracedBackend : public hipads::AdsBackend {
 public:
  explicit TracedBackend(const hipads::AdsBackend* inner) : inner_(inner) {}

  hipads::SketchFlavor flavor() const override { return inner_->flavor(); }
  uint32_t k() const override { return inner_->k(); }
  const hipads::RankAssignment& ranks() const override {
    return inner_->ranks();
  }
  size_t num_nodes() const override { return inner_->num_nodes(); }
  uint64_t TotalEntries() const override { return inner_->TotalEntries(); }
  uint32_t NumRanges() const override { return inner_->NumRanges(); }
  hipads::StatusOr<hipads::AdsArenaView> Range(uint32_t r) const override;
  hipads::StatusOr<hipads::AdsView> ViewOf(hipads::NodeId v) const override {
    return inner_->ViewOf(v);
  }
  hipads::StatusOr<hipads::HipView> HipOf(hipads::NodeId v) const override {
    return inner_->HipOf(v);
  }
  bool HipResident() const override { return inner_->HipResident(); }
  void Prefetch(uint32_t r) const override { inner_->Prefetch(r); }
  bool ImmutableReads() const override { return inner_->ImmutableReads(); }

 private:
  const hipads::AdsBackend* inner_;
};

/// Wraps one collector of a plan. `first`/`last` mark the plan's first and
/// last collector: Map busy time runs from the first collector's Map entry
/// to the last one's exit, and the map-phase span of a block closes at the
/// first collector's Reduce.
class TracedCollector : public hipads::SweepCollector {
 public:
  TracedCollector(hipads::SweepCollector* inner, bool first, bool last)
      : inner_(inner), first_(first), last_(last) {}

  void Begin(size_t num_nodes) override;
  void Map(hipads::NodeId v, const hipads::HipEstimator& est) override;
  void Reduce(hipads::NodeId first,
              std::span<const hipads::HipEstimator> ests) override;
  bool NeedsReduce() const override { return inner_->NeedsReduce(); }
  hipads::Status EncodePartial(hipads::NodeId begin, hipads::NodeId end,
                               std::string* out) const override {
    return inner_->EncodePartial(begin, end, out);
  }
  hipads::Status AbsorbPartial(hipads::NodeId begin, hipads::NodeId end,
                               std::string_view data) override {
    return inner_->AbsorbPartial(begin, end, data);
  }

 private:
  hipads::SweepCollector* inner_;
  bool first_;
  bool last_;
};

/// Wraps every collector of `inner` into `traced` (which owns the
/// wrappers); the returned plan borrows them.
void WrapPlan(const hipads::SweepPlan& inner,
              std::vector<std::unique_ptr<TracedCollector>>* wrappers,
              hipads::SweepPlan* traced);

class TracedHandler : public hipads::FrameHandler {
 public:
  TracedHandler(hipads::FrameHandler* inner, bool is_router)
      : inner_(inner), is_router_(is_router) {}

  std::string HandleFrame(std::string_view request,
                          bool* close_connection) override;

 private:
  hipads::FrameHandler* inner_;
  bool is_router_;
};

/// A Channel recording each call as a span named `name`; the span's bytes
/// are the response payload size.
class TracedChannel : public hipads::Channel {
 public:
  TracedChannel(std::unique_ptr<hipads::Channel> inner, const char* name)
      : inner_(std::move(inner)), name_(name) {}

  using hipads::Channel::Call;
  hipads::Status Call(std::string_view request_frame, hipads::Frame* response,
                      const hipads::Deadline& deadline) override;

 private:
  std::unique_ptr<hipads::Channel> inner_;
  const char* name_;
};

/// A ChannelFactory whose channels are TracedChannels around `inner`'s.
hipads::ChannelFactory TracedChannelFactory(hipads::ChannelFactory inner);

/// Message type of an encoded frame (kError if the header is malformed).
hipads::MessageType FrameType(std::string_view frame);

}  // namespace hipads_bench

#endif  // HIPADS_BENCH_TRACE_H_
