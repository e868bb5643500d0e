// Per-request tracing for the serving stack. Every frame header carries
// a 16-byte trace id (serve/protocol.h; zero = untraced); while a
// traced request is being handled, the handler installs the id in a
// thread-local context and the instrumented sections on its path
// (dispatch, backend fetch, estimator, encode) each append one span —
// (trace id, section name, start, duration) — to a bounded in-process
// ring buffer. Untraced requests (the id is zero, the default) skip
// every clock read, and spans never influence response bytes; the
// buffer is drained over the wire by a kStatsRequest with the
// trace-span flag and rendered as Chrome trace-event JSON by
// `hipads trace-dump`.
//
// Clock use makes this serve-layer-only machinery (hipads-lint HL001
// keeps it out of the deterministic trees). Span timestamps are
// steady-clock microseconds since process start — meaningful for
// ordering and duration within one process, not across machines.

#ifndef HIPADS_SERVE_TRACE_H_
#define HIPADS_SERVE_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/mutex.h"

namespace hipads {

/// One timed section of one traced request.
struct TraceSpan {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  std::string name;       // instrumented section, e.g. "server.estimator"
  uint64_t start_us = 0;  // steady-clock micros since process start
  uint64_t dur_us = 0;
};

/// Steady-clock microseconds since the first call in this process.
uint64_t TraceNowMicros();

/// Bounded in-memory span ring. Recording takes a mutex — acceptable
/// because only TRACED requests record, and tracing is opt-in per
/// request; the untraced hot path never gets here.
class TraceBuffer {
 public:
  static constexpr size_t kCapacity = 4096;

  static TraceBuffer& Get();

  void Record(TraceSpan span);
  /// The buffered spans, oldest first.
  std::vector<TraceSpan> Snapshot() const;
  void Clear();
  /// Spans overwritten because the ring was full (lifetime count).
  uint64_t dropped() const;

 private:
  TraceBuffer() = default;

  mutable Mutex mu_;
  std::vector<TraceSpan> ring_ HIPADS_GUARDED_BY(mu_);
  size_t next_ HIPADS_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ HIPADS_GUARDED_BY(mu_) = 0;
};

/// The trace id of the request the current thread is handling (zero =
/// untraced).
struct TraceId {
  uint64_t hi = 0;
  uint64_t lo = 0;
  bool active() const { return (hi | lo) != 0; }
};
TraceId CurrentTraceId();

/// Installs a request's trace id for the current thread, restoring the
/// previous id on destruction (nested handlers — a router forwarding
/// to a loopback server on the same thread — stack correctly).
class ScopedTraceContext {
 public:
  ScopedTraceContext(uint64_t hi, uint64_t lo);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceId prev_;
};

/// Times a section and records it against the current thread's trace
/// id. When no trace is active, construction is one thread-local read
/// and no clock is touched.
class ScopedTraceSpan {
 public:
  explicit ScopedTraceSpan(const char* name);
  ~ScopedTraceSpan();
  ScopedTraceSpan(const ScopedTraceSpan&) = delete;
  ScopedTraceSpan& operator=(const ScopedTraceSpan&) = delete;

 private:
  const char* name_;
  TraceId id_;         // captured at entry; inactive = record nothing
  uint64_t start_us_ = 0;
};

}  // namespace hipads

#endif  // HIPADS_SERVE_TRACE_H_
