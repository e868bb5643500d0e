// Client side of the hipads wire protocol.
//
//   Channel          one request frame -> one response frame. Two
//                    transports: TcpChannel (a real socket) and
//                    LoopbackChannel (direct in-process dispatch into a
//                    FrameHandler — the deterministic transport the router
//                    tests and benchmarks run the full scatter/gather path
//                    on, no sockets involved).
//   AdsClient        typed calls over a Channel (info / point / sweep),
//                    decoding kError frames back into Status.
//   ExecuteRemoteSweep  runs a sweep spec on a remote endpoint covering the
//                    whole node space and absorbs the result into local
//                    collectors built from the same spec — the CLI's
//                    `query`/`stats --remote` engine.

#ifndef HIPADS_SERVE_CLIENT_H_
#define HIPADS_SERVE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/mutex.h"
#include "util/status.h"

namespace hipads {

/// A connection to one serving process: sends a request frame, returns the
/// decoded (and checksum-verified) response frame — decoding happens once,
/// in the transport, so big sweep partials are never re-copied or
/// re-hashed on the client side. Call is safe from multiple threads
/// (requests are serialized per channel, keeping request/response pairing
/// intact). `deadline` bounds the whole exchange; transports that can
/// block (TCP) poll against it and fail with DeadlineExceeded instead of
/// hanging on a stalled peer.
class Channel {
 public:
  virtual ~Channel();
  virtual Status Call(std::string_view request_frame, Frame* response,
                      const Deadline& deadline) = 0;

  /// Deadline-free convenience (blocks as long as the transport does).
  Status Call(std::string_view request_frame, Frame* response) {
    return Call(request_frame, response, Deadline());
  }
};

/// In-process transport: dispatches straight into a FrameHandler (an
/// AdsServerCore or RouterCore). Bit-for-bit the same protocol path as
/// TCP — frames are fully encoded, checksummed and re-decoded — minus the
/// socket, so ctest/tsan runs of the whole distributed pipeline are
/// deterministic.
class LoopbackChannel : public Channel {
 public:
  explicit LoopbackChannel(FrameHandler* handler) : handler_(handler) {}

  using Channel::Call;
  Status Call(std::string_view request_frame, Frame* response,
              const Deadline& deadline) override;

 private:
  FrameHandler* handler_;
};

/// Socket-level robustness knobs of a TcpChannel, used while connecting.
/// Each call is bounded by its own deadline.
struct TcpChannelOptions {
  /// Bound on connection establishment (DNS excluded). 0 = block forever.
  uint64_t connect_timeout_ms = 5000;
};

/// TCP transport. Connect resolves "host:port" style addresses (numeric or
/// named hosts). The socket is kept in non-blocking mode and every
/// transfer polls, so call deadlines cut off mid-connect, mid-write and
/// mid-read — a stalled or half-dead peer costs bounded time. Requests are
/// single complete frames, so the socket sets TCP_NODELAY: Nagle would only
/// stall a frame's last short segment behind the peer's delayed ACK.
class TcpChannel : public Channel {
 public:
  ~TcpChannel() override;
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  static StatusOr<std::unique_ptr<TcpChannel>> Connect(
      const std::string& host, uint16_t port,
      const TcpChannelOptions& options = {});
  /// Connects to an "host:port" address string.
  static StatusOr<std::unique_ptr<TcpChannel>> ConnectAddress(
      const std::string& address, const TcpChannelOptions& options = {});

  using Channel::Call;
  Status Call(std::string_view request_frame, Frame* response,
              const Deadline& deadline) override;

 private:
  explicit TcpChannel(int fd) : fd_(fd) {}

  const int fd_;  // owned; immutable until the destructor closes it
  Mutex mu_;  // serializes write+read pairs on the socket
};

/// Splits "host:port"; fails on missing / non-numeric / out-of-range port.
Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port);

/// Typed request helpers over a borrowed Channel. An error frame from the
/// peer comes back as its decoded Status. When constructed with a
/// deadline, every call carries the remaining budget on the wire (so the
/// server can shed it once expired) and bounds the transport exchange;
/// an already-expired deadline fails fast without touching the network.
class AdsClient {
 public:
  explicit AdsClient(Channel* channel, Deadline deadline = Deadline())
      : channel_(channel), deadline_(deadline) {}

  StatusOr<ServerInfoMsg> Info();
  StatusOr<PointResponseMsg> Point(const PointRequestMsg& request);
  /// N point requests in as few frames as possible (batch frames split
  /// at kMaxPointBatchEntries). Returns one entry per request in
  /// request order; per-entry failures come back in the entry's status
  /// while the call itself only fails on transport/protocol errors. Ok
  /// entries hold the encoded PointResponseMsg payload — byte-identical
  /// to what a lone Point call for that request would have received.
  StatusOr<std::vector<PointBatchResponseEntry>> PointBatch(
      const std::vector<PointRequestMsg>& requests);
  StatusOr<SweepResponseMsg> Sweep(const SweepRequestMsg& request);
  /// Scrapes the endpoint's metrics registry (kStatsRequest). Pass
  /// kStatsFlagTraceSpans in `flags` to also drain its trace buffer.
  StatusOr<StatsResponseMsg> Stats(uint32_t flags = 0);

 private:
  StatusOr<Frame> Call(MessageType type, std::string payload,
                       MessageType expected_response);

  Channel* channel_;
  Deadline deadline_;
};

/// Executes `request` on the endpoint behind `channel` — which must serve
/// the full node range [0, total_nodes): a whole-set server or a fleet
/// router — and absorbs the returned partials into `collectors`, which the
/// caller built from the same spec (BuildPlanFromSpec) and whose Begin
/// this function calls. `deadline` bounds the whole exchange. On any
/// failure the collectors are left partially filled and must be
/// discarded, never read.
Status ExecuteRemoteSweep(Channel& channel, const SweepRequestMsg& request,
                          uint64_t total_nodes,
                          const std::vector<SweepCollector*>& collectors,
                          const Deadline& deadline = Deadline());

}  // namespace hipads

#endif  // HIPADS_SERVE_CLIENT_H_
