#include "serve/client.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/trace.h"
#include "util/metrics.h"

namespace hipads {

namespace {

// Flips the socket to non-blocking mode; every later transfer polls
// against the call's deadline instead of parking in the kernel.
Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK) failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::Ok();
}

// Finishes a non-blocking connect: wait for writability under the
// deadline, then read the socket-level result out of SO_ERROR.
Status AwaitConnect(int fd, const Deadline& deadline) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  for (;;) {
    int timeout = -1;
    if (deadline.has_deadline()) {
      uint64_t remaining = deadline.RemainingMs();
      if (remaining == 0) {
        return Status::DeadlineExceeded("connect timed out");
      }
      timeout = remaining > static_cast<uint64_t>(
                                std::numeric_limits<int>::max())
                    ? std::numeric_limits<int>::max()
                    : static_cast<int>(remaining);
    }
    int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll failed: " +
                             std::string(std::strerror(errno)));
    }
    if (rc == 0) return Status::DeadlineExceeded("connect timed out");
    break;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return Status::IOError("getsockopt(SO_ERROR) failed: " +
                           std::string(std::strerror(errno)));
  }
  if (err != 0) {
    return Status::IOError("connect failed: " +
                           std::string(std::strerror(err)));
  }
  return Status::Ok();
}

}  // namespace

Channel::~Channel() = default;

Status LoopbackChannel::Call(std::string_view request_frame, Frame* response,
                             const Deadline& deadline) {
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired before dispatch");
  }
  bool close_connection = false;
  std::string response_frame =
      handler_->HandleFrame(request_frame, &close_connection);
  auto decoded = DecodeFrame(response_frame);
  if (!decoded.ok()) return decoded.status();
  *response = std::move(decoded).value();
  return Status::Ok();
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument("address '" + address +
                                   "' is not host:port");
  }
  const char* begin = address.c_str() + colon + 1;
  char* end = nullptr;
  unsigned long value = std::strtoul(begin, &end, 10);
  if (end == begin || *end != '\0' || value == 0 || value > 65535) {
    return Status::InvalidArgument("bad port in address '" + address + "'");
  }
  *host = address.substr(0, colon);
  *port = static_cast<uint16_t>(value);
  return Status::Ok();
}

StatusOr<std::unique_ptr<TcpChannel>> TcpChannel::ConnectAddress(
    const std::string& address, const TcpChannelOptions& options) {
  std::string host;
  uint16_t port = 0;
  Status s = ParseHostPort(address, &host, &port);
  if (!s.ok()) return s;
  return Connect(host, port, options);
}

StatusOr<std::unique_ptr<TcpChannel>> TcpChannel::Connect(
    const std::string& host, uint16_t port, const TcpChannelOptions& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  std::string port_str = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &result);
  if (rc != 0) {
    return Status::IOError("cannot resolve " + host + ": " +
                           gai_strerror(rc));
  }
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IOError("socket failed: " +
                             std::string(std::strerror(errno)));
      continue;
    }
    Status s = SetNonBlocking(fd);
    if (s.ok()) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Deadline connect_deadline =
          options.connect_timeout_ms > 0
              ? Deadline::AfterMs(options.connect_timeout_ms)
              : Deadline();
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        // Connected instantly (loopback).
      } else if (errno == EINPROGRESS) {
        s = AwaitConnect(fd, connect_deadline);
      } else {
        s = Status::IOError("cannot connect: " +
                            std::string(std::strerror(errno)));
      }
    }
    if (s.ok()) {
      ::freeaddrinfo(result);
      static MetricCounter* connects =
          MetricsRegistry::Get().Counter("client.tcp.connects");
      connects->Add();
      return std::unique_ptr<TcpChannel>(new TcpChannel(fd));
    }
    std::string msg =
        "cannot connect to " + host + ":" + port_str + ": " + s.message();
    last = s.code() == Status::Code::kDeadlineExceeded
               ? Status::DeadlineExceeded(std::move(msg))
               : Status::IOError(std::move(msg));
    ::close(fd);
  }
  ::freeaddrinfo(result);
  return last;
}

Status TcpChannel::Call(std::string_view request_frame, Frame* response,
                        const Deadline& deadline) {
  if (deadline.Expired()) {
    return Status::DeadlineExceeded("deadline expired before send");
  }
  MutexLock lock(mu_);
  Status s = WriteAllBytes(fd_, request_frame.data(), request_frame.size(),
                           deadline);
  if (!s.ok()) return s;
  auto frame = ReadFrame(fd_, deadline);
  if (!frame.ok()) return frame.status();
  *response = std::move(frame).value();
  return Status::Ok();
}

StatusOr<Frame> AdsClient::Call(MessageType type, std::string payload,
                                MessageType expected_response) {
  if (deadline_.Expired()) {
    return Status::DeadlineExceeded("client deadline expired before send");
  }
  // A thread handling a traced request propagates its trace id to every
  // downstream hop; untraced calls carry the zero id.
  const TraceId trace = CurrentTraceId();
  Frame frame;
  Status s = channel_->Call(
      EncodeFrame(type, payload, deadline_.ToWireMs(), trace.hi, trace.lo),
      &frame, deadline_);
  if (!s.ok()) return s;
  if (frame.type == MessageType::kError) {
    return DecodeError(frame.payload);
  }
  if (frame.type != expected_response) {
    return Status::Corruption("unexpected response frame type");
  }
  return frame;
}

StatusOr<ServerInfoMsg> AdsClient::Info() {
  auto frame = Call(MessageType::kInfoRequest, "", MessageType::kInfoResponse);
  if (!frame.ok()) return frame.status();
  return DecodeServerInfo(frame.value().payload);
}

StatusOr<PointResponseMsg> AdsClient::Point(const PointRequestMsg& request) {
  auto frame = Call(MessageType::kPointRequest, EncodePointRequest(request),
                    MessageType::kPointResponse);
  if (!frame.ok()) return frame.status();
  return DecodePointResponse(frame.value().payload);
}

StatusOr<std::vector<PointBatchResponseEntry>> AdsClient::PointBatch(
    const std::vector<PointRequestMsg>& requests) {
  std::vector<PointBatchResponseEntry> entries;
  entries.reserve(requests.size());
  // Frames are bounded at kMaxPointBatchEntries; larger batches split into
  // consecutive frames over the same channel. An empty request list still
  // round-trips one empty frame, so the caller learns the endpoint is
  // reachable rather than silently succeeding.
  size_t begin = 0;
  do {
    size_t count = std::min(kMaxPointBatchEntries, requests.size() - begin);
    auto frame = Call(MessageType::kPointBatchRequest,
                      EncodePointBatchRequest(std::span<const PointRequestMsg>(
                          requests.data() + begin, count)),
                      MessageType::kPointBatchResponse);
    if (!frame.ok()) return frame.status();
    auto decoded = DecodePointBatchResponse(frame.value().payload);
    if (!decoded.ok()) return decoded.status();
    if (decoded.value().entries.size() != count) {
      return Status::Corruption(
          "batch response entry count does not match the request");
    }
    for (PointBatchEntryView& e : decoded.value().entries) {
      entries.push_back({std::move(e.status), std::string(e.payload)});
    }
    begin += count;
  } while (begin < requests.size());
  return entries;
}

StatusOr<SweepResponseMsg> AdsClient::Sweep(const SweepRequestMsg& request) {
  auto frame = Call(MessageType::kSweepRequest, EncodeSweepRequest(request),
                    MessageType::kSweepResponse);
  if (!frame.ok()) return frame.status();
  return DecodeSweepResponse(frame.value().payload);
}

StatusOr<StatsResponseMsg> AdsClient::Stats(uint32_t flags) {
  StatsRequestMsg request;
  request.flags = flags;
  auto frame = Call(MessageType::kStatsRequest, EncodeStatsRequest(request),
                    MessageType::kStatsResponse);
  if (!frame.ok()) return frame.status();
  return DecodeStatsResponse(frame.value().payload);
}

Status ExecuteRemoteSweep(Channel& channel, const SweepRequestMsg& request,
                          uint64_t total_nodes,
                          const std::vector<SweepCollector*>& collectors,
                          const Deadline& deadline) {
  AdsClient client(&channel, deadline);
  auto response = client.Sweep(request);
  if (!response.ok()) return response.status();
  if (response.value().begin != 0 || response.value().end != total_nodes) {
    return Status::InvalidArgument(
        "endpoint serves nodes [" + std::to_string(response.value().begin) +
        ", " + std::to_string(response.value().end) +
        "), not the full set — run sweeps through a fleet router");
  }
  for (SweepCollector* c : collectors) c->Begin(total_nodes);
  return AbsorbSweepResponse(response.value(), collectors);
}

}  // namespace hipads
