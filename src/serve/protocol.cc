#include "serve/protocol.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <type_traits>

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include "util/hash.h"

namespace hipads {

namespace {

// The frame header as it sits on the wire (little-endian, like
// hipads-ads-v2); field meanings are documented at kWireVersion.
struct RawFrameHeader {
  char magic[8];
  uint32_t version;
  uint32_t type;
  uint64_t payload_bytes;
  uint64_t checksum;  // XXH64 chain: header (this field zeroed), payload
  uint64_t deadline_ms;
  uint64_t trace_hi;
  uint64_t trace_lo;
};
static_assert(sizeof(RawFrameHeader) == kFrameHeaderBytes,
              "wire frame header layout drifted");
static_assert(std::is_trivially_copyable_v<RawFrameHeader>);
static_assert(std::endian::native == std::endian::little,
              "the hipads wire format is little-endian; big-endian hosts "
              "need byte swapping");

// Byte offset of the checksum field inside the header.
constexpr size_t kChecksumOffset = offsetof(RawFrameHeader, checksum);

// Checksum chained the way the v2 file sections are: the raw header with
// its checksum field zeroed under seed 0, then the payload seeded with
// that hash.
uint64_t FrameChecksum(const char* raw, std::string_view payload) {
  char scratch[kFrameHeaderBytes];
  std::memcpy(scratch, raw, kFrameHeaderBytes);
  std::memset(scratch + kChecksumOffset, 0, sizeof(uint64_t));
  return Xxh64(payload.data(), payload.size(),
               Xxh64(scratch, kFrameHeaderBytes, /*seed=*/0));
}

bool KnownMessageType(uint32_t type) {
  return type <= static_cast<uint32_t>(MessageType::kStatsResponse);
}

}  // namespace

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

std::string EncodeFrame(MessageType type, std::string_view payload,
                        uint64_t deadline_ms, uint64_t trace_hi,
                        uint64_t trace_lo) {
  RawFrameHeader h{};
  std::memcpy(h.magic, kWireMagic, sizeof(h.magic));
  h.version = kWireVersion;
  h.type = static_cast<uint32_t>(type);
  h.payload_bytes = payload.size();
  h.deadline_ms = deadline_ms;
  h.trace_hi = trace_hi;
  h.trace_lo = trace_lo;
  h.checksum = FrameChecksum(reinterpret_cast<const char*>(&h), payload);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(reinterpret_cast<const char*>(&h), kFrameHeaderBytes);
  frame.append(payload.data(), payload.size());
  return frame;
}

Status DecodeFrameHeaderPrefix(const char* data, size_t size,
                               FrameHeader* out) {
  if (size < kFrameHeaderBytes) {
    return Status::Corruption("truncated frame header");
  }
  RawFrameHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (std::memcmp(h.magic, kWireMagic, sizeof(h.magic)) != 0) {
    return Status::Corruption("missing hipads wire magic");
  }
  if (h.version != kWireVersion) {
    return Status::Corruption("unsupported wire version " +
                              std::to_string(h.version));
  }
  if (!KnownMessageType(h.type)) {
    return Status::Corruption("unknown message type " +
                              std::to_string(h.type));
  }
  if (h.payload_bytes > kMaxFramePayload) {
    return Status::Corruption("frame payload length " +
                              std::to_string(h.payload_bytes) +
                              " exceeds the protocol bound");
  }
  out->type = static_cast<MessageType>(h.type);
  out->payload_bytes = h.payload_bytes;
  out->checksum = h.checksum;
  out->deadline_ms = h.deadline_ms;
  out->trace_hi = h.trace_hi;
  out->trace_lo = h.trace_lo;
  std::memcpy(out->raw, data, kFrameHeaderBytes);
  return Status::Ok();
}

namespace {

// Checks `payload` against a validated header's length and checksum, and
// assembles the decoded frame.
StatusOr<Frame> FrameOf(const FrameHeader& header, std::string payload) {
  if (payload.size() != header.payload_bytes) {
    return Status::Corruption("frame payload size mismatch");
  }
  if (FrameChecksum(header.raw, payload) != header.checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  Frame frame;
  frame.type = header.type;
  frame.payload = std::move(payload);
  frame.deadline_ms = header.deadline_ms;
  frame.trace_hi = header.trace_hi;
  frame.trace_lo = header.trace_lo;
  return frame;
}

}  // namespace

StatusOr<Frame> DecodeFrame(std::string_view data) {
  FrameHeader header;
  Status s = DecodeFrameHeaderPrefix(data.data(), data.size(), &header);
  if (!s.ok()) return s;
  if (data.size() != kFrameHeaderBytes + header.payload_bytes) {
    return Status::Corruption("frame length does not match its header");
  }
  return FrameOf(header, std::string(data.substr(kFrameHeaderBytes)));
}

namespace {

// Blocks (via poll) until fd is ready for `events` or the deadline runs
// out. With no deadline this polls forever.
Status WaitFd(int fd, short events, const Deadline& deadline) {
  for (;;) {
    int timeout_ms = -1;
    if (deadline.has_deadline()) {
      uint64_t remaining = deadline.RemainingMs();
      if (remaining == 0) {
        return Status::DeadlineExceeded("socket wait deadline exceeded");
      }
      timeout_ms = remaining > static_cast<uint64_t>(
                                   std::numeric_limits<int>::max())
                       ? std::numeric_limits<int>::max()
                       : static_cast<int>(remaining);
    }
    struct pollfd p = {fd, events, 0};
    int n = ::poll(&p, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll failed: " +
                             std::string(std::strerror(errno)));
    }
    if (n == 0) {
      if (!deadline.has_deadline()) continue;
      if (deadline.Expired()) {
        return Status::DeadlineExceeded("socket wait deadline exceeded");
      }
      continue;  // clamped timeout; keep waiting
    }
    return Status::Ok();
  }
}

Status ReadExact(int fd, char* buf, size_t n, const Deadline& deadline) {
  size_t done = 0;
  while (done < n) {
    ssize_t got = ::read(fd, buf + done, n - done);
    if (got == 0) {
      return Status::IOError("connection closed mid-frame");
    }
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status s = WaitFd(fd, POLLIN, deadline);
        if (!s.ok()) return s;
        continue;
      }
      return Status::IOError("read failed: " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(got);
  }
  return Status::Ok();
}

}  // namespace

Status WriteAllBytes(int fd, const char* data, size_t size,
                     const Deadline& deadline) {
  size_t done = 0;
  while (done < size) {
    ssize_t put = ::write(fd, data + done, size - done);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        Status s = WaitFd(fd, POLLOUT, deadline);
        if (!s.ok()) return s;
        continue;
      }
      return Status::IOError("write failed: " +
                             std::string(std::strerror(errno)));
    }
    done += static_cast<size_t>(put);
  }
  return Status::Ok();
}

StatusOr<Frame> ReadFrame(int fd, const Deadline& deadline) {
  char raw[kFrameHeaderBytes];
  Status s = ReadExact(fd, raw, kFrameHeaderBytes, deadline);
  if (!s.ok()) return s;
  FrameHeader header;
  s = DecodeFrameHeaderPrefix(raw, kFrameHeaderBytes, &header);
  if (!s.ok()) return s;
  std::string payload(header.payload_bytes, '\0');
  if (!payload.empty()) {
    s = ReadExact(fd, payload.data(), payload.size(), deadline);
    if (!s.ok()) return s;
  }
  return FrameOf(header, std::move(payload));
}

// ---------------------------------------------------------------------------
// Payload readers/writers
// ---------------------------------------------------------------------------

void WireWriter::U32(uint32_t v) {
  out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WireWriter::U64(uint64_t v) {
  out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WireWriter::F64(double v) {
  out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void WireWriter::Bytes(std::string_view data) {
  U64(data.size());
  if (!data.empty()) out_.append(data.data(), data.size());
}

Status WireReader::Raw(void* out, size_t n) {
  if (data_.size() - pos_ < n) {
    return Status::Corruption("truncated message payload");
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status WireReader::U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
Status WireReader::U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
Status WireReader::F64(double* v) { return Raw(v, sizeof(*v)); }

Status WireReader::Bytes(std::string* out) {
  uint64_t len = 0;
  Status s = U64(&len);
  if (!s.ok()) return s;
  if (len > data_.size() - pos_) {
    return Status::Corruption("byte string length exceeds payload");
  }
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::Ok();
}

Status WireReader::ExpectDone() const {
  return Done() ? Status::Ok()
                : Status::Corruption("trailing bytes after message payload");
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::string EncodeServerInfo(const ServerInfoMsg& msg) {
  WireWriter w;
  w.U64(msg.node_begin);
  w.U64(msg.node_end);
  w.U64(msg.total_entries);
  w.U32(msg.k);
  w.U32(msg.flavor);
  w.F64(msg.rank_sup);
  return w.Take();
}

StatusOr<ServerInfoMsg> DecodeServerInfo(std::string_view payload) {
  ServerInfoMsg msg;
  WireReader r(payload);
  Status s;
  if (!(s = r.U64(&msg.node_begin)).ok()) return s;
  if (!(s = r.U64(&msg.node_end)).ok()) return s;
  if (!(s = r.U64(&msg.total_entries)).ok()) return s;
  if (!(s = r.U32(&msg.k)).ok()) return s;
  if (!(s = r.U32(&msg.flavor)).ok()) return s;
  if (!(s = r.F64(&msg.rank_sup)).ok()) return s;
  if (!(s = r.ExpectDone()).ok()) return s;
  if (msg.node_begin > msg.node_end) {
    return Status::Corruption("server info range inverted");
  }
  // Bound the range to the NodeId space: consumers size per-node buffers
  // from node_end (ExecuteRemoteSweep calls Begin with it), so an
  // unchecked 2^63 here would be an allocation bomb, not a fleet.
  if (msg.node_end > std::numeric_limits<NodeId>::max()) {
    return Status::Corruption("server info range exceeds the node space");
  }
  if (msg.flavor > static_cast<uint32_t>(SketchFlavor::kKPartition)) {
    return Status::Corruption("server info names an unknown sketch flavor");
  }
  return msg;
}

std::string EncodePointRequest(const PointRequestMsg& msg) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(msg.kind));
  w.U64(msg.node);
  w.U64(msg.other);
  w.F64(msg.d);
  w.U64(msg.targets.size());
  for (uint64_t t : msg.targets) w.U64(t);
  return w.Take();
}

StatusOr<PointRequestMsg> DecodePointRequest(std::string_view payload) {
  PointRequestMsg msg;
  WireReader r(payload);
  Status s;
  uint32_t kind = 0;
  if (!(s = r.U32(&kind)).ok()) return s;
  if (kind < static_cast<uint32_t>(PointKind::kNodeStats) ||
      kind > static_cast<uint32_t>(PointKind::kFetchSketch)) {
    return Status::Corruption("unknown point request kind");
  }
  msg.kind = static_cast<PointKind>(kind);
  if (!(s = r.U64(&msg.node)).ok()) return s;
  if (!(s = r.U64(&msg.other)).ok()) return s;
  if (!(s = r.F64(&msg.d)).ok()) return s;
  if (std::isnan(msg.d)) {
    return Status::Corruption("point request distance is NaN");
  }
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / sizeof(uint64_t)) {
    return Status::Corruption("point request target count exceeds payload");
  }
  msg.targets.resize(count);
  for (uint64_t& t : msg.targets) {
    if (!(s = r.U64(&t)).ok()) return s;
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodePointResponse(const PointResponseMsg& msg) {
  WireWriter w;
  w.U64(msg.values.size());
  for (double v : msg.values) w.F64(v);
  w.Bytes(msg.entries.empty()
              ? std::string_view()
              : std::string_view(
                    reinterpret_cast<const char*>(msg.entries.data()),
                    msg.entries.size() * sizeof(AdsEntry)));
  return w.Take();
}

StatusOr<PointResponseMsg> DecodePointResponse(std::string_view payload) {
  PointResponseMsg msg;
  WireReader r(payload);
  Status s;
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / sizeof(double)) {
    return Status::Corruption("point response value count exceeds payload");
  }
  msg.values.resize(count);
  for (double& v : msg.values) {
    if (!(s = r.F64(&v)).ok()) return s;
  }
  std::string entries;
  if (!(s = r.Bytes(&entries)).ok()) return s;
  if (!(s = r.ExpectDone()).ok()) return s;
  if (entries.size() % sizeof(AdsEntry) != 0) {
    return Status::Corruption("sketch bytes are not whole AdsEntry records");
  }
  msg.entries.resize(entries.size() / sizeof(AdsEntry));
  if (!entries.empty()) {
    std::memcpy(msg.entries.data(), entries.data(), entries.size());
  }
  return msg;
}

namespace {

// Rebuilds a Status from a wire (code, message) pair; false when the code
// names no known Status::Code. kOk yields Status::Ok() — callers decide
// whether an Ok is legal in their context (error frames say no, batch
// response entries say yes).
bool StatusFromWire(uint32_t code, std::string message, Status* out) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      *out = Status::Ok();
      return true;
    case Status::Code::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(message));
      return true;
    case Status::Code::kNotFound:
      *out = Status::NotFound(std::move(message));
      return true;
    case Status::Code::kIOError:
      *out = Status::IOError(std::move(message));
      return true;
    case Status::Code::kCorruption:
      *out = Status::Corruption(std::move(message));
      return true;
    case Status::Code::kDeadlineExceeded:
      *out = Status::DeadlineExceeded(std::move(message));
      return true;
    case Status::Code::kUnavailable:
      *out = Status::Unavailable(std::move(message));
      return true;
  }
  return false;
}

}  // namespace

std::string EncodePointBatchRequestRaw(
    const std::vector<std::string>& encoded_entries) {
  WireWriter w;
  w.U64(encoded_entries.size());
  for (const std::string& e : encoded_entries) w.Bytes(e);
  return w.Take();
}

std::string EncodePointBatchRequest(const PointBatchRequestMsg& msg) {
  WireWriter w;
  w.U64(msg.entries.size());
  for (const PointRequestMsg& e : msg.entries) w.Bytes(EncodePointRequest(e));
  return w.Take();
}

StatusOr<PointBatchRequestMsg> DecodePointBatchRequest(
    std::string_view payload) {
  PointBatchRequestMsg msg;
  WireReader r(payload);
  Status s;
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > kMaxPointBatchEntries) {
    return Status::Corruption(
        "point batch entry count exceeds the protocol bound");
  }
  if (count > payload.size() / sizeof(uint64_t)) {
    return Status::Corruption("point batch entry count exceeds payload");
  }
  msg.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string entry;
    if (!(s = r.Bytes(&entry)).ok()) return s;
    StatusOr<PointRequestMsg> decoded = DecodePointRequest(entry);
    if (!decoded.ok()) return decoded.status();
    msg.entries.push_back(std::move(decoded).value());
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodePointBatchResponse(const PointBatchResponseMsg& msg) {
  WireWriter w;
  w.U64(msg.entries.size());
  for (const PointBatchResponseEntry& e : msg.entries) {
    w.U32(static_cast<uint32_t>(e.status.code()));
    w.Bytes(e.status.message());
    w.Bytes(e.status.ok() ? std::string_view(e.payload) : std::string_view());
  }
  return w.Take();
}

StatusOr<PointBatchResponseMsg> DecodePointBatchResponse(
    std::string_view payload) {
  PointBatchResponseMsg msg;
  WireReader r(payload);
  Status s;
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > kMaxPointBatchEntries) {
    return Status::Corruption(
        "point batch entry count exceeds the protocol bound");
  }
  if (count > payload.size() / 20) {  // 1 u32 + 2 length prefixes per entry
    return Status::Corruption("point batch entry count exceeds payload");
  }
  msg.entries.resize(count);
  for (PointBatchResponseEntry& e : msg.entries) {
    uint32_t code = 0;
    std::string message;
    std::string body;
    if (!(s = r.U32(&code)).ok()) return s;
    if (!(s = r.Bytes(&message)).ok()) return s;
    if (!(s = r.Bytes(&body)).ok()) return s;
    if (code == static_cast<uint32_t>(Status::Code::kOk) && !message.empty()) {
      return Status::Corruption("ok batch entry carries an error message");
    }
    if (code != static_cast<uint32_t>(Status::Code::kOk) && !body.empty()) {
      return Status::Corruption(
          "failed batch entry carries a response payload");
    }
    if (!StatusFromWire(code, std::move(message), &e.status)) {
      return Status::Corruption("batch entry names an unknown status code");
    }
    if (e.status.ok()) {
      // Validate the inner payload now — consumers forward these bytes as
      // single-response payloads and must be able to trust them.
      StatusOr<PointResponseMsg> decoded = DecodePointResponse(body);
      if (!decoded.ok()) return decoded.status();
      e.payload = std::move(body);
    }
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodeSweepRequest(const SweepRequestMsg& msg) {
  WireWriter w;
  w.U32(msg.num_threads);
  w.U64(msg.collectors.size());
  for (const CollectorSpec& c : msg.collectors) {
    w.U32(static_cast<uint32_t>(c.kind));
    w.U32(c.aux);
    w.U32(c.count);
    w.F64(c.param);
  }
  return w.Take();
}

StatusOr<SweepRequestMsg> DecodeSweepRequest(std::string_view payload) {
  SweepRequestMsg msg;
  WireReader r(payload);
  Status s;
  if (!(s = r.U32(&msg.num_threads)).ok()) return s;
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / 20) {  // 3 u32 + 1 f64 per spec
    return Status::Corruption("collector count exceeds payload");
  }
  msg.collectors.resize(count);
  for (CollectorSpec& c : msg.collectors) {
    uint32_t kind = 0;
    if (!(s = r.U32(&kind)).ok()) return s;
    if (kind < static_cast<uint32_t>(CollectorKind::kDistanceHistogram) ||
        kind > static_cast<uint32_t>(CollectorKind::kQg)) {
      return Status::Corruption("unknown collector kind");
    }
    c.kind = static_cast<CollectorKind>(kind);
    if (!(s = r.U32(&c.aux)).ok()) return s;
    if (!(s = r.U32(&c.count)).ok()) return s;
    if (!(s = r.F64(&c.param)).ok()) return s;
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodeSweepResponse(const SweepResponseMsg& msg) {
  WireWriter w;
  w.U64(msg.begin);
  w.U64(msg.end);
  w.U64(msg.partials.size());
  for (const std::string& p : msg.partials) w.Bytes(p);
  return w.Take();
}

StatusOr<SweepResponseMsg> DecodeSweepResponse(std::string_view payload) {
  SweepResponseMsg msg;
  WireReader r(payload);
  Status s;
  if (!(s = r.U64(&msg.begin)).ok()) return s;
  if (!(s = r.U64(&msg.end)).ok()) return s;
  if (msg.begin > msg.end) {
    return Status::Corruption("sweep response range inverted");
  }
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / sizeof(uint64_t)) {
    return Status::Corruption("partial count exceeds payload");
  }
  msg.partials.resize(count);
  for (std::string& p : msg.partials) {
    if (!(s = r.Bytes(&p)).ok()) return s;
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodeError(const Status& status) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Bytes(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload) {
  WireReader r(payload);
  uint32_t code = 0;
  std::string message;
  Status s;
  if (!(s = r.U32(&code)).ok()) return s;
  if (!(s = r.Bytes(&message)).ok()) return s;
  if (!(s = r.ExpectDone()).ok()) return s;
  Status decoded;
  if (!StatusFromWire(code, std::move(message), &decoded)) {
    return Status::Corruption("error frame with unknown status code");
  }
  if (decoded.ok()) {
    // An error frame must carry an error; treat Ok as tampering.
    return Status::Corruption("error frame with Ok status");
  }
  return decoded;
}

std::string EncodeStatsRequest(const StatsRequestMsg& msg) {
  WireWriter w;
  w.U32(msg.flags);
  return w.Take();
}

StatusOr<StatsRequestMsg> DecodeStatsRequest(std::string_view payload) {
  StatsRequestMsg msg;
  WireReader r(payload);
  Status s;
  if (!(s = r.U32(&msg.flags)).ok()) return s;
  if (!(s = r.ExpectDone()).ok()) return s;
  if ((msg.flags & ~kStatsFlagTraceSpans) != 0) {
    return Status::Corruption("stats request carries unknown flags");
  }
  return msg;
}

namespace {

void EncodeMetricsSnapshot(const MetricsSnapshot& snap, WireWriter* w) {
  w->U64(snap.counters.size());
  for (const MetricsSnapshot::CounterValue& c : snap.counters) {
    w->Bytes(c.name);
    w->U64(c.value);
  }
  w->U64(snap.gauges.size());
  for (const MetricsSnapshot::GaugeValue& g : snap.gauges) {
    w->Bytes(g.name);
    w->U64(static_cast<uint64_t>(g.value));
  }
  w->U64(snap.histograms.size());
  for (const MetricsSnapshot::HistogramValue& h : snap.histograms) {
    w->Bytes(h.name);
    w->U64(h.count);
    w->U64(h.sum);
    w->U64(h.buckets.size());
    for (uint64_t b : h.buckets) w->U64(b);
  }
}

Status DecodeMetricsSnapshot(std::string_view payload, WireReader* r,
                             MetricsSnapshot* out) {
  Status s;
  uint64_t count = 0;
  if (!(s = r->U64(&count)).ok()) return s;
  if (count > payload.size() / 16) {  // length prefix + value per counter
    return Status::Corruption("stats counter count exceeds payload");
  }
  out->counters.resize(count);
  for (MetricsSnapshot::CounterValue& c : out->counters) {
    if (!(s = r->Bytes(&c.name)).ok()) return s;
    if (!(s = r->U64(&c.value)).ok()) return s;
  }
  if (!(s = r->U64(&count)).ok()) return s;
  if (count > payload.size() / 16) {
    return Status::Corruption("stats gauge count exceeds payload");
  }
  out->gauges.resize(count);
  for (MetricsSnapshot::GaugeValue& g : out->gauges) {
    uint64_t bits = 0;
    if (!(s = r->Bytes(&g.name)).ok()) return s;
    if (!(s = r->U64(&bits)).ok()) return s;
    g.value = static_cast<int64_t>(bits);
  }
  if (!(s = r->U64(&count)).ok()) return s;
  if (count > payload.size() / 32) {  // prefix + count + sum + bucket count
    return Status::Corruption("stats histogram count exceeds payload");
  }
  out->histograms.resize(count);
  for (MetricsSnapshot::HistogramValue& h : out->histograms) {
    if (!(s = r->Bytes(&h.name)).ok()) return s;
    if (!(s = r->U64(&h.count)).ok()) return s;
    if (!(s = r->U64(&h.sum)).ok()) return s;
    uint64_t buckets = 0;
    if (!(s = r->U64(&buckets)).ok()) return s;
    if (buckets > payload.size() / sizeof(uint64_t)) {
      return Status::Corruption("stats bucket count exceeds payload");
    }
    h.buckets.resize(buckets);
    for (uint64_t& b : h.buckets) {
      if (!(s = r->U64(&b)).ok()) return s;
    }
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeStatsResponse(const StatsResponseMsg& msg) {
  WireWriter w;
  w.U64(msg.snapshots.size());
  for (const StatsSnapshotMsg& snap : msg.snapshots) {
    w.Bytes(snap.label);
    EncodeMetricsSnapshot(snap.metrics, &w);
  }
  w.U64(msg.spans.size());
  for (const TraceSpanMsg& span : msg.spans) {
    w.Bytes(span.label);
    w.Bytes(span.name);
    w.U64(span.trace_hi);
    w.U64(span.trace_lo);
    w.U64(span.start_us);
    w.U64(span.dur_us);
  }
  return w.Take();
}

StatusOr<StatsResponseMsg> DecodeStatsResponse(std::string_view payload) {
  StatsResponseMsg msg;
  WireReader r(payload);
  Status s;
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / 32) {  // label + three instrument counts
    return Status::Corruption("stats snapshot count exceeds payload");
  }
  msg.snapshots.resize(count);
  for (StatsSnapshotMsg& snap : msg.snapshots) {
    if (!(s = r.Bytes(&snap.label)).ok()) return s;
    if (!(s = DecodeMetricsSnapshot(payload, &r, &snap.metrics)).ok()) {
      return s;
    }
  }
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / 48) {  // two length prefixes + four u64s
    return Status::Corruption("stats span count exceeds payload");
  }
  msg.spans.resize(count);
  for (TraceSpanMsg& span : msg.spans) {
    if (!(s = r.Bytes(&span.label)).ok()) return s;
    if (!(s = r.Bytes(&span.name)).ok()) return s;
    if (!(s = r.U64(&span.trace_hi)).ok()) return s;
    if (!(s = r.U64(&span.trace_lo)).ok()) return s;
    if (!(s = r.U64(&span.start_us)).ok()) return s;
    if (!(s = r.U64(&span.dur_us)).ok()) return s;
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

// ---------------------------------------------------------------------------
// Spec materialization
// ---------------------------------------------------------------------------

namespace {

std::function<double(const HipEstimator&)> ScoreFn(ScoreKind kind) {
  switch (kind) {
    case ScoreKind::kHarmonic:
      return [](const HipEstimator& est) { return est.HarmonicCentrality(); };
    case ScoreKind::kDistanceSum:
      return [](const HipEstimator& est) { return est.DistanceSum(); };
    case ScoreKind::kReachable:
      return [](const HipEstimator& est) { return est.ReachableCount(); };
  }
  return nullptr;
}

std::function<double(NodeId, double)> QgFn(QgKind kind, double param) {
  switch (kind) {
    case QgKind::kExpDecay:
      return [param](NodeId, double d) { return std::pow(param, d); };
    case QgKind::kInverseSquare:
      return [](NodeId, double d) { return 1.0 / ((1.0 + d) * (1.0 + d)); };
  }
  return nullptr;
}

}  // namespace

StatusOr<std::vector<SweepCollector*>> BuildPlanFromSpec(
    const std::vector<CollectorSpec>& spec, SweepPlan* plan) {
  std::vector<SweepCollector*> built;
  built.reserve(spec.size());
  for (const CollectorSpec& c : spec) {
    switch (c.kind) {
      case CollectorKind::kDistanceHistogram:
        built.push_back(plan->Emplace<DistanceHistogramCollector>());
        break;
      case CollectorKind::kDistanceSum:
        built.push_back(plan->Emplace<DistanceSumCollector>());
        break;
      case CollectorKind::kHarmonic:
        built.push_back(plan->Emplace<HarmonicCentralityCollector>());
        break;
      case CollectorKind::kNeighborhoodSize:
        if (!(c.param >= 0.0)) {
          return Status::InvalidArgument(
              "neighborhood-size collector needs a distance >= 0");
        }
        built.push_back(plan->Emplace<NeighborhoodSizeCollector>(c.param));
        break;
      case CollectorKind::kReachableCount:
        built.push_back(plan->Emplace<ReachableCountCollector>());
        break;
      case CollectorKind::kTopK: {
        auto fn = ScoreFn(static_cast<ScoreKind>(c.aux));
        if (fn == nullptr) {
          return Status::InvalidArgument("top-k spec names an unknown score");
        }
        built.push_back(plan->Emplace<TopKCollector>(c.count, std::move(fn)));
        break;
      }
      case CollectorKind::kDistanceQuantile:
        if (!(c.param > 0.0 && c.param <= 1.0)) {
          return Status::InvalidArgument(
              "distance-quantile collector needs 0 < q <= 1");
        }
        built.push_back(plan->Emplace<DistanceQuantileCollector>(c.param));
        break;
      case CollectorKind::kQg: {
        if (!std::isfinite(c.param)) {
          return Status::InvalidArgument("Qg parameter must be finite");
        }
        auto g = QgFn(static_cast<QgKind>(c.aux), c.param);
        if (g == nullptr) {
          return Status::InvalidArgument(
              "Qg spec names an unknown g function");
        }
        built.push_back(plan->Emplace<QgCollector>(std::move(g)));
        break;
      }
    }
  }
  return built;
}

std::string SweepSpecCacheKey(const std::vector<CollectorSpec>& spec) {
  WireWriter w;
  w.U64(spec.size());
  for (const CollectorSpec& c : spec) {
    w.U32(static_cast<uint32_t>(c.kind));
    w.U32(c.aux);
    w.U32(c.count);
    w.F64(c.param);
  }
  return w.Take();
}

Status AbsorbSweepResponse(const SweepResponseMsg& response,
                           const std::vector<SweepCollector*>& collectors) {
  if (response.partials.size() != collectors.size()) {
    return Status::Corruption(
        "sweep response partial count does not match the plan");
  }
  if (response.end > std::numeric_limits<NodeId>::max()) {
    return Status::Corruption("sweep response range exceeds the node space");
  }
  for (size_t i = 0; i < collectors.size(); ++i) {
    Status s = collectors[i]->AbsorbPartial(
        static_cast<NodeId>(response.begin),
        static_cast<NodeId>(response.end), response.partials[i]);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

bool ParseScoreKind(const std::string& name, ScoreKind* out) {
  if (name == "harmonic") {
    *out = ScoreKind::kHarmonic;
  } else if (name == "distsum") {
    *out = ScoreKind::kDistanceSum;
  } else if (name == "reach") {
    *out = ScoreKind::kReachable;
  } else {
    return false;
  }
  return true;
}

const char* ScoreKindName(ScoreKind kind) {
  switch (kind) {
    case ScoreKind::kHarmonic:
      return "harmonic";
    case ScoreKind::kDistanceSum:
      return "distsum";
    case ScoreKind::kReachable:
      return "reach";
  }
  return "?";
}

bool ParseQgKind(const std::string& name, QgKind* out) {
  if (name == "exp") {
    *out = QgKind::kExpDecay;
  } else if (name == "invsq") {
    *out = QgKind::kInverseSquare;
  } else {
    return false;
  }
  return true;
}

}  // namespace hipads
