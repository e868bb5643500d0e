#include "serve/protocol.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
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

// Checks `payload` against a validated header's length and checksum.
Status CheckPayload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_bytes) {
    return Status::Corruption("frame payload size mismatch");
  }
  if (FrameChecksum(header.raw, payload) != header.checksum) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::Ok();
}

// Assembles the decoded frame of a validated header and its payload.
Frame FrameOf(const FrameHeader& header, std::string payload) {
  Frame frame;
  frame.type = header.type;
  frame.payload = std::move(payload);
  frame.deadline_ms = header.deadline_ms;
  frame.trace_hi = header.trace_hi;
  frame.trace_lo = header.trace_lo;
  return frame;
}

}  // namespace

Status DecodeFrameView(std::string_view data, FrameHeader* header,
                       std::string_view* payload) {
  Status s = DecodeFrameHeaderPrefix(data.data(), data.size(), header);
  if (!s.ok()) return s;
  if (data.size() != kFrameHeaderBytes + header->payload_bytes) {
    return Status::Corruption("frame length does not match its header");
  }
  *payload = data.substr(kFrameHeaderBytes);
  return CheckPayload(*header, *payload);
}

StatusOr<Frame> DecodeFrame(std::string_view data) {
  FrameHeader header;
  std::string_view payload;
  Status s = DecodeFrameView(data, &header, &payload);
  if (!s.ok()) return s;
  return FrameOf(header, std::string(payload));
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

bool ReadPayload(std::string* buf, uint64_t n,
                 const std::function<bool(char*, size_t)>& read_exact) {
  const size_t base = buf->size();
  for (uint64_t done = 0; done < n;) {
    const uint64_t chunk = std::min<uint64_t>(
        n - done, std::max<uint64_t>(kFirstPayloadChunk, done));
    buf->resize(base + done + chunk);
    if (!read_exact(buf->data() + base + done, chunk)) return false;
    done += chunk;
  }
  return true;
}

StatusOr<Frame> ReadFrame(int fd, const Deadline& deadline) {
  // The caller has just sent its request, so the response has rarely
  // arrived yet: wait first instead of after a read that would fail. The
  // wait's own result is not needed — ReadExact reads whatever has
  // arrived, and when nothing has it waits again and reports the deadline
  // or the error itself.
  (void)WaitFd(fd, POLLIN, deadline);
  char raw[kFrameHeaderBytes];
  Status s = ReadExact(fd, raw, kFrameHeaderBytes, deadline);
  if (!s.ok()) return s;
  FrameHeader header;
  s = DecodeFrameHeaderPrefix(raw, kFrameHeaderBytes, &header);
  if (!s.ok()) return s;
  std::string payload;
  if (!ReadPayload(&payload, header.payload_bytes,
                   [&](char* dst, size_t len) {
                     s = ReadExact(fd, dst, len, deadline);
                     return s.ok();
                   })) {
    return s;
  }
  s = CheckPayload(header, payload);
  if (!s.ok()) return s;
  return FrameOf(header, std::move(payload));
}

// ---------------------------------------------------------------------------
// Payload readers/writers
// ---------------------------------------------------------------------------

Status WireReader::Truncated() {
  return Status::Corruption("truncated message payload");
}

Status WireReader::Trailing() {
  return Status::Corruption("trailing bytes after message payload");
}

Status WireReader::Bytes(std::string* out) {
  std::string_view view;
  Status s = Bytes(&view);
  if (s.ok()) out->assign(view);
  return s;
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

std::string EncodeServerInfo(const ServerInfoMsg& msg) {
  WireWriter w(8 + 8 + 8 + 4 + 4 + 8);
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

namespace {

// Byte size of a point request's encoding.
size_t PointRequestBytes(const PointRequestMsg& msg) {
  return 4 + 8 + 8 + 8 + 8 + 8 * msg.targets.size();
}

void WritePointRequest(const PointRequestMsg& msg, WireWriter* w) {
  w->U32(static_cast<uint32_t>(msg.kind));
  w->U64(msg.node);
  w->U64(msg.other);
  w->F64(msg.d);
  w->U64(msg.targets.size());
  if (!msg.targets.empty()) {
    w->Raw(msg.targets.data(), msg.targets.size() * sizeof(uint64_t));
  }
}

}  // namespace

std::string EncodePointRequest(const PointRequestMsg& msg) {
  WireWriter w(PointRequestBytes(msg));
  WritePointRequest(msg, &w);
  return w.Take();
}

StatusOr<PointRequestMsg> DecodePointRequest(std::string_view payload) {
  // The fields sit at fixed offsets: kind u32 at 0, node u64 at 4, other
  // u64 at 12, d f64 at 20, the target count u64 at 28 and the targets
  // from 36. They are checked in that order, so a payload fails at the
  // first field it lacks or breaks, as a field-by-field WireReader would.
  auto field = [payload](size_t at, auto* out) {
    if (payload.size() < at + sizeof(*out)) return false;
    std::memcpy(out, payload.data() + at, sizeof(*out));
    return true;
  };
  PointRequestMsg msg;
  uint32_t kind = 0;
  if (!field(0, &kind)) return WireReader::Truncated();
  if (kind < static_cast<uint32_t>(PointKind::kNodeStats) ||
      kind > static_cast<uint32_t>(PointKind::kFetchSketch)) {
    return Status::Corruption("unknown point request kind");
  }
  msg.kind = static_cast<PointKind>(kind);
  if (!field(4, &msg.node) || !field(12, &msg.other) || !field(20, &msg.d)) {
    return WireReader::Truncated();
  }
  if (std::isnan(msg.d)) {
    return Status::Corruption("point request distance is NaN");
  }
  uint64_t count = 0;
  if (!field(28, &count)) return WireReader::Truncated();
  if (count > payload.size() / sizeof(uint64_t)) {
    return Status::Corruption("point request target count exceeds payload");
  }
  const size_t target_bytes = payload.size() - 36;
  if (target_bytes < count * sizeof(uint64_t)) return WireReader::Truncated();
  if (target_bytes > count * sizeof(uint64_t)) return WireReader::Trailing();
  if (count > 0) {
    msg.targets.resize(count);
    std::memcpy(msg.targets.data(), payload.data() + 36, target_bytes);
  }
  return msg;
}

namespace {

// The one reading of a point response payload: its value bytes and its
// sketch bytes, as views. DecodePointResponse copies them out;
// ValidatePointResponse stops here, so the two accept the same bytes.
Status ReadPointResponse(std::string_view payload, std::string_view* values,
                         std::string_view* entries) {
  WireReader r(payload);
  Status s;
  uint64_t count = 0;
  if (!(s = r.U64(&count)).ok()) return s;
  if (count > payload.size() / sizeof(double)) {
    return Status::Corruption("point response value count exceeds payload");
  }
  if (!(s = r.Skip(count * sizeof(double), values)).ok()) return s;
  if (!(s = r.Bytes(entries)).ok()) return s;
  if (!(s = r.ExpectDone()).ok()) return s;
  if (entries->size() % sizeof(AdsEntry) != 0) {
    return Status::Corruption("sketch bytes are not whole AdsEntry records");
  }
  return Status::Ok();
}

}  // namespace

void AppendPointResponse(std::span<const double> values,
                         std::span<const AdsEntry> entries, std::string* out) {
  auto append = [out](const void* data, size_t n) {
    out->append(static_cast<const char*>(data), n);
  };
  const uint64_t count = values.size();
  const uint64_t sketch_bytes = entries.size_bytes();
  append(&count, sizeof(count));
  if (!values.empty()) append(values.data(), values.size_bytes());
  append(&sketch_bytes, sizeof(sketch_bytes));
  if (!entries.empty()) append(entries.data(), entries.size_bytes());
}

std::string EncodePointResponse(const PointResponseMsg& msg) {
  std::string out;
  out.reserve(8 + 8 * msg.values.size() + 8 +
              sizeof(AdsEntry) * msg.entries.size());
  AppendPointResponse(msg.values, msg.entries, &out);
  return out;
}

Status ValidatePointResponse(std::string_view payload) {
  std::string_view values, entries;
  return ReadPointResponse(payload, &values, &entries);
}

StatusOr<PointResponseMsg> DecodePointResponse(std::string_view payload) {
  std::string_view values, entries;
  Status s = ReadPointResponse(payload, &values, &entries);
  if (!s.ok()) return s;
  PointResponseMsg msg;
  msg.values.resize(values.size() / sizeof(double));
  if (!values.empty()) {
    std::memcpy(msg.values.data(), values.data(), values.size());
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
    std::span<const std::string_view> encoded_entries) {
  size_t bytes = 8;
  for (std::string_view e : encoded_entries) bytes += 8 + e.size();
  WireWriter w(bytes);
  w.U64(encoded_entries.size());
  for (std::string_view e : encoded_entries) w.Bytes(e);
  return w.Take();
}

std::string EncodePointBatchRequest(const PointBatchRequestMsg& msg) {
  return EncodePointBatchRequest(std::span<const PointRequestMsg>(msg.entries));
}

std::string EncodePointBatchRequest(std::span<const PointRequestMsg> entries) {
  size_t bytes = 8;
  for (const PointRequestMsg& e : entries) bytes += 8 + PointRequestBytes(e);
  WireWriter w(bytes);
  w.U64(entries.size());
  for (const PointRequestMsg& e : entries) {
    w.U64(PointRequestBytes(e));
    WritePointRequest(e, &w);
  }
  return w.Take();
}

StatusOr<PointBatchRequestMsg> DecodePointBatchRequest(
    std::string_view payload, std::vector<std::string_view>* raw) {
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
  if (raw != nullptr) {
    raw->clear();
    raw->reserve(count);
  }
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view entry;
    if (!(s = r.Bytes(&entry)).ok()) return s;
    StatusOr<PointRequestMsg> decoded = DecodePointRequest(entry);
    if (!decoded.ok()) return decoded.status();
    msg.entries.push_back(std::move(decoded).value());
    if (raw != nullptr) raw->push_back(entry);
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodePointBatchResponse(const PointBatchResponseMsg& msg) {
  size_t bytes = 8;
  for (const PointBatchEntryView& e : msg.entries) {
    bytes += 4 + 8 + e.status.message().size() + 8 +
             (e.status.ok() ? e.payload.size() : 0);
  }
  WireWriter w(bytes);
  w.U64(msg.entries.size());
  for (const PointBatchEntryView& e : msg.entries) {
    w.U32(static_cast<uint32_t>(e.status.code()));
    w.Bytes(e.status.message());
    w.Bytes(e.status.ok() ? e.payload : std::string_view());
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
  for (PointBatchEntryView& e : msg.entries) {
    uint32_t code = 0;
    std::string_view message;
    std::string_view body;
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
    if (code == static_cast<uint32_t>(Status::Code::kOk)) {
      // Validate the inner payload now — consumers forward these bytes as
      // single-response payloads and must be able to trust them. (The
      // entry's status is already Ok.)
      if (!(s = ValidatePointResponse(body)).ok()) return s;
      e.payload = body;
    } else if (!StatusFromWire(code, std::string(message), &e.status)) {
      return Status::Corruption("batch entry names an unknown status code");
    }
  }
  if (!(s = r.ExpectDone()).ok()) return s;
  return msg;
}

std::string EncodeSweepRequest(const SweepRequestMsg& msg) {
  WireWriter w(4 + 8 + 20 * msg.collectors.size());
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
  size_t bytes = 8 + 8 + 8;
  for (const std::string& p : msg.partials) bytes += 8 + p.size();
  WireWriter w(bytes);
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
  WireWriter w(4 + 8 + status.message().size());
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
  WireWriter w(4);
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

// Every wire-named score and g is a declared sum (ads/estimators.h), so
// the executor folds it into its one walk per node.
std::optional<HipSum> ScoreSum(ScoreKind kind) {
  switch (kind) {
    case ScoreKind::kHarmonic:
      return HipSum::Harmonic();
    case ScoreKind::kDistanceSum:
      return HipSum::DistanceSum();
    case ScoreKind::kReachable:
      return HipSum::Reachable();
  }
  return std::nullopt;
}

std::optional<HipSum> QgSum(QgKind kind, double param) {
  switch (kind) {
    case QgKind::kExpDecay:
      return HipSum::ExpDecay(param);
    case QgKind::kInverseSquare:
      return HipSum::InverseSquare();
  }
  return std::nullopt;
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
        auto score = ScoreSum(static_cast<ScoreKind>(c.aux));
        if (!score.has_value()) {
          return Status::InvalidArgument("top-k spec names an unknown score");
        }
        built.push_back(plan->Emplace<TopKCollector>(c.count, *score));
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
        auto g = QgSum(static_cast<QgKind>(c.aux), c.param);
        if (!g.has_value()) {
          return Status::InvalidArgument(
              "Qg spec names an unknown g function");
        }
        built.push_back(plan->Emplace<QgCollector>(*g));
        break;
      }
    }
  }
  return built;
}

std::string SweepSpecCacheKey(const std::vector<CollectorSpec>& spec) {
  WireWriter w(8 + 20 * spec.size());
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
