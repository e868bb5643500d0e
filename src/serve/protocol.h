// The hipads wire protocol: length-prefixed binary frames for serving
// ADS/HIP statistics across machines.
//
// The storage layer stops at the machine boundary — a ShardedAdsSet can
// hold a billion-node sketch set, but every query so far ran in-process.
// This protocol is the seam the distributed serving subsystem (server.h,
// router.h) speaks across it. It mirrors the hipads-ads-v2 on-disk
// conventions: one fixed 56-byte little-endian header carrying an 8-byte
// magic, version, message type, payload length, deadline budget and trace
// id, guarded by a whole-frame XXH64 checksum chained like the v2 file
// sections, so a receiver can validate structure before trusting a byte
// of the payload and reject truncated, oversized or corrupted frames
// deterministically. Deadline budgets are clamped to
// Deadline::kMaxBudgetMs where they become time points, so no budget a
// peer or a flag sends can overflow the clock.
//
// Two request families cross the wire:
//
//   * Point requests — node-local lookups (per-node stats, sketch-member
//     distances, Jaccard similarity, raw sketch fetch). One node in, a few
//     doubles (or one sketch) out.
//   * Sweep requests — a serialized SweepPlan: the ordered list of
//     collector specs to fuse into ONE pass over the serving backend
//     (ads/sweep.h). The response carries each collector's partial state
//     for the server's contiguous node range; a gather step absorbs the
//     partials in node order to reproduce the single-process result
//     bitwise (the SweepCollector::EncodePartial/AbsorbPartial contract).
//
// Collector specs are closed enums, not code: the wire names a collector
// kind plus scalar parameters, and BuildPlanFromSpec materializes the same
// collector objects on both sides. Statistics parameterized by arbitrary
// std::functions (ClosenessCollector's alpha/beta, custom-g QgCollector)
// are in-process-only; the wire offers named g functions instead.

#ifndef HIPADS_SERVE_PROTOCOL_H_
#define HIPADS_SERVE_PROTOCOL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ads/ads.h"
#include "ads/sweep.h"
#include "util/metrics.h"
#include "util/status.h"

namespace hipads {

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// An absolute point in time a request must complete by, or "none".
/// Deadlines are carried on the wire as *remaining milliseconds* (absolute
/// clocks do not agree across machines): the sender re-anchors the
/// remaining budget at encode time, the receiver re-anchors it at frame
/// arrival. Each hop therefore inherits (budget - elapsed-so-far), which
/// is exactly the propagation a scatter/gather tree needs.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// No deadline: never expires, encodes as 0 on the wire.
  Deadline() = default;

  /// The longest budget a deadline holds: 2^40 ms, about 35 years. Every
  /// budget becomes a time point through AfterMs, which clamps it here,
  /// so a huge budget from a frame header or a flag is a far deadline,
  /// never an overflowed (expired or undefined) one.
  static constexpr uint64_t kMaxBudgetMs = uint64_t{1} << 40;

  static Deadline At(Clock::time_point at) { return Deadline(at, true); }
  static Deadline AfterMs(uint64_t ms, Clock::time_point now = Clock::now()) {
    return At(now + std::chrono::milliseconds(std::min(ms, kMaxBudgetMs)));
  }
  /// Decodes a wire value (0 = none) relative to the receiver's clock.
  static Deadline FromWireMs(uint64_t ms,
                             Clock::time_point now = Clock::now()) {
    return ms == 0 ? Deadline() : AfterMs(ms, now);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point at() const { return at_; }

  bool Expired(Clock::time_point now = Clock::now()) const {
    return has_deadline_ && now >= at_;
  }

  /// Remaining budget in ms, clamped to >= 1 while unexpired so an
  /// in-flight request never accidentally encodes the "no deadline" 0;
  /// 0 once expired. Meaningless without a deadline (callers check).
  uint64_t RemainingMs(Clock::time_point now = Clock::now()) const {
    if (!has_deadline_) return 0;
    if (now >= at_) return 0;
    auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(at_ - now)
            .count();
    return ms < 1 ? 1 : static_cast<uint64_t>(ms);
  }

  /// The wire form: remaining ms (>= 1) with a deadline, 0 without.
  uint64_t ToWireMs(Clock::time_point now = Clock::now()) const {
    if (!has_deadline_) return 0;
    uint64_t ms = RemainingMs(now);
    return ms == 0 ? 1 : ms;  // expired still encodes a deadline
  }

  /// The earlier of two deadlines ("none" is latest possible).
  static Deadline Min(const Deadline& a, const Deadline& b) {
    if (!a.has_deadline_) return b;
    if (!b.has_deadline_) return a;
    return a.at_ <= b.at_ ? a : b;
  }

 private:
  Deadline(Clock::time_point at, bool has) : at_(at), has_deadline_(has) {}

  Clock::time_point at_{};
  bool has_deadline_ = false;
};

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Leading magic of every hipads wire frame ("hipadsr1": rpc format 1).
inline constexpr char kWireMagic[8] = {'h', 'i', 'p', 'a', 'd', 's', 'r', '1'};

/// The one accepted wire version. Every frame — request or response,
/// any message type — carries the same fixed header:
///
///   offset  bytes  field
///        0      8  magic "hipadsr1"
///        8      4  version (6)
///       12      4  message type
///       16      8  payload length
///       24      8  checksum: XXH64 of the payload, seeded with the
///                  XXH64 (seed 0) of the header with this field zeroed
///       32      8  deadline: remaining milliseconds, 0 = none
///       40      8  trace id, high word  } both 0 = untraced
///       48      8  trace id, low word   }
///
/// Any other version — including 1-4, whose headers were 32 to 56 bytes,
/// and 5, this layout under an FNV-1a checksum — is rejected at header
/// validation, so an older peer fails closed instead of being misread.
inline constexpr uint32_t kWireVersion = 6;

/// Fixed byte size of every frame header on the wire.
inline constexpr size_t kFrameHeaderBytes = 56;

/// Hard cap on a frame's payload. A length-prefixed protocol must bound the
/// prefix before allocating, or a corrupt/hostile 8-byte length field turns
/// into an allocation bomb; anything larger than this is rejected at header
/// validation, before any payload byte is read.
inline constexpr uint64_t kMaxFramePayload = 1ull << 30;

/// Message types. Requests and responses share the frame format; kError is
/// the response to any request that failed (payload: ErrorMsg).
enum class MessageType : uint32_t {
  kError = 0,
  kInfoRequest = 1,
  kInfoResponse = 2,
  kPointRequest = 3,
  kPointResponse = 4,
  kSweepRequest = 5,
  kSweepResponse = 6,
  // N point requests in one checksummed frame, per-entry status back.
  kPointBatchRequest = 7,
  kPointBatchResponse = 8,
  // Scrape of the serving process's metrics registry (a router answers
  // with its own snapshot plus every range server's).
  kStatsRequest = 9,
  kStatsResponse = 10,
};

/// One decoded frame: the message type plus its raw payload bytes, the
/// deadline budget it carried (0 = none) and its trace id (zero =
/// untraced).
struct Frame {
  MessageType type = MessageType::kError;
  std::string payload;
  uint64_t deadline_ms = 0;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
};

/// Encodes a complete frame: the fixed header (see kWireVersion), then the
/// payload.
std::string EncodeFrame(MessageType type, std::string_view payload,
                        uint64_t deadline_ms = 0, uint64_t trace_hi = 0,
                        uint64_t trace_lo = 0);

/// Validated frame header, plus the raw header bytes the checksum needs.
struct FrameHeader {
  MessageType type = MessageType::kError;
  uint64_t payload_bytes = 0;
  uint64_t checksum = 0;
  uint64_t deadline_ms = 0;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  char raw[kFrameHeaderBytes] = {};
};

/// Validates the header held in the first kFrameHeaderBytes of `data`:
/// magic, version, known message type, payload length within
/// kMaxFramePayload. This is what a streaming receiver runs before
/// allocating or reading the payload. Bytes past the header are ignored.
Status DecodeFrameHeaderPrefix(const char* data, size_t size,
                               FrameHeader* out);

/// Decodes a complete frame from an in-memory buffer, which must contain
/// exactly one frame (header + payload, nothing trailing). Truncation, bad
/// magic/version/type, oversized lengths and checksum mismatches all fail
/// with Corruption.
StatusOr<Frame> DecodeFrame(std::string_view data);

// Frame I/O over a connected non-blocking socket: both poll the fd against
// `deadline` (none = wait forever) and fail with DeadlineExceeded when the
// budget runs out mid-transfer, or IOError on EOF / socket errors.
// ReadFrame rejects a malformed header before reading the payload.
StatusOr<Frame> ReadFrame(int fd, const Deadline& deadline);

/// Writes all of `data` to `fd`, retrying partial writes and EINTR.
Status WriteAllBytes(int fd, const char* data, size_t size,
                     const Deadline& deadline);

// ---------------------------------------------------------------------------
// Bounds-checked payload readers/writers
// ---------------------------------------------------------------------------

/// Appends little-endian scalars / length-prefixed blobs to a payload.
class WireWriter {
 public:
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  /// Length-prefixed (u64) byte string.
  void Bytes(std::string_view data);

  std::string Take() { return std::move(out_); }
  const std::string& data() const { return out_; }

 private:
  std::string out_;
};

/// Reads WireWriter-encoded payloads; every read is bounds-checked and
/// fails with Corruption instead of walking past the buffer — payloads
/// arrive from the network and are treated as attacker-shaped.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  /// Length-prefixed byte string; the length must fit the remaining bytes.
  Status Bytes(std::string* out);

  bool Done() const { return pos_ == data_.size(); }
  /// Fails unless the payload was consumed exactly (trailing garbage is
  /// corruption, mirroring the v1/v2 file parsers).
  Status ExpectDone() const;

 private:
  Status Raw(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// kInfoResponse: what a serving process holds. `node_begin`/`node_end` are
/// the GLOBAL node ids of the served range — a range server is launched
/// with its global offset; a router reports the whole fleet's [0, N).
struct ServerInfoMsg {
  uint64_t node_begin = 0;
  uint64_t node_end = 0;
  uint64_t total_entries = 0;
  uint32_t k = 0;
  uint32_t flavor = 0;  // SketchFlavor
  double rank_sup = 1.0;
};

std::string EncodeServerInfo(const ServerInfoMsg& msg);
StatusOr<ServerInfoMsg> DecodeServerInfo(std::string_view payload);

/// Point request kinds.
enum class PointKind : uint32_t {
  /// est(node): d finite -> {|N_d|}; d infinite -> {reachable, harmonic,
  /// distance sum}.
  kNodeStats = 1,
  /// Distances of `targets` inside ADS(node): one value per target, -1 when
  /// the target is not sketched.
  kLookup = 2,
  /// Jaccard similarity of N_d(node) and N_d(other): {jaccard, union
  /// cardinality}.
  kJaccard = 3,
  /// Raw sketch entries of ADS(node) (a router uses this to evaluate
  /// cross-server similarity locally).
  kFetchSketch = 4,
};

struct PointRequestMsg {
  PointKind kind = PointKind::kNodeStats;
  uint64_t node = 0;
  uint64_t other = 0;  // kJaccard only
  double d = 0.0;      // distance parameter; infinity = unbounded
  std::vector<uint64_t> targets;  // kLookup only
};

std::string EncodePointRequest(const PointRequestMsg& msg);
StatusOr<PointRequestMsg> DecodePointRequest(std::string_view payload);

struct PointResponseMsg {
  std::vector<double> values;
  std::vector<AdsEntry> entries;  // kFetchSketch only
};

std::string EncodePointResponse(const PointResponseMsg& msg);
StatusOr<PointResponseMsg> DecodePointResponse(std::string_view payload);

/// Hard cap on entries per point-batch frame. Bounded so a hostile count
/// cannot amplify into unbounded per-entry work, and small enough that the
/// byte-level fuzz loops (truncation at every offset) stay tractable.
/// Clients split larger batches across multiple frames.
inline constexpr size_t kMaxPointBatchEntries = 256;

/// kPointBatchRequest: N point requests — mixed kinds allowed —
/// in one checksummed frame. Each entry is carried as the canonical
/// EncodePointRequest bytes, so a server can key its point-response cache
/// per entry on exactly the payload a lone kPointRequest for the same
/// lookup would have: batches warm the cache single calls read, and vice
/// versa.
struct PointBatchRequestMsg {
  std::vector<PointRequestMsg> entries;
};

std::string EncodePointBatchRequest(const PointBatchRequestMsg& msg);
/// Same frame payload built from already-encoded single-request payloads
/// (the router coalesces pre-encoded requests without a decode/re-encode
/// round trip).
std::string EncodePointBatchRequestRaw(
    const std::vector<std::string>& encoded_entries);
StatusOr<PointBatchRequestMsg> DecodePointBatchRequest(
    std::string_view payload);

/// One entry of a kPointBatchResponse, in request order. Entries carry
/// their own status so one bad node doesn't poison the batch: an Ok entry
/// holds the encoded PointResponseMsg payload (exactly the bytes a lone
/// kPointResponse would carry — a batching router hands them back to each
/// caller unmodified, which is what makes batch answers bitwise-identical
/// to single calls), a failed entry holds the status and no payload.
struct PointBatchResponseEntry {
  Status status;
  std::string payload;  // encoded PointResponseMsg; empty unless ok
};

struct PointBatchResponseMsg {
  std::vector<PointBatchResponseEntry> entries;
};

std::string EncodePointBatchResponse(const PointBatchResponseMsg& msg);
StatusOr<PointBatchResponseMsg> DecodePointBatchResponse(
    std::string_view payload);

/// kStatsRequest flag: also ship the server's buffered trace spans in
/// the response (serve/trace.h) so `hipads trace-dump` can render them.
inline constexpr uint32_t kStatsFlagTraceSpans = 1;

/// kStatsRequest: scrape the serving process's metrics.
struct StatsRequestMsg {
  uint32_t flags = 0;  // kStatsFlag* bits
};

std::string EncodeStatsRequest(const StatsRequestMsg& msg);
StatusOr<StatsRequestMsg> DecodeStatsRequest(std::string_view payload);

/// One labeled registry snapshot inside a kStatsResponse. A range
/// server answers with a single snapshot labeled "server"; a router
/// prepends its own ("router") and relabels each gathered server
/// snapshot with that server's fleet address, so a scrape of the front
/// door sees the whole fleet's counters at once.
struct StatsSnapshotMsg {
  std::string label;
  MetricsSnapshot metrics;
};

/// One trace span inside a kStatsResponse (kStatsFlagTraceSpans), with
/// the label of the process that recorded it.
struct TraceSpanMsg {
  std::string label;
  std::string name;
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
};

struct StatsResponseMsg {
  std::vector<StatsSnapshotMsg> snapshots;
  std::vector<TraceSpanMsg> spans;
};

std::string EncodeStatsResponse(const StatsResponseMsg& msg);
StatusOr<StatsResponseMsg> DecodeStatsResponse(std::string_view payload);

/// Wire-expressible collector kinds (the serializable subset of the
/// ads/sweep.h collector library).
enum class CollectorKind : uint32_t {
  kDistanceHistogram = 1,
  kDistanceSum = 2,
  kHarmonic = 3,
  kNeighborhoodSize = 4,  // param = d
  kReachableCount = 5,
  kTopK = 6,              // count = k, aux = ScoreKind
  kDistanceQuantile = 7,  // param = q
  kQg = 8,                // aux = QgKind, param = its parameter
};

/// Per-node score functions a kTopK spec can rank by.
enum class ScoreKind : uint32_t {
  kHarmonic = 1,
  kDistanceSum = 2,
  kReachable = 3,
};

/// Named g functions for wire-side Q_g statistics (arbitrary std::function
/// g's cannot cross the wire).
enum class QgKind : uint32_t {
  kExpDecay = 1,       // g(j, d) = param^d   (0 < param < 1: decay sweep)
  kInverseSquare = 2,  // g(j, d) = 1 / (1 + d)^2
};

/// One serialized collector: kind + scalar parameters (unused fields 0).
struct CollectorSpec {
  CollectorKind kind = CollectorKind::kDistanceHistogram;
  uint32_t aux = 0;    // ScoreKind for kTopK, QgKind for kQg
  uint32_t count = 0;  // kTopK
  double param = 0.0;  // d / q / g parameter
};

struct SweepRequestMsg {
  std::vector<CollectorSpec> collectors;
  /// Threads the serving sweep should use (0 = server hardware count).
  /// Results are bitwise thread-count independent (the executor contract),
  /// so this is a resource hint, never a correctness knob.
  uint32_t num_threads = 1;
};

std::string EncodeSweepRequest(const SweepRequestMsg& msg);
StatusOr<SweepRequestMsg> DecodeSweepRequest(std::string_view payload);

/// kSweepResponse: the global node range the sweep covered plus one
/// EncodePartial blob per collector, in plan order.
struct SweepResponseMsg {
  uint64_t begin = 0;
  uint64_t end = 0;
  std::vector<std::string> partials;
};

std::string EncodeSweepResponse(const SweepResponseMsg& msg);
StatusOr<SweepResponseMsg> DecodeSweepResponse(std::string_view payload);

/// kError payload.
struct ErrorMsg {
  uint32_t code = 0;  // Status::Code
  std::string message;
};

std::string EncodeError(const Status& status);
/// Reconstructs the Status an error frame carries (Corruption if the error
/// payload itself is malformed).
Status DecodeError(std::string_view payload);

// ---------------------------------------------------------------------------
// Spec materialization
// ---------------------------------------------------------------------------

/// Builds the collector objects a spec list names into `plan` (owned by the
/// plan) and returns them in spec order. Both endpoints of a sweep RPC run
/// this on the same spec, so the serving sweep and the gathering merge use
/// identical collector configurations.
StatusOr<std::vector<SweepCollector*>> BuildPlanFromSpec(
    const std::vector<CollectorSpec>& spec, SweepPlan* plan);

/// Canonical cache key of a plan spec: the spec list's encoding with the
/// resource-hint fields (num_threads) excluded, so two requests for the
/// same statistics hit the same cached result whatever thread counts the
/// clients asked for. Immutable-backend servers key their sweep-response
/// cache on this.
std::string SweepSpecCacheKey(const std::vector<CollectorSpec>& spec);

/// Absorbs a sweep response into collectors built from the same spec
/// (helper shared by the router's gather and the remote-query client).
Status AbsorbSweepResponse(const SweepResponseMsg& response,
                           const std::vector<SweepCollector*>& collectors);

/// Name <-> enum helpers for the CLI's --centrality / --qg flags.
bool ParseScoreKind(const std::string& name, ScoreKind* out);
const char* ScoreKindName(ScoreKind kind);
bool ParseQgKind(const std::string& name, QgKind* out);

}  // namespace hipads

#endif  // HIPADS_SERVE_PROTOCOL_H_
