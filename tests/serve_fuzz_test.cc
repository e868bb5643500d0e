// Protocol robustness: the serving core must reject every malformed frame
// cleanly — error response or error status, never a crash, never a partial
// answer — because frames arrive from the network and are attacker-shaped.
// The suite drives AdsServerCore::HandleFrame and the payload decoders
// with systematic damage (truncation at every boundary, bad magic /
// version / type, oversized length prefixes, corrupted checksums and
// payload bytes) plus seeded random mutations; run under
// -DHIPADS_SANITIZE=address via the `serialize` ctest label.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "graph/generators.h"
#include "serve/server.h"

namespace hipads {
namespace {

// A small serving core the whole suite hammers.
struct Fixture {
  FlatAdsSet set;
  FlatAdsBackend backend;
  AdsServerCore core;

  Fixture()
      : set(FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
            ErdosRenyi(60, 180, true, 5), 4, SketchFlavor::kBottomK,
            RankAssignment::Uniform(6)))),
        backend(&set),
        core(&backend, ServerOptions{}) {}
};

// Every response HandleFrame produces must itself be a valid frame; a
// rejected request must come back as kError.
void ExpectCleanRejection(AdsServerCore& core, const std::string& frame,
                          const std::string& label) {
  bool close_connection = false;
  std::string response = core.HandleFrame(frame, &close_connection);
  auto decoded = DecodeFrame(response);
  ASSERT_TRUE(decoded.ok()) << label << ": response is not a frame";
  EXPECT_EQ(decoded.value().type, MessageType::kError) << label;
  EXPECT_FALSE(DecodeError(decoded.value().payload).ok()) << label;
}

// The corpus deliberately spans the whole wire surface — every
// MessageType request, every PointKind, every CollectorKind, every
// ScoreKind and QgKind — so the damage loops below mutate frames of
// every shape the protocol can carry (hipads-lint rule HL004 enforces
// the coverage).
std::vector<std::string> ValidRequestFrames() {
  std::vector<std::string> frames;
  frames.push_back(EncodeFrame(MessageType::kInfoRequest, ""));
  auto point_frame = [&frames](const PointRequestMsg& msg) {
    frames.push_back(
        EncodeFrame(MessageType::kPointRequest, EncodePointRequest(msg)));
  };
  PointRequestMsg lookup;
  lookup.kind = PointKind::kLookup;
  lookup.node = 3;
  lookup.targets = {1, 2, 3};
  point_frame(lookup);
  PointRequestMsg stats;
  stats.kind = PointKind::kNodeStats;
  stats.node = 5;
  stats.d = std::numeric_limits<double>::infinity();
  point_frame(stats);
  PointRequestMsg jaccard;
  jaccard.kind = PointKind::kJaccard;
  jaccard.node = 7;
  jaccard.other = 9;
  jaccard.d = std::numeric_limits<double>::infinity();
  point_frame(jaccard);
  PointRequestMsg fetch;
  fetch.kind = PointKind::kFetchSketch;
  fetch.node = 11;
  point_frame(fetch);
  // Batch frames: empty (the cheapest batch probe), one entry, and
  // one at the kMaxPointBatchEntries bound — the truncation loop below
  // then cuts the full batch at every byte, which includes every entry
  // boundary.
  {
    PointBatchRequestMsg batch;
    frames.push_back(EncodeFrame(MessageType::kPointBatchRequest,
                                 EncodePointBatchRequest(batch)));
    PointRequestMsg one;
    one.kind = PointKind::kNodeStats;
    one.node = 5;
    one.d = std::numeric_limits<double>::infinity();
    batch.entries.push_back(one);
    frames.push_back(EncodeFrame(MessageType::kPointBatchRequest,
                                 EncodePointBatchRequest(batch)));
    PointBatchRequestMsg maxed;
    for (size_t i = 0; i < kMaxPointBatchEntries; ++i) {
      PointRequestMsg entry;
      entry.kind = PointKind::kLookup;
      entry.node = i % 60;
      entry.targets = {i};
      maxed.entries.push_back(entry);
    }
    frames.push_back(EncodeFrame(MessageType::kPointBatchRequest,
                                 EncodePointBatchRequest(maxed)));
  }
  SweepRequestMsg sweep;
  sweep.collectors = {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kDistanceSum, 0, 0, 0.0},
      {CollectorKind::kHarmonic, 0, 0, 0.0},
      {CollectorKind::kNeighborhoodSize, 0, 0, 2.0},
      {CollectorKind::kReachableCount, 0, 0, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kHarmonic), 3,
       0.0},
      {CollectorKind::kDistanceQuantile, 0, 0, 0.5},
      {CollectorKind::kQg, static_cast<uint32_t>(QgKind::kExpDecay), 0,
       0.5}};
  frames.push_back(
      EncodeFrame(MessageType::kSweepRequest, EncodeSweepRequest(sweep)));
  SweepRequestMsg ranked;
  ranked.collectors = {
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kDistanceSum),
       2, 0.0},
      {CollectorKind::kTopK, static_cast<uint32_t>(ScoreKind::kReachable), 2,
       0.0},
      {CollectorKind::kQg, static_cast<uint32_t>(QgKind::kInverseSquare), 0,
       0.0}};
  frames.push_back(
      EncodeFrame(MessageType::kSweepRequest, EncodeSweepRequest(ranked)));
  // Metrics scrapes, with and without the trace-span flag.
  frames.push_back(
      EncodeFrame(MessageType::kStatsRequest, EncodeStatsRequest({})));
  StatsRequestMsg spans;
  spans.flags = kStatsFlagTraceSpans;
  frames.push_back(
      EncodeFrame(MessageType::kStatsRequest, EncodeStatsRequest(spans)));
  // A traced request under a deadline, so the damage loops also cut and
  // flip nonzero deadline and trace-id fields.
  frames.push_back(EncodeFrame(MessageType::kInfoRequest, "",
                               /*deadline_ms=*/600000,
                               /*trace_hi=*/0x0123456789abcdefull,
                               /*trace_lo=*/0xfedcba9876543210ull));
  return frames;
}

TEST(ServeFuzzTest, ValidFramesAreAccepted) {
  Fixture fx;
  for (const std::string& frame : ValidRequestFrames()) {
    bool close_connection = false;
    std::string response = fx.core.HandleFrame(frame, &close_connection);
    auto decoded = DecodeFrame(response);
    ASSERT_TRUE(decoded.ok());
    auto request = DecodeFrame(frame);
    ASSERT_TRUE(request.ok());
    // Each request type must come back as its own response type.
    switch (request.value().type) {
      case MessageType::kInfoRequest:
        EXPECT_EQ(decoded.value().type, MessageType::kInfoResponse);
        break;
      case MessageType::kPointRequest:
        EXPECT_EQ(decoded.value().type, MessageType::kPointResponse);
        EXPECT_TRUE(
            DecodePointResponse(decoded.value().payload).ok());
        break;
      case MessageType::kPointBatchRequest: {
        EXPECT_EQ(decoded.value().type, MessageType::kPointBatchResponse);
        auto entries = DecodePointBatchResponse(decoded.value().payload);
        ASSERT_TRUE(entries.ok()) << entries.status().ToString();
        auto sent = DecodePointBatchRequest(request.value().payload);
        ASSERT_TRUE(sent.ok());
        EXPECT_EQ(entries.value().entries.size(),
                  sent.value().entries.size());
        break;
      }
      case MessageType::kSweepRequest:
        EXPECT_EQ(decoded.value().type, MessageType::kSweepResponse);
        break;
      case MessageType::kStatsRequest: {
        EXPECT_EQ(decoded.value().type, MessageType::kStatsResponse);
        auto stats = DecodeStatsResponse(decoded.value().payload);
        ASSERT_TRUE(stats.ok()) << stats.status().ToString();
        ASSERT_EQ(stats.value().snapshots.size(), 1u);
        EXPECT_EQ(stats.value().snapshots[0].label, "server");
        break;
      }
      default:
        FAIL() << "corpus contains a non-request frame";
    }
    EXPECT_FALSE(close_connection);
  }
}

TEST(ServeFuzzTest, TruncatedFramesAreRejectedAtEveryLength) {
  Fixture fx;
  for (const std::string& frame : ValidRequestFrames()) {
    for (size_t len = 0; len < frame.size(); ++len) {
      std::string truncated = frame.substr(0, len);
      EXPECT_FALSE(DecodeFrame(truncated).ok()) << "length " << len;
      ExpectCleanRejection(fx.core, truncated,
                           "truncated to " + std::to_string(len));
    }
  }
}

TEST(ServeFuzzTest, BadMagicVersionAndTypeAreRejected) {
  Fixture fx;
  std::string frame = ValidRequestFrames()[0];
  // Magic: flip each of the 8 leading bytes.
  for (size_t i = 0; i < 8; ++i) {
    std::string bad = frame;
    bad[i] ^= 0x5a;
    EXPECT_FALSE(DecodeFrame(bad).ok()) << "magic byte " << i;
    ExpectCleanRejection(fx.core, bad, "magic byte " + std::to_string(i));
  }
  // Version: every value but kWireVersion — the retired layouts 1-4
  // included — is rejected at the header, and the connection is dropped
  // (the header length itself cannot be trusted any more).
  for (uint32_t version : {0u, 1u, 2u, 3u, 4u, 6u, 0xffffffffu}) {
    std::string bad = frame;
    std::memcpy(bad.data() + 8, &version, sizeof(version));
    auto decoded = DecodeFrame(bad);
    ASSERT_FALSE(decoded.ok()) << "version " << version;
    EXPECT_NE(decoded.status().message().find("unsupported wire version"),
              std::string::npos)
        << decoded.status().ToString();
    ExpectCleanRejection(fx.core, bad, "version " + std::to_string(version));
    bool close_connection = false;
    fx.core.HandleFrame(bad, &close_connection);
    EXPECT_TRUE(close_connection) << "version " << version;
  }
  // Type: outside the known range (11 = first value past the stats pair).
  for (uint32_t type : {11u, 100u, 0xffffffffu}) {
    std::string bad = frame;
    std::memcpy(bad.data() + 12, &type, sizeof(type));
    EXPECT_FALSE(DecodeFrame(bad).ok()) << "type " << type;
    ExpectCleanRejection(fx.core, bad, "type " + std::to_string(type));
  }
}

TEST(ServeFuzzTest, DeadlinesAndTraceIdsRoundTripInEveryFrame) {
  // Every frame has the same 56-byte header, so any message type can
  // carry a deadline and a trace id. Both survive encode/decode, and the
  // server echoes the trace id on its response. Responses carry no
  // deadline: the budget is the requester's, not the answer's.
  Fixture fx;
  constexpr uint64_t kDeadlineMs = 600000;  // never expires mid-test
  constexpr uint64_t kTraceHi = 0x1122334455667788ull;
  constexpr uint64_t kTraceLo = 0x99aabbccddeeff00ull;
  for (const std::string& plain : ValidRequestFrames()) {
    auto untraced = DecodeFrame(plain);
    ASSERT_TRUE(untraced.ok());
    const Frame& original = untraced.value();
    std::string traced = EncodeFrame(original.type, original.payload,
                                     kDeadlineMs, kTraceHi, kTraceLo);
    ASSERT_EQ(traced.size(), kFrameHeaderBytes + original.payload.size());
    auto request = DecodeFrame(traced);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request.value().type, original.type);
    EXPECT_EQ(request.value().payload, original.payload);
    EXPECT_EQ(request.value().deadline_ms, kDeadlineMs);
    EXPECT_EQ(request.value().trace_hi, kTraceHi);
    EXPECT_EQ(request.value().trace_lo, kTraceLo);

    bool close_connection = false;
    auto response =
        DecodeFrame(fx.core.HandleFrame(traced, &close_connection));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_NE(response.value().type, MessageType::kError);
    EXPECT_EQ(response.value().deadline_ms, 0u);
    EXPECT_EQ(response.value().trace_hi, kTraceHi);
    EXPECT_EQ(response.value().trace_lo, kTraceLo);
    EXPECT_FALSE(close_connection);
  }
  // A rejected frame's error response echoes nothing it could not trust.
  bool close_connection = false;
  std::string truncated =
      EncodeFrame(MessageType::kInfoRequest, "", kDeadlineMs, kTraceHi,
                  kTraceLo)
          .substr(0, kFrameHeaderBytes - 1);
  auto rejected =
      DecodeFrame(fx.core.HandleFrame(truncated, &close_connection));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().type, MessageType::kError);
  EXPECT_EQ(rejected.value().trace_hi, 0u);
  EXPECT_EQ(rejected.value().trace_lo, 0u);
  EXPECT_TRUE(close_connection);
}

TEST(ServeFuzzTest, OversizedLengthPrefixesAreRejectedBeforeAllocation) {
  Fixture fx;
  std::string frame = ValidRequestFrames()[2];
  // Payload lengths beyond the protocol bound must be rejected from the
  // header alone — a hostile 8-byte length must never drive an allocation.
  for (uint64_t huge :
       {kMaxFramePayload + 1, uint64_t{1} << 40, uint64_t{0} - 1}) {
    std::string bad = frame;
    std::memcpy(bad.data() + 16, &huge, sizeof(huge));
    FrameHeader header;
    EXPECT_FALSE(
        DecodeFrameHeaderPrefix(bad.data(), kFrameHeaderBytes, &header).ok())
        << huge;
    ExpectCleanRejection(fx.core, bad, "huge length");
  }
  // In-bounds but wrong lengths fail the frame/size cross-check.
  for (uint64_t wrong : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 20}) {
    std::string bad = frame;
    std::memcpy(bad.data() + 16, &wrong, sizeof(wrong));
    EXPECT_FALSE(DecodeFrame(bad).ok()) << wrong;
    ExpectCleanRejection(fx.core, bad, "wrong length");
  }
}

TEST(ServeFuzzTest, CorruptChecksumsAreRejected) {
  Fixture fx;
  for (const std::string& frame : ValidRequestFrames()) {
    // Flip one bit anywhere in the frame: the whole-frame checksum (or a
    // structural check) must catch it.
    for (size_t i = 0; i < frame.size(); ++i) {
      std::string bad = frame;
      bad[i] ^= 0x01;
      EXPECT_FALSE(DecodeFrame(bad).ok()) << "bit flip at byte " << i;
      ExpectCleanRejection(fx.core, bad, "flip at " + std::to_string(i));
    }
  }
}

TEST(ServeFuzzTest, MalformedPayloadsInsideValidFramesAreRejected) {
  Fixture fx;
  // Structurally valid frames wrapping broken payloads: the payload
  // decoders must reject them; the checksum cannot help here.
  const std::vector<std::pair<MessageType, std::string>> cases = [] {
    std::vector<std::pair<MessageType, std::string>> list;
    // Truncated point request.
    PointRequestMsg point;
    point.targets = {1, 2, 3};
    std::string p = EncodePointRequest(point);
    for (size_t len : {size_t{0}, size_t{3}, p.size() - 9, p.size() - 1}) {
      list.emplace_back(MessageType::kPointRequest, p.substr(0, len));
    }
    // Point request whose target count promises more than the payload.
    {
      WireWriter w;
      w.U32(static_cast<uint32_t>(PointKind::kLookup));
      w.U64(0);
      w.U64(0);
      w.F64(0.0);
      w.U64(uint64_t{1} << 60);  // 2^60 targets
      list.emplace_back(MessageType::kPointRequest, w.Take());
    }
    // Sweep request with an unknown collector kind.
    {
      WireWriter w;
      w.U32(1);      // threads
      w.U64(1);      // one collector
      w.U32(999);    // unknown kind
      w.U32(0);
      w.U32(0);
      w.F64(0.0);
      list.emplace_back(MessageType::kSweepRequest, w.Take());
    }
    // Sweep request promising 2^59 collectors.
    {
      WireWriter w;
      w.U32(1);
      w.U64(uint64_t{1} << 59);
      list.emplace_back(MessageType::kSweepRequest, w.Take());
    }
    // Batch request promising more entries than the protocol bound.
    {
      WireWriter w;
      w.U64(kMaxPointBatchEntries + 1);
      list.emplace_back(MessageType::kPointBatchRequest, w.Take());
    }
    // Batch request whose count promises more than the payload can hold.
    {
      WireWriter w;
      w.U64(uint64_t{1} << 60);
      list.emplace_back(MessageType::kPointBatchRequest, w.Take());
    }
    // Batch with one entry, truncated inside the entry bytes.
    {
      PointBatchRequestMsg batch;
      PointRequestMsg entry;
      entry.kind = PointKind::kLookup;
      entry.targets = {1, 2};
      batch.entries.push_back(entry);
      std::string encoded = EncodePointBatchRequest(batch);
      list.emplace_back(MessageType::kPointBatchRequest,
                        encoded.substr(0, encoded.size() - 5));
    }
    // Batch whose entry is itself a malformed point request.
    {
      WireWriter w;
      w.U64(1);
      WireWriter inner;
      inner.U32(999);  // unknown point kind
      inner.U64(0);
      inner.U64(0);
      inner.F64(0.0);
      inner.U64(0);
      w.Bytes(inner.Take());
      list.emplace_back(MessageType::kPointBatchRequest, w.Take());
    }
    // Stats request: truncated (flags missing), unknown flag bits, and
    // trailing garbage.
    list.emplace_back(MessageType::kStatsRequest, std::string());
    list.emplace_back(MessageType::kStatsRequest, std::string(2, '\0'));
    {
      WireWriter w;
      w.U32(0xfffffffeu);  // every bit but the trace flag is unknown
      list.emplace_back(MessageType::kStatsRequest, w.Take());
    }
    list.emplace_back(MessageType::kStatsRequest,
                      EncodeStatsRequest({}) + std::string(1, '\0'));
    // Trailing garbage after a valid message.
    list.emplace_back(MessageType::kInfoRequest, std::string("tail"));
    SweepRequestMsg sweep;
    sweep.collectors = {{CollectorKind::kHarmonic, 0, 0, 0.0}};
    list.emplace_back(MessageType::kSweepRequest,
                      EncodeSweepRequest(sweep) + std::string(1, '\0'));
    return list;
  }();
  for (size_t i = 0; i < cases.size(); ++i) {
    std::string frame = EncodeFrame(cases[i].first, cases[i].second);
    ExpectCleanRejection(fx.core, frame, "payload case " + std::to_string(i));
  }
}

// The stats response codec is a network consumer on the router's gather
// path: a hostile range server must not be able to crash the scrape.
TEST(ServeFuzzTest, StatsResponseCodecRejectsMalformedPayloads) {
  // A nontrivial response round-trips exactly.
  StatsResponseMsg msg;
  StatsSnapshotMsg snap;
  snap.label = "server";
  snap.metrics.counters = {{"serve.requests.point", 41},
                           {"serve.tcp.accepted", 3}};
  snap.metrics.gauges = {{"serve.active_sweeps", -1}};
  MetricsSnapshot::HistogramValue hist;
  hist.name = "serve.latency_us.point";
  hist.count = 2;
  hist.sum = 300;
  hist.buckets = {0, 1, 1};
  snap.metrics.histograms = {hist};
  msg.snapshots.push_back(snap);
  TraceSpanMsg span;
  span.label = "server";
  span.name = "server.dispatch";
  span.trace_hi = 7;
  span.trace_lo = 9;
  span.start_us = 100;
  span.dur_us = 40;
  msg.spans.push_back(span);
  std::string encoded = EncodeStatsResponse(msg);
  auto decoded = DecodeStatsResponse(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().snapshots.size(), 1u);
  EXPECT_EQ(decoded.value().snapshots[0].label, "server");
  ASSERT_EQ(decoded.value().snapshots[0].metrics.counters.size(), 2u);
  EXPECT_EQ(decoded.value().snapshots[0].metrics.counters[0].value, 41u);
  ASSERT_EQ(decoded.value().snapshots[0].metrics.gauges.size(), 1u);
  EXPECT_EQ(decoded.value().snapshots[0].metrics.gauges[0].value, -1);
  ASSERT_EQ(decoded.value().snapshots[0].metrics.histograms.size(), 1u);
  EXPECT_EQ(decoded.value().snapshots[0].metrics.histograms[0].buckets,
            (std::vector<uint64_t>{0, 1, 1}));
  ASSERT_EQ(decoded.value().spans.size(), 1u);
  EXPECT_EQ(decoded.value().spans[0].name, "server.dispatch");
  EXPECT_EQ(decoded.value().spans[0].dur_us, 40u);
  EXPECT_EQ(EncodeStatsResponse(decoded.value()), encoded);

  // Truncation at every byte boundary must be rejected, never crash.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeStatsResponse(encoded.substr(0, len)).ok())
        << "length " << len;
  }
  // Trailing garbage after the last span.
  EXPECT_FALSE(DecodeStatsResponse(encoded + std::string(1, '\0')).ok());

  // Hostile counts must be rejected from the header, before allocation.
  auto one_count = [](uint64_t count) {
    WireWriter w;
    w.U64(count);
    return w.Take();
  };
  // 2^60 snapshots promised in an 8-byte payload.
  EXPECT_FALSE(DecodeStatsResponse(one_count(uint64_t{1} << 60)).ok());
  {
    // One snapshot promising 2^60 counters.
    WireWriter w;
    w.U64(1);            // one snapshot
    w.Bytes("server");   // label
    w.U64(uint64_t{1} << 60);
    EXPECT_FALSE(DecodeStatsResponse(w.Take()).ok());
  }
  {
    // One histogram promising 2^60 buckets.
    WireWriter w;
    w.U64(1);           // one snapshot
    w.Bytes("server");  // label
    w.U64(0);           // counters
    w.U64(0);           // gauges
    w.U64(1);           // one histogram
    w.Bytes("h");
    w.U64(0);  // count
    w.U64(0);  // sum
    w.U64(uint64_t{1} << 60);
    EXPECT_FALSE(DecodeStatsResponse(w.Take()).ok());
  }
  {
    // 2^60 spans promised after an empty snapshot list.
    WireWriter w;
    w.U64(0);  // snapshots
    w.U64(uint64_t{1} << 60);
    EXPECT_FALSE(DecodeStatsResponse(w.Take()).ok());
  }
}

// The batch response codec carries a per-entry status channel; its
// invariants — ok entries carry a payload and no message, failed entries
// the reverse, codes must be known — are enforced on network bytes.
TEST(ServeFuzzTest, PointBatchResponsePerEntryStatusesAreValidated) {
  // A mixed success/failure response round-trips exactly: one bad node
  // never poisons the batch, and the failure text survives the wire.
  PointResponseMsg ok_response;
  ok_response.values = {1.5, 2.5};
  PointBatchResponseMsg mixed;
  PointBatchResponseEntry ok_entry;
  ok_entry.payload = EncodePointResponse(ok_response);
  mixed.entries.push_back(ok_entry);
  PointBatchResponseEntry failed;
  failed.status = Status::NotFound("node 99 is outside the served range");
  mixed.entries.push_back(failed);
  auto decoded = DecodePointBatchResponse(EncodePointBatchResponse(mixed));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().entries.size(), 2u);
  EXPECT_TRUE(decoded.value().entries[0].status.ok());
  EXPECT_EQ(decoded.value().entries[0].payload, ok_entry.payload);
  EXPECT_EQ(decoded.value().entries[1].status.ToString(),
            failed.status.ToString());
  EXPECT_TRUE(decoded.value().entries[1].payload.empty());

  // Hand-built malformed responses: each violated invariant is rejected.
  auto entry_bytes = [](uint32_t code, const std::string& message,
                        const std::string& payload) {
    WireWriter w;
    w.U64(1);
    w.U32(code);
    w.Bytes(message);
    w.Bytes(payload);
    return w.Take();
  };
  // An ok entry carrying an error message.
  EXPECT_FALSE(
      DecodePointBatchResponse(entry_bytes(0, "spurious", ok_entry.payload))
          .ok());
  // A failed entry carrying a response payload.
  EXPECT_FALSE(
      DecodePointBatchResponse(entry_bytes(2, "gone", ok_entry.payload))
          .ok());
  // An unknown status code.
  EXPECT_FALSE(DecodePointBatchResponse(entry_bytes(99, "what", "")).ok());
  // An ok entry whose payload is not a decodable point response.
  EXPECT_FALSE(DecodePointBatchResponse(entry_bytes(0, "", "junk")).ok());
  // A count promising more entries than the payload carries.
  {
    WireWriter w;
    w.U64(3);
    w.U32(0);
    w.Bytes("");
    w.Bytes(ok_entry.payload);
    EXPECT_FALSE(DecodePointBatchResponse(w.Take()).ok());
  }
}

TEST(ServeFuzzTest, HostileThreadCountsAreClampedNotObeyed) {
  // num_threads is wire-controlled; a request asking for 2^32-1 threads
  // must be served (clamped to the hardware), not drive the pool into
  // spawning until std::terminate.
  Fixture fx;
  SweepRequestMsg sweep;
  sweep.collectors = {{CollectorKind::kHarmonic, 0, 0, 0.0}};
  sweep.num_threads = 0xffffffffu;
  bool close_connection = false;
  std::string response = fx.core.HandleFrame(
      EncodeFrame(MessageType::kSweepRequest, EncodeSweepRequest(sweep)),
      &close_connection);
  auto decoded = DecodeFrame(response);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, MessageType::kSweepResponse);
}

TEST(ServeFuzzTest, MalformedSweepPartialsAreRejectedByTheGather) {
  // The gather side is a network consumer too: collector partials with
  // wrong sizes / domains must fail AbsorbPartial cleanly.
  std::vector<CollectorSpec> spec = {
      {CollectorKind::kDistanceHistogram, 0, 0, 0.0},
      {CollectorKind::kHarmonic, 0, 0, 0.0}};
  SweepPlan plan;
  auto built = BuildPlanFromSpec(spec, &plan);
  ASSERT_TRUE(built.ok());
  for (SweepCollector* c : built.value()) c->Begin(10);

  // The histogram partial is ExactSum-encoded: u64 distance count, then
  // per distance a f64 dist plus the superaccumulator's digit window
  // (u32 lo, u32 count, count u32 digits). Each structural invariant must
  // be enforced on network bytes.
  const std::string harmonic_ok(80, '\0');  // 10 nodes * f64, all zero
  auto u32 = [](std::string* out, uint32_t v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto u64 = [](std::string* out, uint64_t v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  auto f64 = [](std::string* out, double v) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(v));
  };

  SweepResponseMsg response;
  response.begin = 0;
  response.end = 10;
  response.partials = {"", ""};  // histogram shorter than its u64 header
  EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());

  // Count promising more entries than the payload can hold: rejected from
  // the header, before any allocation.
  {
    std::string h;
    u64(&h, uint64_t{1} << 60);
    response.partials = {h, harmonic_ok};
    EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
  }
  // Distance out of domain (0, negative, NaN) and non-increasing order.
  for (double bad_dist : {0.0, -1.0, std::nan("")}) {
    std::string h;
    u64(&h, 1);
    f64(&h, bad_dist);
    u32(&h, 0);  // lo
    u32(&h, 0);  // empty digit window
    response.partials = {h, harmonic_ok};
    EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
  }
  {
    std::string h;
    u64(&h, 2);
    f64(&h, 2.0);
    u32(&h, 0);
    u32(&h, 0);
    f64(&h, 1.0);  // distances must be strictly increasing
    u32(&h, 0);
    u32(&h, 0);
    response.partials = {h, harmonic_ok};
    EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
  }
  // Accumulator window outside the digit range, and one promising more
  // digits than the payload carries.
  {
    std::string h;
    u64(&h, 1);
    f64(&h, 1.0);
    u32(&h, 0xffffffffu);  // lo far past kDigits
    u32(&h, 1);
    u32(&h, 7);
    response.partials = {h, harmonic_ok};
    EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
  }
  {
    std::string h;
    u64(&h, 1);
    f64(&h, 1.0);
    u32(&h, 0);
    u32(&h, 10);  // 10 digits promised, none present
    response.partials = {h, harmonic_ok};
    EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
  }
  // Trailing bytes after the last entry.
  {
    std::string h;
    u64(&h, 0);
    h.append(4, '\x7f');
    response.partials = {h, harmonic_ok};
    EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
  }

  // Range outside the collected node space.
  response.begin = 5;
  response.end = 25;
  response.partials = {"", std::string(20 * 8, '\0')};
  EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());

  // Partial count != plan size.
  response.begin = 0;
  response.end = 10;
  response.partials = {""};
  EXPECT_FALSE(AbsorbSweepResponse(response, built.value()).ok());
}

// Seeded random mutations: whatever the damage, HandleFrame must return a
// well-formed frame and never crash (the asan lane gives this test its
// teeth).
TEST(ServeFuzzTest, RandomMutationsNeverCrashTheCore) {
  Fixture fx;
  std::vector<std::string> frames = ValidRequestFrames();
  std::mt19937_64 rng(0xad55eedULL);
  for (int iter = 0; iter < 3000; ++iter) {
    std::string frame = frames[rng() % frames.size()];
    switch (rng() % 4) {
      case 0:  // flip 1..8 random bytes
        for (uint64_t flips = 1 + rng() % 8; flips > 0; --flips) {
          frame[rng() % frame.size()] ^= static_cast<char>(1 + rng() % 255);
        }
        break;
      case 1:  // truncate
        frame.resize(rng() % (frame.size() + 1));
        break;
      case 2:  // extend with junk
        frame.append(1 + rng() % 64, static_cast<char>(rng()));
        break;
      case 3:  // pure junk of random length
        frame.assign(rng() % 128, static_cast<char>(rng()));
        for (char& c : frame) c = static_cast<char>(rng());
        break;
    }
    bool close_connection = false;
    std::string response = fx.core.HandleFrame(frame, &close_connection);
    auto decoded = DecodeFrame(response);
    ASSERT_TRUE(decoded.ok()) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace hipads
