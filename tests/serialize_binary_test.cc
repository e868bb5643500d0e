// hipads-ads-v2 binary format: round-trip fidelity (bit-identical arenas,
// identical HIP estimates, v1/v2 interchangeability through the parsers)
// and corruption handling (every structural damage returns
// Status::Corruption and never crashes — these suites run under the asan
// `serialize` ctest lane). The hostile-byte corpora run through every
// reader: the in-memory parser, the file readers and the mmap open must
// agree on each image, v1 text and non-canonical blocks included.

#include "ads/serialize.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "ads/backend.h"
#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/hip.h"
#include "ads/shard.h"
#include "graph/generators.h"
#include "util/hash.h"
#include "util/random.h"
#include "v2_readers.h"

namespace hipads {
namespace {

// A built set with its HIP weights, as every v2 writer needs it.
FlatAdsSet BuildFlat(uint32_t n, uint64_t graph_seed, uint32_t k,
                     SketchFlavor flavor, const RankAssignment& ranks) {
  Graph g = ErdosRenyi(n, 3ULL * n, true, graph_seed);
  FlatAdsSet set =
      FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(g, k, flavor, ranks));
  PrecomputeHipWeights(&set, 1);
  return set;
}

void ExpectBitIdentical(const FlatAdsSet& a, const FlatAdsSet& b) {
  EXPECT_EQ(a.flavor, b.flavor);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.ranks.kind(), b.ranks.kind());
  EXPECT_EQ(a.ranks.seed(), b.ranks.seed());
  EXPECT_EQ(a.ranks.base(), b.ranks.base());
  ASSERT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  // Bitwise, not value, comparison: the format must preserve every double
  // exactly, and every reader hands out the HIP weights PrecomputeHipWeights
  // computes, read or computed on load.
  ASSERT_EQ(std::memcmp(a.entries.data(), b.entries.data(),
                        a.entries.size() * sizeof(AdsEntry)),
            0);
  ASSERT_EQ(a.hip_tau.size(), a.entries.size());
  ASSERT_EQ(b.hip_tau.size(), b.entries.size());
  ASSERT_EQ(a.hip_weight.size(), a.entries.size());
  ASSERT_EQ(b.hip_weight.size(), b.entries.size());
  ASSERT_EQ(std::memcmp(a.hip_tau.data(), b.hip_tau.data(),
                        a.hip_tau.size() * sizeof(double)),
            0);
  ASSERT_EQ(std::memcmp(a.hip_weight.data(), b.hip_weight.data(),
                        a.hip_weight.size() * sizeof(double)),
            0);
}

TEST(SerializeBinaryTest, RoundTripBitIdentical) {
  FlatAdsSet set = BuildFlat(120, 3, 8, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(7));
  auto back = ParseFlatAdsSetBinary(SerializeAdsSetBinary(set).value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitIdentical(set, back.value());
}

TEST(SerializeBinaryTest, RoundTripAllFlavors) {
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    FlatAdsSet set =
        BuildFlat(60, 11, 4, flavor, RankAssignment::Uniform(13));
    auto back = ParseFlatAdsSetBinary(SerializeAdsSetBinary(set).value());
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectBitIdentical(set, back.value());
  }
}

TEST(SerializeBinaryTest, RoundTripBaseBAndWeighted) {
  Graph g = RandomizeWeights(ErdosRenyi(80, 240, true, 17), 0.3, 2.7, 3);
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::BaseB(5, 2.0)));
  PrecomputeHipWeights(&set, 1);
  auto back = ParseFlatAdsSetBinary(SerializeAdsSetBinary(set).value());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().ranks.base(), 2.0);
  ExpectBitIdentical(set, back.value());
}

// The property suite of the issue: random sets -> v1 text and v2 binary ->
// parse back -> bit-identical entries and identical HIP estimates.
TEST(SerializeBinaryTest, PropertyBothFormatsRoundTripAndAgree) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    uint32_t n = 30 + 17 * static_cast<uint32_t>(trial);
    uint32_t k = trial % 2 ? 4 : 8;
    RankAssignment ranks = trial % 3 == 0
                               ? RankAssignment::BaseB(trial + 1, 2.0)
                               : RankAssignment::Uniform(trial + 1);
    FlatAdsSet set =
        BuildFlat(n, trial + 41, k, SketchFlavor::kBottomK, ranks);

    auto from_text = ParseFlatAdsSet(SerializeAdsSet(set));
    ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
    auto from_binary = ParseFlatAdsSetBinary(SerializeAdsSetBinary(set).value());
    ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
    ExpectBitIdentical(set, from_text.value());
    ExpectBitIdentical(from_text.value(), from_binary.value());

    for (NodeId v = 0; v < set.num_nodes(); v += 7) {
      HipEstimator a(set.of(v), set.k, set.flavor, set.ranks);
      HipEstimator b(from_binary.value().of(v), set.k, set.flavor,
                     from_binary.value().ranks);
      EXPECT_EQ(a.ReachableCount(), b.ReachableCount());
      EXPECT_EQ(a.HarmonicCentrality(), b.HarmonicCentrality());
    }
  }
}

TEST(SerializeBinaryTest, FileRoundTripReadsV2Only) {
  FlatAdsSet set = BuildFlat(50, 31, 4, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(37));
  std::string path = "/tmp/hipads_serialize_binary_test.ads2";
  ASSERT_TRUE(
      WriteAdsSetFile(set, path, AdsFileFormat::kBinaryV2).ok());
  auto flat = ReadFlatAdsSetFile(path);
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ExpectBitIdentical(set, flat.value());
  // v1 text is convert-only: the file reader refuses it.
  ASSERT_TRUE(WriteAdsSetFile(set, path, AdsFileFormat::kTextV1).ok());
  auto from_text = ReadFlatAdsSetFile(path);
  ASSERT_FALSE(from_text.ok());
  EXPECT_EQ(from_text.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(SerializeBinaryTest, ExponentialNeedsBeta) {
  Graph g = ErdosRenyi(30, 90, true, 31);
  auto beta = [](uint64_t v) { return v % 2 ? 2.0 : 1.0; };
  FlatAdsSet set = FlatAdsSet::FromAdsSet(BuildAdsPrunedDijkstra(
      g, 4, SketchFlavor::kBottomK, RankAssignment::Exponential(5, beta)));
  PrecomputeHipWeights(&set, 1);
  std::string bytes = SerializeAdsSetBinary(set).value();
  auto without = ParseFlatAdsSetBinary(bytes);
  EXPECT_FALSE(without.ok());
  EXPECT_EQ(without.status().code(), Status::Code::kInvalidArgument);
  auto with = ParseFlatAdsSetBinary(bytes, beta);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_EQ(with.value().ranks.kind(), RankKind::kExponential);
  EXPECT_EQ(with.value().TotalEntries(), set.TotalEntries());
}

// --- corruption handling ---------------------------------------------------

// A small set and its image as `sketch` writes it, HIP section included.
const FlatAdsSet& SmallSet() {
  static const FlatAdsSet set =
      BuildFlat(40, 7, 4, SketchFlavor::kBottomK, RankAssignment::Uniform(3));
  return set;
}

std::string HipBytes() {
  static const std::string bytes = SerializeAdsSetBinary(SmallSet()).value();
  return bytes;
}

// The base image of HipBytes(): the file an older build wrote without the
// HIP section, still a valid input (its readers compute the weights).
std::string ValidBytes() {
  return HipBytes().substr(
      0, AdsBinaryFileSize(SmallSet().num_nodes(), SmallSet().TotalEntries()));
}

void ExpectCorruption(const std::string& bytes, const std::string& what) {
  auto result = ParseWithEveryReader(bytes, what);
  EXPECT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << what;
}

// Byte offsets of the two checksum fields, for tests that corrupt a
// section and then re-stamp it so only the deeper validators can object.
constexpr size_t kHeaderChecksumAt = 80;
constexpr size_t kHipChecksumAt = 24;

// Re-stamps the base-image checksum the way the format defines it,
// computed here independently of the writer: XXH64 of the 88-byte header
// with its checksum field zeroed (seed 0), chained into the offsets
// section, chained into the entries section.
void RestampBaseChecksum(std::string* bytes) {
  uint64_t num_nodes = 0;
  uint64_t num_entries = 0;
  std::memcpy(&num_nodes, bytes->data() + 48, sizeof(uint64_t));
  std::memcpy(&num_entries, bytes->data() + 56, sizeof(uint64_t));
  std::string header = bytes->substr(0, kAdsBinaryHeaderBytes);
  std::memset(header.data() + kHeaderChecksumAt, 0, 8);
  const size_t offsets_bytes = (num_nodes + 1) * sizeof(uint64_t);
  const size_t entries_at = kAdsBinaryHeaderBytes + offsets_bytes;
  uint64_t sum = Xxh64(header.data(), header.size(), 0);
  sum = Xxh64(bytes->data() + kAdsBinaryHeaderBytes, offsets_bytes, sum);
  sum = Xxh64(bytes->data() + entries_at, num_entries * sizeof(AdsEntry),
              sum);
  std::memcpy(bytes->data() + kHeaderChecksumAt, &sum, sizeof(uint64_t));
}

// Re-stamps the HIP section checksum of an image whose section starts at
// `base` and runs to its end, as the format defines it: XXH64 of the
// section header with its checksum field zeroed (seed 0), chained into
// each array that follows it — tau[] in a version 3 section, tau[] then
// weight[] in a retired version 2 one.
void RestampHipChecksum(std::string* bytes, size_t base, int arrays = 1) {
  const size_t tau_at = base + kAdsHipSectionHeaderBytes;
  const size_t array_bytes = (bytes->size() - tau_at) / arrays;
  std::string header(*bytes, base, kAdsHipSectionHeaderBytes);
  std::memset(header.data() + kHipChecksumAt, 0, 8);
  uint64_t sum = Xxh64(header.data(), header.size(), 0);
  for (int a = 0; a < arrays; ++a) {
    sum = Xxh64(bytes->data() + tau_at + a * array_bytes, array_bytes, sum);
  }
  std::memcpy(bytes->data() + base + kHipChecksumAt, &sum, sizeof(uint64_t));
}

TEST(SerializeBinaryTest, RejectsBadMagicAndVersion) {
  ExpectCorruption("", "empty");
  ExpectCorruption("hipads", "short");
  std::string bytes = ValidBytes();
  bytes[0] ^= 0x1;
  ExpectCorruption(bytes, "magic");
  bytes = ValidBytes();
  bytes[8] = 99;  // version field
  ExpectCorruption(bytes, "version");
}

// Header version 2 is the retired FNV-1a layout: byte-for-byte the same
// sections under a different checksum. It fails closed, naming the
// version, from every reader — never a checksum-mismatch guess.
TEST(SerializeBinaryTest, RejectsVersion2ImagesNamingTheVersion) {
  uint32_t version = 0;
  std::memcpy(&version, ValidBytes().data() + 8, sizeof(version));
  EXPECT_EQ(version, 3u);
  std::string bytes = ValidBytes();
  version = 2;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  const std::string path =
      (std::filesystem::temp_directory_path() / "hipads_version2.ads2")
          .string();
  {
    std::ofstream f(path, std::ios::binary);
    f << bytes;
  }
  const std::string want = "unsupported hipads-ads-v2 version 2";
  auto parsed = ParseFlatAdsSetBinary(bytes);
  auto read = ReadFlatAdsSetFile(path);
  auto mapped = MmapAdsSet::Open(path);
  std::remove(path.c_str());
  for (const Status& st : {parsed.status(), read.status(), mapped.status()}) {
    EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find(want), std::string::npos) << st.ToString();
  }
}

TEST(SerializeBinaryTest, RejectsTruncationAnywhere) {
  std::string bytes = ValidBytes();
  for (size_t len : {size_t{1}, size_t{40}, size_t{87}, size_t{88},
                     size_t{100}, bytes.size() / 2, bytes.size() - 1}) {
    ExpectCorruption(bytes.substr(0, len),
                     "truncated arena/header must be rejected");
  }
}

TEST(SerializeBinaryTest, RejectsTrailingBytes) {
  ExpectCorruption(ValidBytes() + "x", "trailing byte");
}

TEST(SerializeBinaryTest, RejectsChecksumMismatch) {
  std::string bytes = ValidBytes();
  bytes[bytes.size() - 5] ^= 0x40;  // flip a payload bit
  ExpectCorruption(bytes, "checksum");
}

TEST(SerializeBinaryTest, RejectsHeaderFieldMutations) {
  // Flipping any single byte of the header must never crash; it either
  // breaks a validated field or the section-length/checksum consistency.
  std::string valid = ValidBytes();
  for (size_t pos = 0; pos < 88; ++pos) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string bytes = valid;
      bytes[pos] = static_cast<char>(bytes[pos] ^ bit);
      if (bytes == valid) continue;
      auto result = ParseFlatAdsSetBinary(bytes);
      EXPECT_FALSE(result.ok()) << "header byte " << pos;
    }
  }
}

// Entry fields outside their domain are corruption even under a valid
// checksum: a NaN or infinite distance, a NaN rank, or a negative rank
// (every rank kind draws ranks >= 0). Both v2 readers — the copying parser
// and the zero-copy mmap open — must refuse the file.
TEST(SerializeBinaryTest, RejectsNonFiniteAndNegativeEntryFields) {
  const FlatAdsSet valid = BuildFlat(60, 7, 4, SketchFlavor::kBottomK,
                                     RankAssignment::Uniform(3));
  ASSERT_GT(valid.of(1).size(), 1u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    double AdsEntry::*field;
    double value;
  };
  const Case cases[] = {
      {"NaN dist", &AdsEntry::dist, nan},
      {"infinite dist", &AdsEntry::dist, inf},
      {"NaN rank", &AdsEntry::rank, nan},
      {"negative rank", &AdsEntry::rank, -0.25},
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "hipads_bad_entry.ads2")
          .string();
  for (const Case& c : cases) {
    FlatAdsSet bad = valid;
    // The last entry of node 1: past the owner's own distance-0 entry.
    bad.entries[bad.offsets[2] - 1].*c.field = c.value;
    const std::string bytes = SerializeAdsSetBinary(bad).value();
    auto parsed = ParseFlatAdsSetBinary(bytes);
    ASSERT_FALSE(parsed.ok()) << c.name;
    EXPECT_EQ(parsed.status().code(), Status::Code::kCorruption) << c.name;
    {
      std::ofstream f(path, std::ios::binary);
      f << bytes;
    }
    auto mapped = MmapAdsSet::Open(path);
    ASSERT_FALSE(mapped.ok()) << c.name;
    EXPECT_EQ(mapped.status().code(), Status::Code::kCorruption) << c.name;
  }
  std::remove(path.c_str());
}

TEST(SerializeBinaryTest, FuzzRandomMutationsNeverCrash) {
  std::string valid = ValidBytes();
  Rng rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.NextBounded(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next());
    }
    // Must not crash, and every reader must reach the same verdict.
    auto result = ParseWithEveryReader(bytes, "mutation " +
                                                  std::to_string(trial));
    if (result.ok()) {
      // A mutation may survive (e.g. flipping a rank bit and its checksum
      // compensating is astronomically unlikely, but flipping nothing
      // semantic is possible when the byte lands back on itself).
      EXPECT_EQ(result.value().num_nodes(), 40u);
    }
  }
}

// --- the HIP section ---------------------------------------------------------

TEST(SerializeBinaryTest, HipSectionRoundTripsBitIdentical) {
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    FlatAdsSet set =
        BuildFlat(70, 13, 4, flavor, RankAssignment::Uniform(19));
    std::string bytes = SerializeAdsSetBinary(set).value();
    EXPECT_EQ(bytes.size(),
              AdsBinaryFileSize(set.num_nodes(), set.TotalEntries()) +
                  AdsHipSectionBytes(set.TotalEntries()));
    auto back = ParseFlatAdsSetBinary(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ExpectBitIdentical(set, back.value());
  }
}

TEST(SerializeBinaryTest, HipSectionFollowsABaseImageThatLoadsAlone) {
  // The main checksum excludes the section, so a file is its base image
  // with the section appended: cutting the section off is a truncation,
  // and the cut file loads with its weights computed — bitwise the stored
  // ones — and writes back as the whole file.
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    FlatAdsSet set =
        BuildFlat(50, 17, 8, flavor, RankAssignment::Uniform(23));
    std::string with_hip = SerializeAdsSetBinary(set).value();
    const size_t base =
        AdsBinaryFileSize(set.num_nodes(), set.TotalEntries());
    // +8 bytes per entry (tau alone) plus the 32-byte section header.
    EXPECT_EQ(with_hip.size() - base,
              kAdsHipSectionHeaderBytes + 8 * set.TotalEntries());
    auto cut = ParseWithEveryReader(with_hip.substr(0, base), "base image");
    ASSERT_TRUE(cut.ok()) << cut.status().ToString();
    ExpectBitIdentical(set, cut.value());
    EXPECT_EQ(SerializeAdsSetBinary(cut.value()).value(), with_hip);
  }
}

TEST(SerializeBinaryTest, HipSectionRejectsTruncationAtEveryBoundary) {
  std::string bytes = HipBytes();
  const size_t base = ValidBytes().size();
  // Every structural boundary of the section, plus off-by-one around each:
  // inside the header, at the header end, inside tau[], one tau short of
  // complete, one byte short.
  const size_t header_end = base + kAdsHipSectionHeaderBytes;
  const size_t middle = header_end + (bytes.size() - header_end) / 2;
  for (size_t len :
       {base + 1, base + kAdsHipSectionHeaderBytes / 2, header_end - 1,
        header_end, header_end + 1, middle - 1, middle, middle + 1,
        bytes.size() - 8, bytes.size() - 1}) {
    ExpectCorruption(bytes.substr(0, len), "truncated HIP section");
  }
  ExpectCorruption(bytes + "x", "trailing byte after HIP section");
}

TEST(SerializeBinaryTest, HipSectionRejectsHeaderAndPayloadCorruption) {
  const size_t base = ValidBytes().size();
  {
    std::string bytes = HipBytes();
    bytes[base] ^= 0x1;  // section magic
    ExpectCorruption(bytes, "HIP section magic");
  }
  {
    std::string bytes = HipBytes();
    bytes[base + 8] = 9;  // section version
    ExpectCorruption(bytes, "HIP section version");
  }
  {
    std::string bytes = HipBytes();
    bytes[base + 12] = 1;  // reserved field
    ExpectCorruption(bytes, "HIP section reserved");
  }
  {
    std::string bytes = HipBytes();
    bytes[base + 16] ^= 0x1;  // section entry count
    ExpectCorruption(bytes, "HIP section entry count");
  }
  {
    std::string bytes = HipBytes();
    bytes[base + 24] ^= 0x1;  // section checksum itself
    ExpectCorruption(bytes, "HIP section checksum field");
  }
  {
    std::string bytes = HipBytes();
    bytes[bytes.size() - 3] ^= 0x40;  // a tau[] payload bit
    ExpectCorruption(bytes, "HIP payload bit flip");
  }
}

// A section that passes its checksum but stores a tau outside {0} ∪ (0, 1]
// must be rejected: serving trusts the weights derived from it blindly on
// the hot path. Corrupt the first tau, then re-stamp the section checksum
// (computed here as the format defines it, not by calling the writer) so
// only the per-entry validation can catch it.
std::string HipBytesWithFirstTau(double tau) {
  std::string bytes = HipBytes();
  const size_t base = ValidBytes().size();
  std::memcpy(bytes.data() + base + kAdsHipSectionHeaderBytes, &tau,
              sizeof(double));
  RestampHipChecksum(&bytes, base);
  return bytes;
}

TEST(SerializeBinaryTest, HipSectionRejectsInvalidTau) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double tau : {std::nextafter(1.0, 2.0), 1.5, -0.5,
                     -std::numeric_limits<double>::denorm_min(), nan, inf,
                     -inf}) {
    auto result = ParseWithEveryReader(HipBytesWithFirstTau(tau),
                                       "tau " + std::to_string(tau), true);
    ASSERT_FALSE(result.ok()) << tau;
    EXPECT_EQ(result.status().message(), "invalid HIP tau at index 0");
  }
  // Sanity: the re-stamping helper itself round-trips a legal tau, and the
  // weight every reader derives is its inverse.
  auto one = ParseWithEveryReader(HipBytesWithFirstTau(1.0), "tau 1");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one.value().hip_weight[0], 1.0);
}

// A file written before the HIP section stored tau alone carries section
// version 2: tau[] then weight[], +16 bytes per entry. This builds one by
// hand, as that layout defined it: `set`'s base image, the section header,
// both arrays, and the section checksum chained over both.
std::string WithRetiredHipSection(const FlatAdsSet& set) {
  const uint64_t m = set.TotalEntries();
  std::string bytes = SerializeAdsSetBinary(set).value();
  bytes.resize(AdsBinaryFileSize(set.num_nodes(), m));  // the base image
  const size_t section_at = bytes.size();
  const uint32_t version = 2;
  char header[kAdsHipSectionHeaderBytes] = {};
  std::memcpy(header, "hipadshw", 8);
  std::memcpy(header + 8, &version, sizeof(version));
  std::memcpy(header + 16, &m, sizeof(m));
  bytes.append(header, sizeof(header));
  bytes.append(reinterpret_cast<const char*>(set.hip_tau.data()),
               m * sizeof(double));
  bytes.append(reinterpret_cast<const char*>(set.hip_weight.data()),
               m * sizeof(double));
  RestampHipChecksum(&bytes, section_at, 2);
  return bytes;
}

void ExpectRetiredHipMessage(const Status& status, uint64_t base_bytes,
                             const std::string& what) {
  EXPECT_EQ(status.code(), Status::Code::kCorruption) << what;
  const std::string& message = status.message();
  EXPECT_NE(message.find("HIP section version 2"), std::string::npos)
      << what << ": " << message;
  EXPECT_NE(message.find(std::to_string(base_bytes) + "-byte base image"),
            std::string::npos)
      << what << ": " << message;
  EXPECT_NE(message.find("`hipads_cli convert`"), std::string::npos)
      << what << ": " << message;
}

// Every reader refuses a version-2 section with one message naming the
// version and the base-image length to truncate to — also with no entries,
// where both layouts are 32 bytes long and only the section header's
// version field tells them apart. The migration the message names works:
// the truncated file loads with its weights computed, and writing it gives
// the current writer's file.
TEST(SerializeBinaryTest, RetiredHipSectionFailsClosedNamingTheVersion) {
  FlatAdsSet set = BuildFlat(40, 7, 4, SketchFlavor::kKMins,
                             RankAssignment::Uniform(3));
  FlatAdsSet no_entries;
  no_entries.k = 4;
  no_entries.ranks = RankAssignment::Uniform(3);
  no_entries.offsets = {0, 0, 0, 0};
  for (const FlatAdsSet* s : {&set, &no_entries}) {
    const uint64_t m = s->TotalEntries();
    const std::string what = std::to_string(m) + " entries";
    const std::string bytes = WithRetiredHipSection(*s);
    const uint64_t base = AdsBinaryFileSize(s->num_nodes(), m);
    ASSERT_EQ(bytes.size(), base + kAdsHipSectionHeaderBytes + 16 * m);
    auto result = ParseWithEveryReader(bytes, what, true);
    ASSERT_FALSE(result.ok()) << what;
    ExpectRetiredHipMessage(result.status(), base, what);

    auto migrated = ParseFlatAdsSetBinary(bytes.substr(0, base));
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    EXPECT_EQ(SerializeAdsSetBinary(migrated.value()).value(),
              SerializeAdsSetBinary(*s).value())
        << what;
  }
}

// A shard directory holding a version-2 section fails at the size check
// every sharded open runs, before any sweep, naming the file and the old
// section.
TEST(SerializeBinaryTest, ShardWithRetiredHipSectionFailsValidateFiles) {
  FlatAdsSet set = BuildFlat(60, 7, 4, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(3));
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hipads_retired_hip_shards_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteShardedAdsSet(set, dir.string(), 3).ok());
  const std::string victim = (dir / "shard-00001.ads2").string();
  auto shard = ReadFlatAdsSetFile(victim);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  {
    std::ofstream f(victim, std::ios::binary | std::ios::trunc);
    f << WithRetiredHipSection(shard.value());
  }
  const uint64_t base =
      AdsBinaryFileSize(shard.value().num_nodes(), shard.value().TotalEntries());

  auto sharded = ShardedAdsSet::Open(dir.string());
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  Status valid = sharded.value().ValidateFiles();
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.message().find("shard-00001.ads2"), std::string::npos)
      << valid.message();
  ExpectRetiredHipMessage(valid, base, "ValidateFiles");
  for (BackendMode mode : {BackendMode::kCopy, BackendMode::kMmap}) {
    AdsBackendOptions options;
    options.mode = mode;
    auto opened = OpenAdsBackend(dir.string(), options);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().message(), valid.message());
  }
  std::filesystem::remove_all(dir);
}

// --- images loaded on a pool -----------------------------------------------

// A v2+HIP image of ~2.6 MB, so every reader loads and checks it on a
// pool (one thread per 256 KiB of image, up to 8 and the host's count):
// 4096 nodes of 16 canonical entries, each slot a valid tau.
// Returns the image and the byte offsets of its entries and tau arrays.
struct LargeImage {
  static constexpr uint32_t kPerNode = 16;
  std::string bytes;
  uint64_t num_entries = 0;
  size_t entries_at = 0;
  size_t hip_at = 0;  // the HIP section header
  size_t tau_at = 0;
};

const LargeImage& LargeHipImage() {
  static const LargeImage image = [] {
    constexpr uint32_t kNodes = 4096;
    constexpr uint32_t kPerNode = LargeImage::kPerNode;
    FlatAdsSet set;
    set.flavor = SketchFlavor::kBottomK;
    set.k = kPerNode;
    set.ranks = RankAssignment::Uniform(5);
    for (NodeId v = 0; v < kNodes; ++v) {
      std::vector<AdsEntry> entries;
      for (uint32_t j = 0; j < kPerNode; ++j) {
        entries.push_back(
            AdsEntry{(v + j) % kNodes, 0, 1.0 / (2.0 + j), 0.5 * j});
      }
      set.AppendNode(entries);
    }
    for (uint64_t i = 0; i < set.TotalEntries(); ++i) {
      set.hip_tau.push_back(1.0 / (1.0 + static_cast<double>(i % 7)));
      set.hip_weight.push_back(1.0 / set.hip_tau.back());
    }
    LargeImage out;
    out.bytes = SerializeAdsSetBinary(set).value();
    out.num_entries = set.TotalEntries();
    out.entries_at = kAdsBinaryHeaderBytes + (kNodes + 1) * sizeof(uint64_t);
    out.hip_at = out.entries_at + out.num_entries * sizeof(AdsEntry);
    out.tau_at = out.hip_at + kAdsHipSectionHeaderBytes;
    return out;
  }();
  return image;
}

TEST(SerializeBinaryTest, LargeImageLoadsIdenticallyThroughEveryReader) {
  const LargeImage& image = LargeHipImage();
  ASSERT_GE(image.bytes.size(), size_t{2} << 20);
  auto loaded = ParseWithEveryReader(image.bytes, "large image", true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().TotalEntries(), image.num_entries);
  EXPECT_EQ(SerializeAdsSetBinary(loaded.value()).value(), image.bytes);
}

// Damage in the first, a middle and the last slice of each checked array,
// alone and together, under re-stamped checksums so the per-entry checks
// are what object. Every reader must return the same Status code and
// message, naming the lowest failing index — and the fixed precedence
// (checksum, offsets, entries, canonical order, HIP header, HIP checksum,
// HIP tau) must hold across arrays.
TEST(SerializeBinaryTest, LargeImageReportsTheLowestFailingIndex) {
  const LargeImage& image = LargeHipImage();
  const uint64_t n = image.num_entries;
  const uint64_t first = 0;
  const uint64_t middle = n / 2 + 3;
  const uint64_t last = n - 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto put = [](std::string* bytes, size_t at, double value) {
    std::memcpy(bytes->data() + at, &value, sizeof(double));
  };
  auto bad_entry = [&](std::string* bytes, uint64_t i) {
    put(bytes, image.entries_at + i * sizeof(AdsEntry) + 16, nan);  // dist
  };
  auto tau_of = [&](double tau) {
    return [&image, &put, tau](std::string* bytes, uint64_t i) {
      put(bytes, image.tau_at + i * sizeof(double), tau);
    };
  };
  auto bad_tau = tau_of(1.5);
  auto expect = [](const std::string& bytes, const std::string& message,
                   const std::string& what) {
    auto result = ParseWithEveryReader(bytes, what, true);
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption) << what;
    EXPECT_EQ(result.status().message(), message) << what;
  };
  // Every tau outside {0} ∪ (0, 1] is refused: just past 1, negative, NaN
  // and infinite.
  using Damage = std::function<void(std::string*, uint64_t)>;
  const std::vector<std::tuple<const char*, Damage, std::string>> arrays = {
      {"entries", bad_entry, "invalid entry at index "},
      {"tau 1 + ulp", tau_of(std::nextafter(1.0, 2.0)),
       "invalid HIP tau at index "},
      {"tau -0.25", tau_of(-0.25), "invalid HIP tau at index "},
      {"tau NaN", tau_of(nan), "invalid HIP tau at index "},
      {"tau +inf", tau_of(std::numeric_limits<double>::infinity()),
       "invalid HIP tau at index "},
  };
  const std::vector<std::vector<uint64_t>> index_sets = {
      {first}, {middle}, {last}, {middle, last}, {last, first, middle}};
  for (const auto& [name, damage, prefix] : arrays) {
    for (const std::vector<uint64_t>& indices : index_sets) {
      std::string bytes = image.bytes;
      for (uint64_t i : indices) damage(&bytes, i);
      RestampBaseChecksum(&bytes);
      RestampHipChecksum(&bytes, image.hip_at);
      const uint64_t lowest =
          *std::min_element(indices.begin(), indices.end());
      expect(bytes, prefix + std::to_string(lowest),
             std::string(name) + " @" + std::to_string(lowest) + " of " +
                 std::to_string(indices.size()));
    }
  }
  {
    // A -0.0 tau is a filler like +0.0: accepted, with weight +0.0 (the
    // value the HIP scan writes for a filler), in every slice.
    std::string bytes = image.bytes;
    for (uint64_t i : {first, middle, last}) tau_of(-0.0)(&bytes, i);
    RestampHipChecksum(&bytes, image.hip_at);
    auto loaded = ParseWithEveryReader(bytes, "tau -0.0", true);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    for (uint64_t i : {first, middle, last}) {
      const double tau = loaded.value().hip_tau[i];
      const double weight = loaded.value().hip_weight[i];
      EXPECT_TRUE(tau == 0.0 && std::signbit(tau)) << i;
      EXPECT_TRUE(weight == 0.0 && !std::signbit(weight)) << i;
    }
  }
  {
    // Entry damage outranks tau damage at a lower index.
    std::string bytes = image.bytes;
    bad_tau(&bytes, first);
    bad_entry(&bytes, last);
    RestampBaseChecksum(&bytes);
    RestampHipChecksum(&bytes, image.hip_at);
    expect(bytes, "invalid entry at index " + std::to_string(last),
           "entries before HIP tau");
  }
  {
    // Blocks out of canonical order in a middle and the last slice: the
    // lower node is named, after entry damage and before tau damage.
    auto swap_first_two = [&](std::string* bytes, uint64_t node) {
      char* at = bytes->data() + image.entries_at +
                 node * LargeImage::kPerNode * sizeof(AdsEntry);
      std::swap_ranges(at, at + sizeof(AdsEntry), at + sizeof(AdsEntry));
    };
    std::string bytes = image.bytes;
    swap_first_two(&bytes, 4095);
    swap_first_two(&bytes, 2049);
    bad_tau(&bytes, first);
    RestampBaseChecksum(&bytes);
    RestampHipChecksum(&bytes, image.hip_at);
    expect(bytes, "entries of node 2049 not in canonical order",
           "order before HIP tau");
    bad_entry(&bytes, last);
    RestampBaseChecksum(&bytes);
    expect(bytes, "invalid entry at index " + std::to_string(last),
           "entries before order");
  }
  {
    // A non-monotone offset in a middle slice outranks entry damage.
    std::string bytes = image.bytes;
    const uint64_t node = 2049;
    const uint64_t huge = uint64_t{1} << 40;
    std::memcpy(bytes.data() + kAdsBinaryHeaderBytes + node * 8, &huge, 8);
    bad_entry(&bytes, first);
    RestampBaseChecksum(&bytes);
    expect(bytes, "offsets not monotone at node " + std::to_string(node),
           "offsets before entries");
  }
  {
    // Without re-stamping, each chain's checksum objects first.
    std::string bytes = image.bytes;
    bad_entry(&bytes, last);
    bad_tau(&bytes, first);
    expect(bytes, "checksum mismatch", "base checksum");
    bytes = image.bytes;
    bad_tau(&bytes, middle);
    expect(bytes, "HIP section checksum mismatch", "HIP checksum");
  }
}

TEST(SerializeBinaryTest, HipSectionFuzzRandomMutationsNeverCrash) {
  std::string valid = HipBytes();
  const size_t base = ValidBytes().size();
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = valid;
    int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      // Bias half the flips into the section so its validators get hit.
      size_t pos = f % 2 == 0
                       ? base + rng.NextBounded(bytes.size() - base)
                       : rng.NextBounded(bytes.size());
      bytes[pos] = static_cast<char>(rng.Next());
    }
    // Must not crash, and every reader must reach the same verdict.
    auto result = ParseWithEveryReader(bytes, "HIP mutation " +
                                                  std::to_string(trial));
    if (result.ok()) {
      EXPECT_EQ(result.value().num_nodes(), 40u);
    }
  }
}

// Both chained checksums together cover every bit of an image: flip any
// single bit of a small image carrying the HIP section — header, offsets,
// entries, section header or tau — and every reader refuses it.
TEST(SerializeBinaryTest, RejectsEverySingleBitFlipWithHipSection) {
  FlatAdsSet set = BuildFlat(6, 5, 2, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(9));
  const std::string valid = SerializeAdsSetBinary(set).value();
  ASSERT_EQ(valid.size(),
            AdsBinaryFileSize(set.num_nodes(), set.TotalEntries()) +
                AdsHipSectionBytes(set.TotalEntries()));
  ASSERT_LT(valid.size(), 2048u);  // small: 8 flips per byte, 3 readers
  for (size_t bit = 0; bit < 8 * valid.size(); ++bit) {
    std::string bytes = valid;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    auto result = ParseWithEveryReader(bytes, "bit " + std::to_string(bit));
    EXPECT_FALSE(result.ok()) << "bit " << bit << " flipped undetected";
  }
}

// A valid image whose node block is out of canonical order — possible
// only from a foreign writer, since ours always sorts — is corrupt: HIP
// reads a sketch in one increasing-distance scan, and the HIP section is
// aligned to that order. Every reader names the node.
TEST(SerializeBinaryTest, NonCanonicalBlockFailsInEveryReader) {
  FlatAdsSet set = BuildFlat(40, 7, 4, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(3));
  NodeId v = 0;
  while (set.of(v).size() < 2) ++v;
  std::string bytes = SerializeAdsSetBinary(set).value();
  char* first = bytes.data() + kAdsBinaryHeaderBytes +
                (set.num_nodes() + 1) * sizeof(uint64_t) +
                set.offsets[v] * sizeof(AdsEntry);
  std::swap_ranges(first, first + sizeof(AdsEntry), first + sizeof(AdsEntry));
  RestampBaseChecksum(&bytes);

  auto result = ParseWithEveryReader(bytes, "non-canonical block", true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
  EXPECT_EQ(result.status().message(),
            "entries of node " + std::to_string(v) + " not in canonical order");
}

// v1 text is convert-only: every v2 reader rejects it with one message
// that names the format and the command that migrates it — also when the
// text is shorter than a v2 header. The v1 parser still reads it.
TEST(SerializeBinaryTest, V1TextIsRejectedByEveryReader) {
  FlatAdsSet set = BuildFlat(30, 11, 4, SketchFlavor::kBottomK,
                             RankAssignment::Uniform(5));
  FlatAdsSet no_nodes;
  no_nodes.k = 4;
  no_nodes.ranks = RankAssignment::Uniform(5);
  const std::string short_text = SerializeAdsSet(no_nodes);
  ASSERT_LT(short_text.size(), kAdsBinaryHeaderBytes);
  for (const std::string& text : {SerializeAdsSet(set), short_text}) {
    ASSERT_TRUE(ParseFlatAdsSet(text).ok());
    auto result = ParseWithEveryReader(text, "v1 text", true);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
    const std::string& message = result.status().message();
    EXPECT_NE(message.find("hipads-ads-v1"), std::string::npos) << message;
    EXPECT_NE(message.find("hipads_cli convert"), std::string::npos)
        << message;
  }
}

TEST(SerializeBinaryTest, ReadMissingFileFails) {
  auto result = ReadFlatAdsSetFile("/nonexistent/sketches.ads2");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

}  // namespace
}  // namespace hipads
