#include "ads/serialize.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "util/hash.h"

namespace hipads {

namespace {

constexpr char kMagic[] = "hipads-ads-v1";

// Binary v2 layout: V2Header, then the raw offsets[] section, then the raw
// AdsEntry[] arena. Everything is little-endian / host layout; the header
// carries explicit per-section byte lengths and an FNV-1a checksum of the
// payload so loaders can validate structure before touching a byte of it.
constexpr char kMagicV2[8] = {'h', 'i', 'p', 'a', 'd', 's', 'v', '2'};
constexpr uint32_t kVersionV2 = 2;

struct V2Header {
  char magic[8];
  uint32_t version;
  uint32_t flavor;
  uint32_t rank_kind;
  uint32_t k;
  uint64_t seed;
  double base;  // base-b ranks only, 0 otherwise
  double sup;   // rank supremum (permutation sets store n + 1 here)
  uint64_t num_nodes;
  uint64_t num_entries;
  uint64_t offsets_bytes;  // == (num_nodes + 1) * sizeof(uint64_t)
  uint64_t entries_bytes;  // == num_entries * sizeof(AdsEntry)
  uint64_t checksum;       // FNV-1a over the header (this field zeroed)
                           // followed by the offsets + entries sections
};
static_assert(sizeof(V2Header) == kAdsBinaryHeaderBytes,
              "v2 header layout drifted");
static_assert(std::is_trivially_copyable_v<AdsEntry> &&
                  sizeof(AdsEntry) == 24,
              "AdsEntry must stay a packed 24-byte POD for the v2 format");
static_assert(std::endian::native == std::endian::little,
              "the hipads-ads-v2 format is little-endian; big-endian hosts "
              "need byte swapping");

// Checksum of a v2 file image: the header with its checksum field zeroed,
// then the payload sections (util/hash.h Fnv1a, shared with the wire
// protocol's frame checksum). Covering the header means any single
// corrupted parameter byte (flavor, k, seed, ...) is caught even when it
// would still parse as a structurally valid file. The optional HIP section
// is NOT covered — it carries its own checksum — so the base image of a
// file is bit-identical whether or not the section follows it.
uint64_t V2Checksum(V2Header h, const char* payload, size_t payload_size) {
  h.checksum = 0;
  uint64_t sum = Fnv1a(reinterpret_cast<const char*>(&h), sizeof(V2Header),
                       kFnv1aOffsetBasis);
  return Fnv1a(payload, payload_size, sum);
}

// Optional HIP section, appended after the entry arena: this header, then
// tau[num_entries] + weight[num_entries] doubles (hip.h's aligned layout).
// Every preceding section is a multiple of 8 bytes, so the double arrays
// stay 8-byte aligned in any mapping of the file.
constexpr char kMagicHip[8] = {'h', 'i', 'p', 'a', 'd', 's', 'h', 'w'};
constexpr uint32_t kHipSectionVersion = 1;

struct HipSectionHeader {
  char magic[8];
  uint32_t version;
  uint32_t reserved;     // must be zero
  uint64_t num_entries;  // must equal the main header's num_entries
  uint64_t checksum;     // FNV-1a over this header (field zeroed) + arrays
};
static_assert(sizeof(HipSectionHeader) == kAdsHipSectionHeaderBytes,
              "HIP section header layout drifted");

uint64_t HipSectionChecksum(HipSectionHeader h, const char* payload,
                            size_t payload_size) {
  h.checksum = 0;
  uint64_t sum = Fnv1a(reinterpret_cast<const char*>(&h),
                       sizeof(HipSectionHeader), kFnv1aOffsetBasis);
  return Fnv1a(payload, payload_size, sum);
}

const char* FlavorName(SketchFlavor flavor) {
  switch (flavor) {
    case SketchFlavor::kBottomK:
      return "bottom-k";
    case SketchFlavor::kKMins:
      return "k-mins";
    case SketchFlavor::kKPartition:
      return "k-partition";
  }
  return "?";
}

bool ParseFlavor(const std::string& name, SketchFlavor* out) {
  if (name == "bottom-k") {
    *out = SketchFlavor::kBottomK;
  } else if (name == "k-mins") {
    *out = SketchFlavor::kKMins;
  } else if (name == "k-partition") {
    *out = SketchFlavor::kKPartition;
  } else {
    return false;
  }
  return true;
}

const char* RankKindName(RankKind kind) {
  switch (kind) {
    case RankKind::kUniform:
      return "uniform";
    case RankKind::kBaseB:
      return "base-b";
    case RankKind::kExponential:
      return "exponential";
    case RankKind::kPriority:
      return "priority";
    case RankKind::kPermutation:
      return "permutation";
  }
  return "?";
}

// The per-entry check both readers (v1 text, v2 binary) run: a part index
// inside the sketch, a finite non-negative distance and a non-negative
// rank (every RankKind draws ranks >= 0). NaN fails every comparison, so a
// NaN distance or rank is rejected too.
bool ValidEntry(const AdsEntry& e, uint32_t k) {
  return e.part < k && std::isfinite(e.dist) && e.dist >= 0.0 &&
         e.rank >= 0.0;
}

}  // namespace

Status RanksFromStoredParams(RankKind kind, uint64_t seed, double base,
                             std::function<double(uint64_t)> beta,
                             RankAssignment* out) {
  switch (kind) {
    case RankKind::kUniform:
      *out = RankAssignment::Uniform(seed);
      return Status::Ok();
    case RankKind::kBaseB:
      if (base <= 1.0) return Status::Corruption("bad base-b parameters");
      *out = RankAssignment::BaseB(seed, base);
      return Status::Ok();
    case RankKind::kExponential:
    case RankKind::kPriority:
      if (beta == nullptr) {
        return Status::InvalidArgument(
            "weighted-rank (exponential/priority) ADS sets require the beta "
            "function at load time");
      }
      *out = kind == RankKind::kExponential
                 ? RankAssignment::Exponential(seed, std::move(beta))
                 : RankAssignment::Priority(seed, std::move(beta));
      return Status::Ok();
    case RankKind::kPermutation:
      return Status::InvalidArgument(
          "permutation-rank ADS sets are not round-trippable; store the "
          "permutation separately");
  }
  return Status::Corruption("unknown rank kind");
}

std::string SerializeAdsParams(SketchFlavor flavor, uint32_t k,
                               const RankAssignment& ranks,
                               uint64_t num_nodes) {
  std::ostringstream os;
  char buf[128];
  os << "flavor " << FlavorName(flavor) << '\n';
  os << "k " << k << '\n';
  os << "ranks " << RankKindName(ranks.kind());
  switch (ranks.kind()) {
    case RankKind::kUniform:
    case RankKind::kExponential:
    case RankKind::kPriority:
      os << ' ' << ranks.seed();
      break;
    case RankKind::kBaseB:
      std::snprintf(buf, sizeof(buf), " %" PRIu64 " %.17g", ranks.seed(),
                    ranks.base());
      os << buf;
      break;
    case RankKind::kPermutation:
      // Permutation values are re-derivable from the stored entry ranks
      // only for sketched nodes; store the size so loaders can at least
      // reconstruct sup(). Full permutations should be stored separately.
      os << ' ' << static_cast<uint64_t>(ranks.sup() - 1.0);
      break;
  }
  os << '\n';
  os << "nodes " << num_nodes << '\n';
  return os.str();
}

Status ParseAdsParams(std::istream& in, std::function<double(uint64_t)> beta,
                      SketchFlavor* flavor, uint32_t* k,
                      RankAssignment* ranks, uint64_t* num_nodes) {
  std::string word;
  std::string flavor_name;
  if (!(in >> word >> flavor_name) || word != "flavor" ||
      !ParseFlavor(flavor_name, flavor)) {
    return Status::Corruption("bad flavor line");
  }
  if (!(in >> word >> *k) || word != "k" || *k == 0) {
    return Status::Corruption("bad k line");
  }
  std::string kind_name;
  if (!(in >> word >> kind_name) || word != "ranks") {
    return Status::Corruption("bad ranks line");
  }
  if (kind_name == "uniform") {
    uint64_t seed;
    if (!(in >> seed)) return Status::Corruption("bad uniform seed");
    *ranks = RankAssignment::Uniform(seed);
  } else if (kind_name == "base-b") {
    uint64_t seed;
    double base;
    if (!(in >> seed >> base) || base <= 1.0) {
      return Status::Corruption("bad base-b parameters");
    }
    *ranks = RankAssignment::BaseB(seed, base);
  } else if (kind_name == "exponential" || kind_name == "priority") {
    uint64_t seed;
    if (!(in >> seed)) return Status::Corruption("bad weighted-rank seed");
    Status made = RanksFromStoredParams(kind_name == "exponential"
                                            ? RankKind::kExponential
                                            : RankKind::kPriority,
                                        seed, 0.0, std::move(beta), ranks);
    if (!made.ok()) return made;
  } else if (kind_name == "permutation") {
    return Status::InvalidArgument(
        "permutation-rank ADS sets are not round-trippable; store the "
        "permutation separately");
  } else {
    return Status::Corruption("unknown rank kind " + kind_name);
  }
  if (!(in >> word >> *num_nodes) || word != "nodes") {
    return Status::Corruption("bad nodes line");
  }
  return Status::Ok();
}

std::string SerializeAdsSet(const FlatAdsSet& set) {
  std::ostringstream os;
  char buf[128];
  os << kMagic << '\n';
  os << SerializeAdsParams(set.flavor, set.k, set.ranks, set.num_nodes());
  for (NodeId v = 0; v < set.num_nodes(); ++v) {
    AdsView ads = set.of(v);
    os << v << ' ' << ads.size() << '\n';
    for (const AdsEntry& e : ads.entries()) {
      std::snprintf(buf, sizeof(buf), "%u %u %.17g %.17g\n", e.node, e.part,
                    e.rank, e.dist);
      os << buf;
    }
  }
  return os.str();
}

std::string SerializeAdsSetBinary(const FlatAdsSet& set) {
  V2Header h{};
  std::memcpy(h.magic, kMagicV2, sizeof(h.magic));
  h.version = kVersionV2;
  h.flavor = static_cast<uint32_t>(set.flavor);
  h.rank_kind = static_cast<uint32_t>(set.ranks.kind());
  h.k = set.k;
  h.seed = set.ranks.seed();
  h.base = set.ranks.kind() == RankKind::kBaseB ? set.ranks.base() : 0.0;
  h.sup = set.ranks.sup();
  h.num_nodes = set.num_nodes();
  h.num_entries = set.entries.size();
  h.offsets_bytes = set.offsets.size() * sizeof(uint64_t);
  h.entries_bytes = set.entries.size() * sizeof(AdsEntry);

  std::string out;
  const size_t base_size = sizeof(V2Header) + h.offsets_bytes +
                           h.entries_bytes;
  out.resize(base_size);
  char* p = out.data() + sizeof(V2Header);
  std::memcpy(p, set.offsets.data(), h.offsets_bytes);
  std::memcpy(p + h.offsets_bytes, set.entries.data(), h.entries_bytes);
  h.checksum = V2Checksum(h, p, h.offsets_bytes + h.entries_bytes);
  std::memcpy(out.data(), &h, sizeof(V2Header));

  if (set.has_hip()) {
    assert(set.hip_tau.size() == set.entries.size() &&
           set.hip_weight.size() == set.entries.size());
    HipSectionHeader sh{};
    std::memcpy(sh.magic, kMagicHip, sizeof(sh.magic));
    sh.version = kHipSectionVersion;
    sh.num_entries = set.entries.size();
    const uint64_t array_bytes = sh.num_entries * sizeof(double);
    out.resize(base_size + sizeof(HipSectionHeader) + 2 * array_bytes);
    char* s = out.data() + base_size + sizeof(HipSectionHeader);
    std::memcpy(s, set.hip_tau.data(), array_bytes);
    std::memcpy(s + array_bytes, set.hip_weight.data(), array_bytes);
    sh.checksum = HipSectionChecksum(sh, s, 2 * array_bytes);
    std::memcpy(out.data() + base_size, &sh, sizeof(HipSectionHeader));
  }
  return out;
}

bool IsBinaryAdsData(const std::string& data) {
  return data.size() >= sizeof(kMagicV2) &&
         std::memcmp(data.data(), kMagicV2, sizeof(kMagicV2)) == 0;
}

uint64_t AdsBinaryFileSize(uint64_t num_nodes, uint64_t num_entries) {
  return sizeof(V2Header) + (num_nodes + 1) * sizeof(uint64_t) +
         num_entries * sizeof(AdsEntry);
}

uint64_t AdsHipSectionBytes(uint64_t num_entries) {
  return sizeof(HipSectionHeader) + 2 * num_entries * sizeof(double);
}

StatusOr<AdsBinaryView> ValidateAdsSetBinary(const char* data, size_t size) {
  if (size < sizeof(V2Header)) {
    return Status::Corruption("truncated hipads-ads-v2 header");
  }
  V2Header h;
  std::memcpy(&h, data, sizeof(V2Header));
  if (std::memcmp(h.magic, kMagicV2, sizeof(h.magic)) != 0) {
    return Status::Corruption("missing hipads-ads-v2 magic");
  }
  if (h.version != kVersionV2) {
    return Status::Corruption("unsupported hipads-ads-v2 version " +
                              std::to_string(h.version));
  }
  if (h.flavor > static_cast<uint32_t>(SketchFlavor::kKPartition)) {
    return Status::Corruption("bad flavor field");
  }
  if (h.rank_kind > static_cast<uint32_t>(RankKind::kPermutation)) {
    return Status::Corruption("bad rank-kind field");
  }
  if (h.k == 0) return Status::Corruption("bad k field");
  // Structural validation before any pointer arithmetic from header fields:
  // node count must fit NodeId, section lengths must match the counts, and
  // header + sections must cover the buffer exactly (no trailing bytes).
  if (h.num_nodes > std::numeric_limits<NodeId>::max()) {
    return Status::Corruption("node count exceeds NodeId range");
  }
  if (h.num_entries > size / sizeof(AdsEntry) + 1) {
    return Status::Corruption("entry count exceeds file size");
  }
  if (h.offsets_bytes != (h.num_nodes + 1) * sizeof(uint64_t)) {
    return Status::Corruption("offsets section length mismatch");
  }
  if (h.entries_bytes != h.num_entries * sizeof(AdsEntry)) {
    return Status::Corruption("entries section length mismatch");
  }
  // Exactly two lengths are valid: the base sections alone, or base plus
  // the optional HIP section. Anything else — including truncation at any
  // byte of the section — is corruption.
  const uint64_t base_size =
      sizeof(V2Header) + h.offsets_bytes + h.entries_bytes;
  bool has_hip = false;
  if (size != base_size) {
    if (size != base_size + AdsHipSectionBytes(h.num_entries)) {
      return Status::Corruption("file length does not match header sections");
    }
    has_hip = true;
  }
  const char* payload = data + sizeof(V2Header);
  if (V2Checksum(h, payload, h.offsets_bytes + h.entries_bytes) !=
      h.checksum) {
    return Status::Corruption("checksum mismatch");
  }

  AdsBinaryView view;
  view.flavor = static_cast<SketchFlavor>(h.flavor);
  view.rank_kind = static_cast<RankKind>(h.rank_kind);
  view.k = h.k;
  view.seed = h.seed;
  view.base = h.base;
  view.num_nodes = h.num_nodes;
  view.num_entries = h.num_entries;
  view.offsets = reinterpret_cast<const uint64_t*>(payload);
  view.entries =
      reinterpret_cast<const AdsEntry*>(payload + h.offsets_bytes);
  if (view.offsets[0] != 0 || view.offsets[h.num_nodes] != h.num_entries) {
    return Status::Corruption("offsets do not span the entry arena");
  }
  for (uint64_t v = 0; v < h.num_nodes; ++v) {
    if (view.offsets[v] > view.offsets[v + 1]) {
      return Status::Corruption("offsets not monotone at node " +
                                std::to_string(v));
    }
  }
  for (uint64_t i = 0; i < h.num_entries; ++i) {
    const AdsEntry& e = view.entries[i];
    if (!ValidEntry(e, view.k)) {
      return Status::Corruption("invalid entry at index " +
                                std::to_string(i));
    }
  }
  view.canonical_order = true;
  for (uint64_t v = 0; v < h.num_nodes && view.canonical_order; ++v) {
    view.canonical_order = std::is_sorted(view.entries + view.offsets[v],
                                          view.entries + view.offsets[v + 1],
                                          AdsEntryCloser);
  }
  if (has_hip) {
    const char* sec = data + base_size;
    HipSectionHeader sh;
    std::memcpy(&sh, sec, sizeof(HipSectionHeader));
    if (std::memcmp(sh.magic, kMagicHip, sizeof(sh.magic)) != 0) {
      return Status::Corruption("missing HIP section magic");
    }
    if (sh.version != kHipSectionVersion) {
      return Status::Corruption("unsupported HIP section version " +
                                std::to_string(sh.version));
    }
    if (sh.reserved != 0) {
      return Status::Corruption("bad HIP section reserved field");
    }
    if (sh.num_entries != h.num_entries) {
      return Status::Corruption("HIP section entry count mismatch");
    }
    const char* sec_payload = sec + sizeof(HipSectionHeader);
    const uint64_t array_bytes = h.num_entries * sizeof(double);
    if (HipSectionChecksum(sh, sec_payload, 2 * array_bytes) != sh.checksum) {
      return Status::Corruption("HIP section checksum mismatch");
    }
    const double* tau = reinterpret_cast<const double*>(sec_payload);
    const double* weight =
        reinterpret_cast<const double*>(sec_payload + array_bytes);
    // Per-entry integrity: a slot is either a k-mins run filler (both
    // zero) or a probability in (0, 1] with weight exactly its inverse.
    // NaNs fail every comparison, so they are rejected too.
    for (uint64_t i = 0; i < h.num_entries; ++i) {
      const bool filler = tau[i] == 0.0 && weight[i] == 0.0;
      const bool valid =
          tau[i] > 0.0 && tau[i] <= 1.0 && weight[i] == 1.0 / tau[i];
      if (!filler && !valid) {
        return Status::Corruption("invalid HIP weight at index " +
                                  std::to_string(i));
      }
    }
    view.hip_tau = tau;
    view.hip_weight = weight;
  }
  return view;
}

StatusOr<FlatAdsSet> ParseFlatAdsSetBinary(
    const std::string& data, std::function<double(uint64_t)> beta) {
  auto validated = ValidateAdsSetBinary(data.data(), data.size());
  if (!validated.ok()) return validated.status();
  const AdsBinaryView& v = validated.value();

  FlatAdsSet set;
  set.flavor = v.flavor;
  set.k = v.k;
  Status ranks_status = RanksFromStoredParams(v.rank_kind, v.seed, v.base,
                                              std::move(beta), &set.ranks);
  if (!ranks_status.ok()) return ranks_status;
  set.offsets.assign(v.offsets, v.offsets + v.num_nodes + 1);
  set.entries.assign(v.entries, v.entries + v.num_entries);
  // The writer emits canonical per-node order; re-sort any node whose block
  // is not (a no-op for writer-produced files). The copying loader can do
  // what the zero-copy view cannot — this is also the fallback path the
  // mmap backend takes for non-canonical files.
  if (!v.canonical_order) {
    for (uint64_t node = 0; node < v.num_nodes; ++node) {
      std::sort(set.entries.begin() + static_cast<int64_t>(set.offsets[node]),
                set.entries.begin() +
                    static_cast<int64_t>(set.offsets[node + 1]),
                AdsEntryCloser);
    }
  }
  // Adopt the HIP section only when the entries kept their stored order:
  // the arrays are positionally aligned with the arena, so a re-sort above
  // would desynchronize them. Dropping them is safe — they are pure
  // derived data the scan fallback recomputes.
  if (v.has_hip() && v.canonical_order) {
    set.hip_tau.assign(v.hip_tau, v.hip_tau + v.num_entries);
    set.hip_weight.assign(v.hip_weight, v.hip_weight + v.num_entries);
  }
  return set;
}

StatusOr<FlatAdsSet> ParseFlatAdsSetAny(const std::string& data,
                                        std::function<double(uint64_t)> beta) {
  return IsBinaryAdsData(data) ? ParseFlatAdsSetBinary(data, std::move(beta))
                               : ParseFlatAdsSet(data, std::move(beta));
}

Status WriteAdsSetFile(const FlatAdsSet& set, const std::string& path,
                       AdsFileFormat format) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  f << (format == AdsFileFormat::kBinaryV2 ? SerializeAdsSetBinary(set)
                                           : SerializeAdsSet(set));
  if (!f.good()) return Status::IOError("write failed for " + path);
  return Status::Ok();
}

StatusOr<FlatAdsSet> ParseFlatAdsSet(const std::string& text,
                                     std::function<double(uint64_t)> beta) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    return Status::Corruption("missing hipads-ads-v1 header");
  }
  FlatAdsSet set;
  uint64_t n = 0;
  Status s = ParseAdsParams(in, std::move(beta), &set.flavor, &set.k,
                            &set.ranks, &n);
  if (!s.ok()) return s;
  // Every node block takes at least one byte, so a larger node count is
  // corruption — rejected before it sizes an allocation.
  if (n > text.size()) {
    return Status::Corruption("node count exceeds input size");
  }

  // Node blocks must appear in node-id order (which is what SerializeAdsSet
  // writes), so entries land in the arena already CSR-ordered; duplicated
  // or shuffled blocks are corruption.
  set.offsets.reserve(n + 1);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v, count;
    if (!(in >> v >> count) || v >= n) {
      return Status::Corruption("bad node header at index " +
                                std::to_string(i));
    }
    if (v != i) {
      return Status::Corruption(
          "duplicate or out-of-order node block for node " +
          std::to_string(v));
    }
    for (uint64_t e = 0; e < count; ++e) {
      AdsEntry entry;
      if (!(in >> entry.node >> entry.part >> entry.rank >> entry.dist)) {
        return Status::Corruption("truncated entries for node " +
                                  std::to_string(v));
      }
      if (!ValidEntry(entry, set.k)) {
        return Status::Corruption("invalid entry for node " +
                                  std::to_string(v));
      }
      set.entries.push_back(entry);
    }
    set.offsets.push_back(set.entries.size());
  }
  // Accept exactly the files the writer produces: nothing but whitespace
  // may follow the last node block.
  std::string extra;
  if (in >> extra) {
    return Status::Corruption("trailing garbage after last node block");
  }
  // Files are not required to store entries in canonical order; restore it
  // per node (a no-op for writer-produced files).
  for (uint64_t v = 0; v < n; ++v) {
    auto begin = set.entries.begin() + static_cast<int64_t>(set.offsets[v]);
    auto end = set.entries.begin() + static_cast<int64_t>(set.offsets[v + 1]);
    if (!std::is_sorted(begin, end, AdsEntryCloser)) {
      std::sort(begin, end, AdsEntryCloser);
    }
  }
  return set;
}

StatusOr<FlatAdsSet> ReadFlatAdsSetFile(const std::string& path,
                                        std::function<double(uint64_t)> beta) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseFlatAdsSetAny(buf.str(), std::move(beta));
}

}  // namespace hipads
