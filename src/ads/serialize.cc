#include "ads/serialize.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "util/hash.h"
#include "util/parallel.h"

namespace hipads {

namespace {

constexpr char kMagic[] = "hipads-ads-v1";

// Binary v2 layout: V2Header, then the raw offsets[] section, then the raw
// AdsEntry[] arena. Everything is little-endian / host layout; the header
// carries explicit per-section byte lengths and a chained XXH64 checksum
// so loaders can validate structure before touching a byte of the payload.
// Header version 3 is the XXH64 layout; version 2 files (FNV-1a, same
// bytes otherwise) are rejected like any other unknown version.
constexpr char kMagicV2[8] = {'h', 'i', 'p', 'a', 'd', 's', 'v', '2'};
constexpr uint32_t kVersionV2 = 3;

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
  uint64_t checksum;       // XXH64 chain: header (this field zeroed, seed
                           // 0) -> offsets -> entries
};
static_assert(sizeof(V2Header) == kAdsBinaryHeaderBytes,
              "v2 header layout drifted");
static_assert(std::is_trivially_copyable_v<AdsEntry> &&
                  sizeof(AdsEntry) == 24,
              "AdsEntry must stay a packed 24-byte POD for the v2 format");
static_assert(std::endian::native == std::endian::little,
              "the hipads-ads-v2 format is little-endian; big-endian hosts "
              "need byte swapping");

// Optional HIP section, appended after the entry arena: this header, then
// tau[num_entries] doubles (hip.h's aligned layout). Every preceding
// section is a multiple of 8 bytes, so tau stays 8-byte aligned in any
// mapping of the file. Section version 3 stores tau alone: the weight is
// 1 / tau by definition, and the validator derives it as it checks tau.
// Version 2 stored weight[num_entries] after tau; such files fail closed
// with RetiredHipSection's message.
constexpr char kMagicHip[8] = {'h', 'i', 'p', 'a', 'd', 's', 'h', 'w'};
constexpr uint32_t kHipSectionVersion = 3;
constexpr uint32_t kRetiredHipSectionVersion = 2;

struct HipSectionHeader {
  char magic[8];
  uint32_t version;
  uint32_t reserved;     // must be zero
  uint64_t num_entries;  // must equal the main header's num_entries
  uint64_t checksum;     // XXH64 chain: this header (field zeroed, seed 0)
                         // -> tau
};
static_assert(sizeof(HipSectionHeader) == kAdsHipSectionHeaderBytes,
              "HIP section header layout drifted");

// Both checksums are XXH64 chains (util/hash.h): the header with its
// checksum field zeroed hashed under seed 0, then each section hashed with
// the chain so far as its seed. Covering the header means any single
// corrupted parameter byte (flavor, k, seed, ...) is caught even when it
// would still parse as a structurally valid file; chaining per section
// lets writers hash spans of an arena and readers hash the arrays they
// read each section into, with no contiguous image anywhere. The base
// chain does NOT cover the HIP section — it carries its own — so the base
// image of a file is bit-identical whether or not the section follows it.
template <typename Header>
uint64_t HeaderHash(Header h) {
  h.checksum = 0;
  return Xxh64(reinterpret_cast<const char*>(&h), sizeof(Header), 0);
}

uint64_t Chain(uint64_t chain, const void* section, uint64_t bytes) {
  return Xxh64(static_cast<const char*>(section), bytes, chain);
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

// What every reader returns for a file whose HIP section is the retired
// version 2. Its base image (`base_bytes` long) is still valid, so
// truncating the file to it and recomputing the section migrates it.
Status RetiredHipSection(uint64_t base_bytes) {
  return Status::Corruption(
      "HIP section version 2 (tau and weight) is retired; truncate the file "
      "to its " +
      std::to_string(base_bytes) +
      "-byte base image, then store a version 3 section with `hipads_cli "
      "convert --hip 1`");
}

// The unit of a v2 load's work. The copying readers read the sections in
// pieces of at most this size, and a load's pool gets one thread per whole
// piece of image, so an image smaller than two pieces loads on the calling
// thread alone. On 4 vCPUs a pool of 4 costs ~90 us to start; against it,
// an inline load of a v2+HIP image was faster up to 256 KiB, tied at
// 512 KiB, and was 1.3-1.7x slower at 1 MiB.
constexpr uint64_t kLoadPieceBytes = uint64_t{1} << 18;

// The widest load pool. The base XXH64 chain is sequential and about a
// seventh of a load's check work (a 28 MB v2+HIP shard on 4 vCPUs: 12.1 ms
// to mmap-open on one thread, 1.8 ms for the chain alone), so past ~7
// threads the checks wait on the chain. Not measured above 4 vCPUs.
constexpr uint32_t kMaxLoadThreads = 8;

uint32_t LoadThreads(const AdsBinaryHeader& h) {
  const uint64_t image_bytes =
      AdsBinaryFileSize(h.num_nodes, h.num_entries) +
      (h.has_hip ? AdsHipSectionBytes(h.num_entries) : 0);
  return ThreadsForWork(image_bytes, kLoadPieceBytes, kMaxLoadThreads);
}

// What one slice of the per-entry checks found: the lowest failing node or
// entry index of each check inside the slice (kNone: none).
constexpr uint64_t kNone = std::numeric_limits<uint64_t>::max();
struct SliceFindings {
  uint64_t nonmonotone = kNone;
  uint64_t bad_entry = kNone;
  uint64_t noncanonical = kNone;
  uint64_t bad_tau = kNone;
};

// The per-entry checks over nodes [node_begin, node_end) and entries
// [entry_begin, entry_end), each stopping at its first failure. The
// offsets are not trusted yet: a node block is examined only when it lies
// inside the arena, and a block that does not implies a failure
// CheckSections reports first (offsets[n] is checked against the entry
// count, so a block past it is followed by a non-monotone offset).
SliceFindings CheckSlice(const AdsBinaryHeader& h, const AdsBinarySections& s,
                         uint64_t node_begin, uint64_t node_end,
                         uint64_t entry_begin, uint64_t entry_end) {
  SliceFindings f;
  for (uint64_t v = node_begin; v < node_end; ++v) {
    const uint64_t lo = s.offsets[v];
    const uint64_t hi = s.offsets[v + 1];
    if (lo > hi) {
      f.nonmonotone = v;
      break;
    }
    if (f.noncanonical == kNone && hi <= h.num_entries &&
        !std::is_sorted(s.entries + lo, s.entries + hi, AdsEntryCloser)) {
      f.noncanonical = v;
    }
  }
  for (uint64_t i = entry_begin; i < entry_end; ++i) {
    if (!ValidEntry(s.entries[i], h.k)) {
      f.bad_entry = i;
      break;
    }
  }
  if (!h.has_hip) return f;
  // Per-entry integrity: a tau is either a k-mins run filler (zero, weight
  // zero) or a probability in (0, 1] (weight its inverse), and the weight
  // is written as the HIP scan writes it. NaN fails every comparison, so
  // it is rejected too.
  for (uint64_t i = entry_begin; i < entry_end; ++i) {
    const double tau = s.hip_tau[i];
    if (tau == 0.0) {
      s.hip_weight[i] = 0.0;
    } else if (tau > 0.0 && tau <= 1.0) {
      s.hip_weight[i] = 1.0 / tau;
    } else {
      f.bad_tau = i;
      break;
    }
  }
  return f;
}

// CheckAdsBinarySections on `pool`. The two checksum chains are sequential
// by definition, so each is one task; the per-entry checks run on slices
// beside them. Every task runs to its end and the failures are then
// reported in one fixed order, each naming the lowest failing index, so a
// damaged image gets the same Status whatever the pool's width.
Status CheckSections(const AdsBinaryHeader& h, const AdsBinarySections& s,
                     ThreadPool& pool) {
  const uint64_t n = h.num_nodes;
  HipSectionHeader sh{};
  if (h.has_hip) {
    assert(s.hip_weight != nullptr || h.num_entries == 0);
    std::memcpy(&sh, s.hip_header, sizeof(HipSectionHeader));
  }
  uint64_t base_sum = 0;
  uint64_t hip_sum = 0;
  const uint64_t slices = 4 * uint64_t{pool.num_threads()};
  std::vector<SliceFindings> found(slices);
  pool.RunTasks(2 + slices, [&](size_t task) {
    if (task == 0) {
      base_sum = Chain(Chain(h.header_hash, s.offsets, h.offsets_bytes()),
                       s.entries, h.entries_bytes());
    } else if (task == 1) {
      if (h.has_hip) {
        hip_sum = Chain(HeaderHash(sh), s.hip_tau,
                        h.num_entries * sizeof(double));
      }
    } else {
      const uint64_t j = task - 2;
      found[j] = CheckSlice(h, s, n * j / slices, n * (j + 1) / slices,
                            h.num_entries * j / slices,
                            h.num_entries * (j + 1) / slices);
    }
  });

  if (base_sum != h.checksum) return Status::Corruption("checksum mismatch");
  if (s.offsets[0] != 0 || s.offsets[n] != h.num_entries) {
    return Status::Corruption("offsets do not span the entry arena");
  }
  for (const SliceFindings& f : found) {
    if (f.nonmonotone != kNone) {
      return Status::Corruption("offsets not monotone at node " +
                                std::to_string(f.nonmonotone));
    }
  }
  for (const SliceFindings& f : found) {
    if (f.bad_entry != kNone) {
      return Status::Corruption("invalid entry at index " +
                                std::to_string(f.bad_entry));
    }
  }
  for (const SliceFindings& f : found) {
    if (f.noncanonical != kNone) {
      return Status::Corruption("entries of node " +
                                std::to_string(f.noncanonical) +
                                " not in canonical order");
    }
  }
  if (!h.has_hip) return Status::Ok();
  if (std::memcmp(sh.magic, kMagicHip, sizeof(sh.magic)) != 0) {
    return Status::Corruption("missing HIP section magic");
  }
  // A retired section with no entries is as long as a current one, so
  // only this field tells them apart (CheckAdsBinaryLength catches the
  // longer ones).
  if (sh.version == kRetiredHipSectionVersion) {
    return RetiredHipSection(AdsBinaryFileSize(n, h.num_entries));
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
  if (hip_sum != sh.checksum) {
    return Status::Corruption("HIP section checksum mismatch");
  }
  for (const SliceFindings& f : found) {
    if (f.bad_tau != kNone) {
      return Status::Corruption("invalid HIP tau at index " +
                                std::to_string(f.bad_tau));
    }
  }
  return Status::Ok();
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

namespace {

// Writes one v2 image of nodes [begin, end) of `set` through
// `write(data, n)`: the header, then each section straight from the arena
// (only the offsets are rebased, and only when the range starts past the
// first entry), then the optional HIP section. Each checksum is computed
// over the same spans before its header goes out, so the image is never
// assembled in memory. The file, shard and string writers are this
// function over different sinks.
template <typename WriteFn>
void WriteBinaryImage(const FlatAdsSet& set, NodeId begin, NodeId end,
                      WriteFn&& write) {
  const uint64_t first = set.offsets[begin];
  const uint64_t* offsets = set.offsets.data() + begin;
  std::vector<uint64_t> rebased;
  if (first != 0) {
    rebased.reserve(uint64_t{end} - begin + 1);
    for (uint64_t v = begin; v <= end; ++v) {
      rebased.push_back(set.offsets[v] - first);
    }
    offsets = rebased.data();
  }
  const AdsEntry* entries = set.entries.data() + first;

  V2Header h{};
  std::memcpy(h.magic, kMagicV2, sizeof(h.magic));
  h.version = kVersionV2;
  h.flavor = static_cast<uint32_t>(set.flavor);
  h.rank_kind = static_cast<uint32_t>(set.ranks.kind());
  h.k = set.k;
  h.seed = set.ranks.seed();
  h.base = set.ranks.kind() == RankKind::kBaseB ? set.ranks.base() : 0.0;
  h.sup = set.ranks.sup();
  h.num_nodes = end - begin;
  h.num_entries = set.offsets[end] - first;
  h.offsets_bytes = (h.num_nodes + 1) * sizeof(uint64_t);
  h.entries_bytes = h.num_entries * sizeof(AdsEntry);
  h.checksum = Chain(Chain(HeaderHash(h), offsets, h.offsets_bytes), entries,
                     h.entries_bytes);
  write(&h, sizeof(V2Header));
  write(offsets, h.offsets_bytes);
  write(entries, h.entries_bytes);

  if (set.has_hip()) {
    assert(set.hip_tau.size() == set.entries.size());
    const double* tau = set.hip_tau.data() + first;
    const uint64_t tau_bytes = h.num_entries * sizeof(double);
    HipSectionHeader sh{};
    std::memcpy(sh.magic, kMagicHip, sizeof(sh.magic));
    sh.version = kHipSectionVersion;
    sh.num_entries = h.num_entries;
    sh.checksum = Chain(HeaderHash(sh), tau, tau_bytes);
    write(&sh, sizeof(HipSectionHeader));
    write(tau, tau_bytes);
  }
}

// Closes `f` and reports any write error, including one that surfaces only
// when close flushes the last buffer (a full disk).
Status CloseWritten(std::ofstream& f, const std::string& path) {
  f.close();
  if (!f) return Status::IOError("write failed for " + path);
  return Status::Ok();
}

// A file opened for positional reads, closed on destruction. ReadAt goes
// from the page cache straight into the caller's buffer and may run on
// several threads at once: pread shares no file offset.
class PositionalFile {
 public:
  explicit PositionalFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~PositionalFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  PositionalFile(const PositionalFile&) = delete;
  PositionalFile& operator=(const PositionalFile&) = delete;

  bool is_open() const { return fd_ >= 0; }

  /// Reads exactly `n` bytes at offset `at`; false on end of file or error.
  bool ReadAt(uint64_t at, void* dst, uint64_t n) const {
    char* out = static_cast<char*>(dst);
    while (n > 0) {
      const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(at));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      out += got;
      at += static_cast<uint64_t>(got);
      n -= static_cast<uint64_t>(got);
    }
    return true;
  }

 private:
  const int fd_;
};

// Resizes `v` to `n` elements, keeping its storage when the capacity
// suffices. Clearing first means a growing vector copies no stale element
// into its new storage; a DefaultInitVector's new elements stay unwritten.
template <typename Vector>
void ReuseAs(Vector& v, size_t n) {
  v.clear();
  v.resize(n);
}

// Reads one v2 image straight into the arrays of `*set` through
// `read_at(offset, dst, n)` (false on a short read; called from several
// threads at once) — the only copy the payload makes — and then runs the
// validator MmapAdsSet::Open runs on its mapping. One pool, sized to the
// image, does both: the sections are read as pieces of at most
// kLoadPieceBytes in parallel, then hashed and checked (CheckSections).
// `image_size` is the image's total byte length. The arrays reuse `*set`'s
// storage (ReuseAs), and a failure leaves them holding unchecked bytes.
// The file readers and the in-memory parser are this function over pread
// and memcpy. With the HIP section, hip_weight is not read but derived:
// the validator writes it from tau.
template <typename ReadAtFn>
Status ReadBinaryImage(uint64_t image_size, ReadAtFn&& read_at,
                       std::function<double(uint64_t)> beta,
                       FlatAdsSet* out) {
  auto short_read = [] {
    return Status::IOError("short read of a hipads-ads-v2 image");
  };
  char header_bytes[kAdsBinaryHeaderBytes] = {};
  if (!read_at(0, header_bytes,
               std::min<uint64_t>(image_size, sizeof(header_bytes)))) {
    return short_read();
  }
  auto header = CheckAdsBinaryHeader(header_bytes, image_size);
  if (!header.ok()) return header.status();
  const AdsBinaryHeader& h = header.value();

  // CheckAdsBinaryHeader matched every section length to image_size, so
  // these allocations are backed by bytes the image really holds.
  FlatAdsSet& set = *out;
  set.flavor = h.flavor;
  set.k = h.k;
  ReuseAs(set.offsets, h.num_nodes + 1);
  ReuseAs(set.entries, h.num_entries);
  ReuseAs(set.hip_tau, h.has_hip ? h.num_entries : 0);
  ReuseAs(set.hip_weight, h.has_hip ? h.num_entries : 0);
  char hip_header[kAdsHipSectionHeaderBytes] = {};
  AdsBinarySections sections;
  sections.offsets = set.offsets.data();
  sections.entries = set.entries.data();
  if (h.has_hip) {
    sections.hip_header = hip_header;
    sections.hip_tau = set.hip_tau.data();
    sections.hip_weight = set.hip_weight.data();
  }

  // Every section in file order, cut into pieces.
  struct Piece {
    uint64_t at;
    char* dst;
    uint64_t bytes;
  };
  std::vector<Piece> pieces;
  uint64_t at = kAdsBinaryHeaderBytes;
  auto add = [&](void* dst, uint64_t bytes) {
    char* base = static_cast<char*>(dst);
    for (uint64_t done = 0; done < bytes; done += kLoadPieceBytes) {
      pieces.push_back(
          {at + done, base + done, std::min(kLoadPieceBytes, bytes - done)});
    }
    at += bytes;
  };
  add(set.offsets.data(), h.offsets_bytes());
  add(set.entries.data(), h.entries_bytes());
  if (h.has_hip) {
    add(hip_header, sizeof(hip_header));
    add(set.hip_tau.data(), h.num_entries * sizeof(double));
  }
  ThreadPool pool(LoadThreads(h));
  std::vector<char> read_ok(pieces.size(), 0);  // indexed by piece
  pool.RunTasks(pieces.size(), [&](size_t i) {
    read_ok[i] = read_at(pieces[i].at, pieces[i].dst, pieces[i].bytes);
  });
  if (std::find(read_ok.begin(), read_ok.end(), 0) != read_ok.end()) {
    return short_read();
  }
  Status valid = CheckSections(h, sections, pool);
  if (!valid.ok()) return valid;
  return RanksFromStoredParams(h.rank_kind, h.seed, h.base, std::move(beta),
                               &set.ranks);
}

}  // namespace

std::string SerializeAdsSetBinary(const FlatAdsSet& set) {
  std::string out;
  out.reserve(AdsBinaryFileSize(set.num_nodes(), set.TotalEntries()) +
              (set.has_hip() ? AdsHipSectionBytes(set.TotalEntries()) : 0));
  WriteBinaryImage(set, 0, static_cast<NodeId>(set.num_nodes()),
                   [&out](const void* data, size_t n) {
                     out.append(static_cast<const char*>(data), n);
                   });
  return out;
}

bool IsBinaryAdsData(std::string_view data) {
  return data.size() >= sizeof(kMagicV2) &&
         std::memcmp(data.data(), kMagicV2, sizeof(kMagicV2)) == 0;
}

uint64_t AdsBinaryFileSize(uint64_t num_nodes, uint64_t num_entries) {
  return sizeof(V2Header) + (num_nodes + 1) * sizeof(uint64_t) +
         num_entries * sizeof(AdsEntry);
}

uint64_t AdsHipSectionBytes(uint64_t num_entries) {
  return sizeof(HipSectionHeader) + num_entries * sizeof(double);
}

StatusOr<bool> CheckAdsBinaryLength(uint64_t num_nodes, uint64_t num_entries,
                                    uint64_t image_size) {
  const uint64_t base = AdsBinaryFileSize(num_nodes, num_entries);
  const uint64_t with_hip = base + AdsHipSectionBytes(num_entries);
  if (image_size == base || image_size == with_hip) {
    return image_size == with_hip;
  }
  // A retired section's weight[] followed its tau[].
  if (image_size == with_hip + num_entries * sizeof(double)) {
    return RetiredHipSection(base);
  }
  return Status::Corruption(
      "image is " + std::to_string(image_size) + " bytes; its sections take " +
      std::to_string(base) + ", or " + std::to_string(with_hip) +
      " with the HIP section" +
      (image_size < base ? " (truncated?)" : " (trailing data?)"));
}

StatusOr<AdsBinaryHeader> CheckAdsBinaryHeader(const char* header,
                                               uint64_t image_size) {
  // Checked first, so a v1 file shorter than a v2 header gets this message
  // too rather than "truncated".
  if (image_size >= sizeof(kMagic) - 1 &&
      std::memcmp(header, kMagic, sizeof(kMagic) - 1) == 0) {
    return Status::Corruption(
        "hipads-ads-v1 text is not a serving input; convert it to "
        "hipads-ads-v2 with `hipads_cli convert`");
  }
  if (image_size < sizeof(V2Header)) {
    return Status::Corruption("truncated hipads-ads-v2 header");
  }
  V2Header h;
  std::memcpy(&h, header, sizeof(V2Header));
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
  // Structural validation before any size is derived from header fields:
  // node count must fit NodeId, section lengths must match the counts, and
  // header + sections must cover the image exactly (no trailing bytes).
  if (h.num_nodes > std::numeric_limits<NodeId>::max()) {
    return Status::Corruption("node count exceeds NodeId range");
  }
  if (h.num_entries > image_size / sizeof(AdsEntry) + 1) {
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
  auto has_hip = CheckAdsBinaryLength(h.num_nodes, h.num_entries, image_size);
  if (!has_hip.ok()) return has_hip.status();
  AdsBinaryHeader out;
  out.flavor = static_cast<SketchFlavor>(h.flavor);
  out.rank_kind = static_cast<RankKind>(h.rank_kind);
  out.k = h.k;
  out.seed = h.seed;
  out.base = h.base;
  out.num_nodes = h.num_nodes;
  out.num_entries = h.num_entries;
  out.has_hip = has_hip.value();
  out.checksum = h.checksum;
  out.header_hash = HeaderHash(h);
  return out;
}

Status CheckAdsBinarySections(const AdsBinaryHeader& h,
                              const AdsBinarySections& s) {
  ThreadPool pool(LoadThreads(h));
  return CheckSections(h, s, pool);
}

AdsBinarySections MappedAdsSections(const AdsBinaryHeader& h,
                                    const char* image) {
  AdsBinarySections s;
  const char* p = image + sizeof(V2Header);
  s.offsets = reinterpret_cast<const uint64_t*>(p);
  p += h.offsets_bytes();
  s.entries = reinterpret_cast<const AdsEntry*>(p);
  p += h.entries_bytes();
  if (h.has_hip) {
    s.hip_header = p;
    p += sizeof(HipSectionHeader);
    s.hip_tau = reinterpret_cast<const double*>(p);
  }
  return s;
}

StatusOr<FlatAdsSet> ParseFlatAdsSetBinary(
    const std::string& data, std::function<double(uint64_t)> beta) {
  FlatAdsSet set;
  Status read = ReadBinaryImage(
      data.size(),
      [&data](uint64_t at, void* dst, uint64_t n) {
        std::memcpy(dst, data.data() + at, n);
        return true;
      },
      std::move(beta), &set);
  if (!read.ok()) return read;
  return set;
}

Status WriteAdsSetFile(const FlatAdsSet& set, const std::string& path,
                       AdsFileFormat format) {
  if (format == AdsFileFormat::kBinaryV2) {
    return WriteAdsSetRangeFile(set, 0, static_cast<NodeId>(set.num_nodes()),
                                path);
  }
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  f << SerializeAdsSet(set);
  return CloseWritten(f, path);
}

Status WriteAdsSetRangeFile(const FlatAdsSet& set, NodeId begin, NodeId end,
                            const std::string& path) {
  if (begin > end || end > set.num_nodes()) {
    return Status::InvalidArgument("node range outside the set");
  }
  std::ofstream f(path, std::ios::binary);
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  WriteBinaryImage(set, begin, end, [&f](const void* data, size_t n) {
    f.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  });
  return CloseWritten(f, path);
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
  FlatAdsSet set;
  Status read = ReadFlatAdsSetFileInto(path, std::move(beta), &set);
  if (!read.ok()) return read;
  return set;
}

Status ReadFlatAdsSetFileInto(const std::string& path,
                              std::function<double(uint64_t)> beta,
                              FlatAdsSet* set) {
  const PositionalFile file(path);
  if (!file.is_open()) return Status::IOError("cannot open " + path);
  std::error_code ec;
  const uint64_t size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot size " + path + ": " + ec.message());
  return ReadBinaryImage(
      size,
      [&file](uint64_t at, void* dst, uint64_t n) {
        return file.ReadAt(at, dst, n);
      },
      std::move(beta), set);
}

}  // namespace hipads
