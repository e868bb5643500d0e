// Persistence for ADS sets: sketch once, query forever.
//
// The sketches of a billion-edge graph take hours to build but milliseconds
// to query; any real deployment computes them offline and serves queries
// from a stored copy. Two on-disk formats exist:
//
//   * hipads-ads-v1 — versioned, line-oriented text (portable, diffable,
//     compresses well); the archival and compatibility format, read only
//     by ParseFlatAdsSet (`hipads_cli convert` migrates v1 files to v2).
//   * hipads-ads-v2 — binary, the one format every serving reader opens:
//     a fixed little-endian header carrying the sketch parameters and
//     per-section byte lengths, followed by the raw offsets[] + AdsEntry[]
//     CSR arena and an optional HIP section holding each entry's tau.
//     Header version 3: each part is guarded by XXH64 (util/hash.h)
//     chained section by section. The writer streams every section
//     straight from the arena, and the reader reads each section straight
//     into its array and then verifies every byte with the same validator
//     the zero-copy mmap open runs in place — memory speed rather than
//     re-tokenizing %.17g doubles, which is what the serving path wants.
//     The HIP weight 1/tau is not stored: the validator derives it while
//     it checks each tau. A large image is read and verified on a pool
//     sized to it.
//
// Every v2 reader rejects v1 text with one Corruption that names
// `hipads_cli convert`. A stored sketch is in canonical (dist, node, part)
// order: HIP reads it in one increasing-distance scan, and the optional
// HIP section is aligned to that order. The v1 parser restores the order
// of a text file; a v2 image whose node block is out of order is corrupt.
// Both formats round-trip the sketches bit-identically.
//
// Uniform and base-b rank assignments round-trip completely (they are pure
// functions of the stored seed). Exponential (node-weighted) assignments
// depend on a user-provided beta function that cannot be serialized; pass
// it again at load time. Permutation assignments store the permutation.

#ifndef HIPADS_ADS_SERIALIZE_H_
#define HIPADS_ADS_SERIALIZE_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ads/ads.h"
#include "ads/flat_ads.h"
#include "util/status.h"

namespace hipads {

/// On-disk format selector for the writers.
enum class AdsFileFormat { kTextV1, kBinaryV2 };

// The writers take the flat arena, the one whole-graph store; flatten a
// builder's AdsSet once with FlatAdsSet::FromAdsSet before writing it.

/// Serializes `set` into the hipads-ads-v1 text format.
std::string SerializeAdsSet(const FlatAdsSet& set);

/// Serializes `set` into the hipads-ads-v2 binary format, with the
/// optional HIP section when `set` carries precomputed weights. The same
/// writer as WriteAdsSetFile, over a string.
std::string SerializeAdsSetBinary(const FlatAdsSet& set);

/// Writes `set` to `path` in `format`. The stream is closed before
/// returning, so a write error that surfaces only when the last buffer is
/// flushed (a full disk) is reported too.
Status WriteAdsSetFile(const FlatAdsSet& set, const std::string& path,
                       AdsFileFormat format);

/// Writes nodes [begin, end) of `set` to `path` as a self-contained
/// hipads-ads-v2 file whose local node i is node begin + i (entry target
/// ids stay global). Entries and HIP tau are written straight from
/// `set`'s arena; only the offsets are rebased to start at zero. The shard
/// writer calls this once per shard; WriteAdsSetFile's binary format is
/// the whole range.
Status WriteAdsSetRangeFile(const FlatAdsSet& set, NodeId begin, NodeId end,
                            const std::string& path);

/// True iff `data` begins with the hipads-ads-v2 binary magic.
bool IsBinaryAdsData(std::string_view data);

/// Parses the hipads-ads-v1 text format into the flat CSR arena, the one
/// reader of v1 text (`hipads_cli convert` migrates a v1 file with it).
/// For sets built with exponential ranks, `beta` must be the same function
/// used at build time (checked against the stored entry ranks only
/// superficially; callers own consistency). Node blocks must appear
/// exactly once each, in increasing node-id order; anything after the last
/// block, and any entry with an out-of-range part, a negative or
/// non-finite distance or a negative rank, is rejected as corruption.
/// Entries of a node block may come in any order; the parser restores
/// canonical order.
StatusOr<FlatAdsSet> ParseFlatAdsSet(
    const std::string& text,
    std::function<double(uint64_t)> beta = nullptr);

/// Parses a hipads-ads-v2 image held in memory: the same reader as
/// ReadFlatAdsSetFile, over a buffer. All structural damage (truncation,
/// bad magic or version, bad checksum, inconsistent section lengths,
/// invalid offsets or entries, a node block out of canonical order) and
/// v1 text return Corruption.
StatusOr<FlatAdsSet> ParseFlatAdsSetBinary(
    const std::string& data,
    std::function<double(uint64_t)> beta = nullptr);

// ---------------------------------------------------------------------------
// The v2 validator, shared by every reader
// ---------------------------------------------------------------------------
//
// Validation is two steps. CheckAdsBinaryHeader runs on the fixed header
// before any section is read or mapped; CheckAdsBinarySections then
// verifies every section byte, wherever the sections live. The copying
// readers run both over arrays they read each section into; MmapAdsSet
// runs both over its mapping.
//
// Each load runs on one ThreadPool (util/parallel.h) of its own, sized to
// the image: one thread per 256 KiB of image, at most 8 and at most
// HardwareThreads(), so small images load on the calling thread. The width does not follow
// any caller's sweep or build thread count. The copying readers read the
// sections as pieces in parallel, and the section checks run as two
// checksum tasks (the base chain offsets -> entries and the HIP chain over
// tau, each sequential by definition) beside the per-entry checks cut into
// slices, which also derive the HIP weights. Every byte is checked at
// every width, and failures are reported in one fixed order — checksum,
// offset span, offset order, entries, canonical entry order, then the HIP
// header fields, checksum and tau — each naming the lowest failing index,
// so a damaged image gets the same Status from every reader at every
// width.

/// Fixed byte size of the hipads-ads-v2 header.
inline constexpr size_t kAdsBinaryHeaderBytes = 88;

/// Fixed byte size of the optional HIP section's header.
inline constexpr size_t kAdsHipSectionHeaderBytes = 32;

/// Exact byte size of a v2 file holding `num_nodes` nodes and `num_entries`
/// entries, WITHOUT the optional HIP section. Manifest-driven integrity
/// checks (sharded serving) use this to detect missing or truncated shard
/// files without opening them; a file with the HIP section is exactly
/// AdsHipSectionBytes(num_entries) longer — no other size is valid.
uint64_t AdsBinaryFileSize(uint64_t num_nodes, uint64_t num_entries);

/// Byte size of the optional HIP section for `num_entries` entries: a
/// 32-byte header ("hipadshw" magic, version 3, entry count, checksum)
/// followed by tau[num_entries] doubles — +8 bytes per entry, aligned with
/// the entry arena (see hip.h for the k-mins zero-slot convention). The
/// weights 1/tau are not stored: every reader derives them on load. The
/// base image checksum does NOT cover the section (so base files are
/// bit-identical with or without it); the section carries its own.
uint64_t AdsHipSectionBytes(uint64_t num_entries);

/// Checks that an image of `image_size` bytes is exactly the base sections
/// of `num_nodes` nodes and `num_entries` entries, or those plus the HIP
/// section, and returns whether it carries the section. An image as long
/// as the base plus a retired version-2 HIP section (tau and weight, +16
/// bytes per entry) fails with the message every reader gives such a file:
/// it names the version and the base-image length to truncate the file to
/// before `hipads_cli convert --hip 1` stores a current section. Every
/// failure is Corruption.
StatusOr<bool> CheckAdsBinaryLength(uint64_t num_nodes, uint64_t num_entries,
                                    uint64_t image_size);

/// The header fields of a v2 image, as validated by CheckAdsBinaryHeader.
struct AdsBinaryHeader {
  SketchFlavor flavor = SketchFlavor::kBottomK;
  RankKind rank_kind = RankKind::kUniform;
  uint32_t k = 0;
  uint64_t seed = 0;
  double base = 0.0;  // base-b ranks only, 0 otherwise
  uint64_t num_nodes = 0;
  uint64_t num_entries = 0;
  /// True iff the image length includes the optional HIP section.
  bool has_hip = false;
  /// The stored base-image checksum, and the XXH64 of the header with that
  /// field zeroed: the seed the offsets and entries sections chain from.
  uint64_t checksum = 0;
  uint64_t header_hash = 0;

  uint64_t offsets_bytes() const { return (num_nodes + 1) * sizeof(uint64_t); }
  uint64_t entries_bytes() const { return num_entries * sizeof(AdsEntry); }
};

/// Where the sections of one v2 image live: consecutive in one mapping
/// (MappedAdsSections) or in separate arrays (the copying readers). The
/// array pointers must be 8-byte aligned; the hip_* pointers are used only
/// when the header has_hip.
struct AdsBinarySections {
  const uint64_t* offsets = nullptr;   // num_nodes + 1 values
  const AdsEntry* entries = nullptr;   // num_entries values
  const char* hip_header = nullptr;    // kAdsHipSectionHeaderBytes bytes
  const double* hip_tau = nullptr;     // num_entries values
  /// Not a section but the validator's output: num_entries values the
  /// caller supplies, into which CheckAdsBinarySections writes each
  /// entry's HIP weight — 0 for a k-mins filler (tau == 0), 1 / tau
  /// otherwise, bitwise what the HIP scan computes. Unchecked on failure.
  double* hip_weight = nullptr;
};

/// Step one: checks the header of an image that is `image_size` bytes long
/// — magic, version, parameter fields and section lengths — and that the
/// image is exactly the base sections, or the base plus the HIP section
/// (CheckAdsBinaryLength). `header` must hold the image's first
/// min(image_size, kAdsBinaryHeaderBytes) bytes. v1 text is recognised by
/// its magic and rejected with a message that names `hipads_cli convert`;
/// any other shorter-than-header image is rejected as truncated. No
/// section size a header accepts exceeds `image_size`, so callers may size
/// their reads and allocations from it. Every failure is Corruption.
StatusOr<AdsBinaryHeader> CheckAdsBinaryHeader(const char* header,
                                               uint64_t image_size);

/// Step two: verifies every section byte against `header` — the chained
/// checksum, offsets spanning the arena monotonically, entry sanity, every
/// node block in canonical (dist, node, part) order and, with the HIP
/// section, its header, own checksum and every tau in {0} ∪ (0, 1] — on a
/// pool sized to the image, failures in the order described above. With
/// the HIP section it also fills `sections.hip_weight`.
Status CheckAdsBinarySections(const AdsBinaryHeader& header,
                              const AdsBinarySections& sections);

/// The section pointers of a contiguous v2 image at `image` (8-byte
/// aligned, as heap buffers and mmap regions are) whose header passed
/// CheckAdsBinaryHeader. hip_weight stays null: the caller supplies it.
AdsBinarySections MappedAdsSections(const AdsBinaryHeader& header,
                                    const char* image);

/// Reconstructs a RankAssignment from the stored (kind, seed, base) triple.
/// Weighted kinds (exponential/priority) require `beta`; permutation ranks
/// are not round-trippable and are rejected. Shared by the v1/v2 readers,
/// the shard manifest loader and the mmap backend.
Status RanksFromStoredParams(RankKind kind, uint64_t seed, double base,
                             std::function<double(uint64_t)> beta,
                             RankAssignment* out);

/// Reads a hipads-ads-v2 file with positional reads straight into the
/// arena and then validates it in full. v1 text fails with the same
/// Corruption as every v2 reader; convert it first.
StatusOr<FlatAdsSet> ReadFlatAdsSetFile(
    const std::string& path,
    std::function<double(uint64_t)> beta = nullptr);

/// ReadFlatAdsSetFile into the storage of `*set`, which it replaces: each
/// array is cleared and then resized, so one whose capacity suffices is
/// refilled in place, a growing one copies nothing stale, and a file
/// without the HIP section leaves the HIP arrays empty (with it, tau is
/// read and hip_weight is the validator's output). The validation is
/// ReadFlatAdsSetFile's, in full. On failure `*set` holds unchecked bytes
/// and must be discarded. The sharded loader reloads shards into the
/// storage of evicted ones this way.
Status ReadFlatAdsSetFileInto(const std::string& path,
                              std::function<double(uint64_t)> beta,
                              FlatAdsSet* set);

// ---------------------------------------------------------------------------
// Shared sketch-parameter header lines (reused by the shard manifest)
// ---------------------------------------------------------------------------

/// The "flavor/k/ranks/nodes" header lines of the v1 text format (without
/// the magic line). The shard manifest embeds the same block.
std::string SerializeAdsParams(SketchFlavor flavor, uint32_t k,
                               const RankAssignment& ranks,
                               uint64_t num_nodes);

/// Parses the header lines written by SerializeAdsParams from `in`
/// (positioned just after the magic line). `beta` is required for
/// exponential/priority rank kinds, as in ParseFlatAdsSet.
Status ParseAdsParams(std::istream& in,
                      std::function<double(uint64_t)> beta,
                      SketchFlavor* flavor, uint32_t* k,
                      RankAssignment* ranks, uint64_t* num_nodes);

}  // namespace hipads

#endif  // HIPADS_ADS_SERIALIZE_H_
