// Persistence for ADS sets: sketch once, query forever.
//
// The sketches of a billion-edge graph take hours to build but milliseconds
// to query; any real deployment computes them offline and serves queries
// from a stored copy. Two on-disk formats are supported:
//
//   * hipads-ads-v1 — versioned, line-oriented text (portable, diffable,
//     compresses well); the compatibility anchor.
//   * hipads-ads-v2 — binary: a fixed little-endian header carrying the
//     sketch parameters and per-section byte lengths, followed by the raw
//     offsets[] + AdsEntry[] CSR arena and guarded by a checksum. Loading
//     is two memcpys plus validation — orders of magnitude faster than
//     re-tokenizing %.17g doubles, which is what the serving path wants.
//
// Readers auto-detect the format from the leading magic, so callers never
// have to know which one a file uses. Both formats round-trip the sketches
// bit-identically.
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

#include "ads/ads.h"
#include "ads/flat_ads.h"
#include "util/status.h"

namespace hipads {

/// On-disk format selector for the writers. Readers auto-detect.
enum class AdsFileFormat { kTextV1, kBinaryV2 };

// The writers take the flat arena, the one whole-graph store; flatten a
// builder's AdsSet once with FlatAdsSet::FromAdsSet before writing it.

/// Serializes `set` into the hipads-ads-v1 text format.
std::string SerializeAdsSet(const FlatAdsSet& set);

/// Serializes `set` into the hipads-ads-v2 binary format, with the
/// optional HIP section when `set` carries precomputed weights.
std::string SerializeAdsSetBinary(const FlatAdsSet& set);

/// Writes `set` to `path` in the requested format (v1 text by default,
/// matching the historical behavior of this API).
Status WriteAdsSetFile(const FlatAdsSet& set, const std::string& path,
                       AdsFileFormat format = AdsFileFormat::kTextV1);

/// True iff `data` begins with the hipads-ads-v2 binary magic.
bool IsBinaryAdsData(const std::string& data);

/// Parses the hipads-ads-v1 text format into the flat CSR arena. For sets
/// built with exponential ranks, `beta` must be the same function used at
/// build time (checked against the stored entry ranks only superficially;
/// callers own consistency). Node blocks must appear exactly once each, in
/// increasing node-id order; anything after the last block, and any entry
/// with an out-of-range part, a negative or non-finite distance or a
/// negative rank, is rejected as corruption.
StatusOr<FlatAdsSet> ParseFlatAdsSet(
    const std::string& text,
    std::function<double(uint64_t)> beta = nullptr);

/// Parses the hipads-ads-v2 binary format into the flat CSR arena. All
/// structural damage (truncation, bad magic, bad checksum, inconsistent
/// section lengths, invalid offsets or entries) returns Corruption.
StatusOr<FlatAdsSet> ParseFlatAdsSetBinary(
    const std::string& data,
    std::function<double(uint64_t)> beta = nullptr);

// ---------------------------------------------------------------------------
// Zero-copy v2 access (shared by the copying parser and the mmap backend)
// ---------------------------------------------------------------------------

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
/// 32-byte header ("hipadshw" magic, version, entry count, FNV-1a checksum
/// of the section) followed by tau[num_entries] then weight[num_entries]
/// doubles — +16 bytes per entry, aligned with the entry arena (see hip.h
/// for the k-mins zero-slot convention). The main v2 checksum does NOT
/// cover the section (so base files are bit-identical with or without it);
/// the section carries its own.
uint64_t AdsHipSectionBytes(uint64_t num_entries);

/// Non-owning view of a fully validated hipads-ads-v2 image. `offsets` and
/// `entries` alias the caller's buffer, which must be 8-byte aligned (heap
/// buffers and mmap regions both are) and outlive the view.
struct AdsBinaryView {
  SketchFlavor flavor = SketchFlavor::kBottomK;
  RankKind rank_kind = RankKind::kUniform;
  uint32_t k = 0;
  uint64_t seed = 0;
  double base = 0.0;  // base-b ranks only, 0 otherwise
  uint64_t num_nodes = 0;
  uint64_t num_entries = 0;
  const uint64_t* offsets = nullptr;  // num_nodes + 1 values
  const AdsEntry* entries = nullptr;  // num_entries values
  /// True iff every node block is already in canonical (dist, node, part)
  /// order — always the case for writer-produced files. A zero-copy
  /// consumer cannot re-sort, so it must fall back to the copying loader
  /// when this is false.
  bool canonical_order = false;
  /// Precomputed HIP weights when the file carries the optional HIP
  /// section (validated: magic, count, checksum, per-entry integrity);
  /// null otherwise. Aligned with `entries`.
  const double* hip_tau = nullptr;
  const double* hip_weight = nullptr;

  bool has_hip() const { return hip_tau != nullptr; }
};

/// Validates a v2 image in place — header, whole-file checksum, section
/// structure, offsets monotonicity and entry sanity — without copying a
/// byte of the payload. This is the open path of the mmap backend; the
/// copying ParseFlatAdsSetBinary runs the same validation and then copies.
StatusOr<AdsBinaryView> ValidateAdsSetBinary(const char* data, size_t size);

/// Reconstructs a RankAssignment from the stored (kind, seed, base) triple.
/// Weighted kinds (exponential/priority) require `beta`; permutation ranks
/// are not round-trippable and are rejected. Shared by the v1/v2 readers,
/// the shard manifest loader and the mmap backend.
Status RanksFromStoredParams(RankKind kind, uint64_t seed, double base,
                             std::function<double(uint64_t)> beta,
                             RankAssignment* out);

/// Parses either format (auto-detected from the magic) into the flat
/// arena.
StatusOr<FlatAdsSet> ParseFlatAdsSetAny(
    const std::string& data,
    std::function<double(uint64_t)> beta = nullptr);

/// Reads an ADS-set file written by WriteAdsSetFile (either format).
StatusOr<FlatAdsSet> ReadFlatAdsSetFile(
    const std::string& path,
    std::function<double(uint64_t)> beta = nullptr);

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
