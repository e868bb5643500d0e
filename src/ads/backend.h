// The unified storage layer behind every ADS read path.
//
// Three storage engines can hold the sketches of one graph at serve time:
//
//   * FlatAdsBackend — the in-memory flat CSR arena (FlatAdsSet); what a
//     builder hands over or the copying loader materializes.
//   * MmapAdsSet     — a hipads-ads-v2 file mapped read-only into the
//     address space. The v2 layout (fixed header + raw offsets[] +
//     AdsEntry[] sections, optionally tau[]) is consumed in place: open is
//     validation, with zero copying of the payload. Its one allocation is
//     the HIP weight array the validator derives from a stored tau.
//   * ShardedAdsSet  — a directory of v2 shard files (ads/shard.h), loaded
//     lazily with bounded residency and, optionally, a background prefetch
//     thread that loads (or maps) shard s+1 while a sweep consumes shard s.
//
// AdsBackend is the one query surface all of them implement and the only
// interface the whole-graph queries (ads/queries.h) and the CLI serve paths
// consume. Whole-graph sweeps iterate ordered, contiguous node ranges
// (AdsArenaView); point queries resolve a single node's AdsView; Prefetch
// is the residency hint that lets a range-sweeping caller overlap the next
// range's I/O with the current range's compute. Every backend hands the
// estimator kernels the same canonical entry spans in the same node order,
// so query results are bitwise identical across backends.
//
// Every engine opens canonical hipads-ads-v2 only (ads/serialize.h). v1
// text is a convert-only input: `hipads_cli convert` migrates it once.

#ifndef HIPADS_ADS_BACKEND_H_
#define HIPADS_ADS_BACKEND_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "ads/flat_ads.h"
#include "ads/hip.h"
#include "util/default_init.h"
#include "util/status.h"

namespace hipads {

/// Non-owning CSR view of one contiguous node range's sketches: local node
/// i (global node begin + i) owns entries [offsets[i], offsets[i+1]) of the
/// entries array, in canonical (dist, node, part) order. offsets[0] == 0.
/// Pointer validity follows the producing backend's residency rules.
struct AdsArenaView {
  NodeId begin = 0;
  NodeId end = 0;  // exclusive
  const uint64_t* offsets = nullptr;  // end - begin + 1 values
  const AdsEntry* entries = nullptr;
  // Precomputed HIP weight arrays aligned with `entries` (same indexing),
  // or null when the range's store has no HIP section.
  const double* hip_tau = nullptr;
  const double* hip_weight = nullptr;

  size_t num_nodes() const { return end - begin; }
  uint64_t num_entries() const { return offsets[end - begin]; }
  bool has_hip() const { return hip_tau != nullptr; }

  /// View of the range-local node i's ADS.
  AdsView of_local(size_t i) const {
    return AdsView({entries + offsets[i], entries + offsets[i + 1]});
  }
  /// View of global node v's ADS (begin <= v < end).
  AdsView of_global(NodeId v) const { return of_local(v - begin); }
  /// Precomputed weights of the range-local node i (absent when !has_hip).
  HipView hip_of_local(size_t i) const {
    if (hip_tau == nullptr) return HipView{};
    return HipView{hip_tau + offsets[i], hip_weight + offsets[i]};
  }
};

/// Abstract read surface over the ADSs of a whole graph. Implementations
/// may load lazily, so accessors that can touch storage return StatusOr.
/// Unless a subclass documents otherwise, concurrent calls must be
/// externally serialized (the whole-graph sweeps walk ranges sequentially
/// and parallelize inside each).
class AdsBackend {
 public:
  virtual ~AdsBackend();

  virtual SketchFlavor flavor() const = 0;
  virtual uint32_t k() const = 0;
  virtual const RankAssignment& ranks() const = 0;
  virtual size_t num_nodes() const = 0;
  virtual uint64_t TotalEntries() const = 0;

  /// Number of contiguous node ranges tiling [0, num_nodes()) in order
  /// (1 for the single-arena backends, the shard count for sharded sets).
  virtual uint32_t NumRanges() const = 0;

  /// Arena view of range r (r < NumRanges()). For lazily loading backends
  /// this is the call that performs I/O; it fails if the backing file is
  /// missing, truncated or corrupt. The returned pointers stay valid until
  /// the backend's residency bound evicts the range (single-arena backends
  /// never evict).
  virtual StatusOr<AdsArenaView> Range(uint32_t r) const = 0;

  /// View of ADS(v), loading whatever range owns v on demand.
  virtual StatusOr<AdsView> ViewOf(NodeId v) const = 0;

  /// Precomputed HIP weights of node v, aligned with ViewOf(v)'s entries.
  /// Absent (present() == false) when the backing store carries no HIP
  /// section — the caller scans instead; both paths are bitwise identical.
  /// The default is the conservative "absent". Same residency/validity
  /// rules as ViewOf.
  virtual StatusOr<HipView> HipOf(NodeId /*v*/) const { return HipView{}; }

  /// True when the backend holds at least one entry and serves EVERY
  /// entry's precomputed HIP weight (no entry is ever scanned). A store
  /// with no entries is never resident, whatever its file holds: the same
  /// rule in every engine, since an in-memory FlatAdsSet cannot tell an
  /// empty HIP section from none. Observability for operators
  /// (`stats`/`serve` report hip=resident|scan); never affects results.
  virtual bool HipResident() const { return false; }

  /// Residency hint: a sweep consuming ranges in order will need range r
  /// next. Backends may start loading it in the background; the default is
  /// a no-op. Never required for correctness.
  virtual void Prefetch(uint32_t r) const;

  /// True when every read accessor (Range/ViewOf/Prefetch and the
  /// parameter getters) is safe to call from any number of threads with no
  /// external serialization, because the backend never mutates state after
  /// construction and returned views stay valid for the backend's lifetime.
  /// The single-arena engines (flat, mmap) qualify; lazily loading engines
  /// with residency eviction do not. The default is the conservative false.
  virtual bool ImmutableReads() const { return false; }
};

/// In-memory backend over a FlatAdsSet arena: one range, no failure paths.
class FlatAdsBackend : public AdsBackend {
 public:
  FlatAdsBackend() = default;

  /// Takes ownership of `set`.
  explicit FlatAdsBackend(FlatAdsSet set) : owned_(std::move(set)) {}

  /// Aliases `set`, which must outlive this backend (zero-cost adapter for
  /// callers that already hold the arena).
  explicit FlatAdsBackend(const FlatAdsSet* set) : set_(set) {}

  const FlatAdsSet& set() const { return set_ ? *set_ : owned_; }

  /// Moves the owned set out, storage and all, leaving this backend owning
  /// an empty set. The sharded loader recycles an evicted shard's arrays
  /// this way.
  FlatAdsSet TakeSet() { return std::exchange(owned_, FlatAdsSet()); }

  SketchFlavor flavor() const override { return set().flavor; }
  uint32_t k() const override { return set().k; }
  const RankAssignment& ranks() const override { return set().ranks; }
  size_t num_nodes() const override { return set().num_nodes(); }
  uint64_t TotalEntries() const override { return set().TotalEntries(); }
  uint32_t NumRanges() const override { return 1; }
  StatusOr<AdsArenaView> Range(uint32_t r) const override;
  StatusOr<AdsView> ViewOf(NodeId v) const override;
  StatusOr<HipView> HipOf(NodeId v) const override;
  bool HipResident() const override { return set().has_hip(); }
  bool ImmutableReads() const override { return true; }

 private:
  FlatAdsSet owned_;
  const FlatAdsSet* set_ = nullptr;  // aliased set; owned_ when null
};

/// A hipads-ads-v2 file opened zero-copy: the file is mapped read-only and
/// validated in place by the copying readers' validator (header, chained
/// section checksums, structure, canonical order); AdsViews and the HIP tau
/// point directly into the mapping, so open copies nothing. A file without
/// the HIP section allocates nothing either; with it, open allocates the
/// one array the file does not store, the HIP weights (8 bytes per entry),
/// which the validator fills as it checks each tau. Every input the
/// copying readers reject fails here with the same Status.
class MmapAdsSet : public AdsBackend {
 public:
  MmapAdsSet();
  MmapAdsSet(MmapAdsSet&& other) noexcept;
  MmapAdsSet& operator=(MmapAdsSet&& other) noexcept;
  MmapAdsSet(const MmapAdsSet&) = delete;
  MmapAdsSet& operator=(const MmapAdsSet&) = delete;
  ~MmapAdsSet() override;

  /// Maps and validates `path`. A file that cannot be mapped fails with
  /// IOError. `beta` is required for exponential/priority rank kinds, as
  /// in ParseFlatAdsSet.
  static StatusOr<MmapAdsSet> Open(
      const std::string& path,
      std::function<double(uint64_t)> beta = nullptr);

  SketchFlavor flavor() const override { return flavor_; }
  uint32_t k() const override { return k_; }
  const RankAssignment& ranks() const override { return ranks_; }
  size_t num_nodes() const override { return arena_.num_nodes(); }
  uint64_t TotalEntries() const override { return arena_.num_entries(); }
  uint32_t NumRanges() const override { return 1; }
  StatusOr<AdsArenaView> Range(uint32_t r) const override;
  StatusOr<AdsView> ViewOf(NodeId v) const override;
  StatusOr<HipView> HipOf(NodeId v) const override;
  bool HipResident() const override { return arena_.has_hip(); }
  bool ImmutableReads() const override { return true; }

 private:
  void Unmap();

  void* map_ = nullptr;  // null only when empty (default or moved-from)
  size_t map_len_ = 0;
  SketchFlavor flavor_ = SketchFlavor::kBottomK;
  uint32_t k_ = 0;
  RankAssignment ranks_ = RankAssignment::Uniform(0);
  // The HIP weights derived from the mapped tau (empty without the
  // section); a move keeps their storage, so arena_ stays valid.
  DefaultInitVector<double> hip_weight_;
  // The mapped arena, HIP arrays included when the file carries the
  // optional section (tau mapped, weight in hip_weight_); an empty arena
  // while map_ is null.
  AdsArenaView arena_;
};

/// How OpenAdsBackend materializes single-file sets and shard arenas.
enum class BackendMode {
  kCopy,  // copying loader: heap arena
  kMmap,  // zero-copy mmap
};

/// Options for OpenAdsBackend.
struct AdsBackendOptions {
  BackendMode mode = BackendMode::kCopy;
  /// Required for exponential/priority rank kinds, as in ParseFlatAdsSet.
  std::function<double(uint64_t)> beta = nullptr;
  /// Sharded sets: max shard arenas resident at once (see ShardedAdsSet).
  uint32_t max_resident = 1;
  /// Sharded sets: overlap the next shards' loads with the current
  /// shard's compute using a background prefetch thread.
  bool prefetch = true;
  /// Sharded sets: prefetch lookahead — how many upcoming shards a sweep's
  /// residency hint enqueues (ShardedOptions::prefetch_depth).
  uint32_t prefetch_depth = 1;
};

/// Opens `path` — a v2 ADS file or a shard directory/manifest — behind the
/// one AdsBackend query surface, dispatching on the path contents: sharded
/// sets get a ShardedAdsSet (honoring mode/max_resident/prefetch), plain
/// files a MmapAdsSet (kMmap) or a loaded FlatAdsBackend (kCopy). A
/// sharded open checks up front that every manifest-referenced shard file
/// exists with exactly the byte size the manifest implies
/// (ShardedAdsSet::ValidateFiles), so a missing or truncated shard fails
/// here instead of mid-sweep.
StatusOr<std::unique_ptr<AdsBackend>> OpenAdsBackend(
    const std::string& path, const AdsBackendOptions& options = {});

}  // namespace hipads

#endif  // HIPADS_ADS_BACKEND_H_
