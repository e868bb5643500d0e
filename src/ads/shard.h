// Sharded ADS storage: a FlatAdsSet split into contiguous node ranges,
// one self-contained v2 binary file per shard plus a small text manifest.
//
// A billion-node sketch arena does not fit one serving process. Sharding by
// contiguous node range keeps every whole-graph sweep a sequence of linear
// passes: queries load one shard arena at a time (lazily, with a bounded
// number resident) and visit nodes in exactly the same order as the
// unsharded sweep, so every estimate — including the floating-point
// accumulation order of the distance-distribution histograms — is bitwise
// identical to the single-arena result. Point queries route ViewOf(v) to
// the owning shard via the manifest's range table.
//
// ShardedAdsSet implements AdsBackend (ads/backend.h), so it serves the
// same whole-graph queries as the in-memory and mmap single-arena engines.
// Two serving upgrades are opt-in through ShardedOptions:
//
//   * prefetch — a background thread loads the next prefetch_depth shards
//     while the sweep consumes shard s (driven by the AdsBackend::Prefetch
//     residency hints the query sweeps emit), hiding shard I/O behind
//     compute; lookahead > 1 keeps the pipeline full on storage whose
//     latency exceeds one shard's compute time (spinning or networked
//     disks). The worker only ever writes its own staging slots; the
//     consuming thread alone touches the residency cache, so results stay
//     deterministic and bitwise identical to non-prefetching serving.
//   * use_mmap — shard arenas are opened with MmapAdsSet instead of the
//     copying loader: residency then costs address space, not heap copies.
//
// On disk a sharded set is a directory:
//
//   MANIFEST            hipads-shards-v1: sketch params + range table
//   shard-00000.ads2    hipads-ads-v2 arena of nodes [begin_0, end_0)
//   shard-00001.ads2    ...
//
// Each shard file is a complete, independently loadable hipads-ads-v2 file
// whose local node i is global node begin + i; entry target ids stay
// global. Shards load through the same v2 readers as a single file
// (ReadFlatAdsSetFile or MmapAdsSet), so they accept exactly what those do.

#ifndef HIPADS_ADS_SHARD_H_
#define HIPADS_ADS_SHARD_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ads/backend.h"
#include "ads/flat_ads.h"
#include "ads/serialize.h"
#include "util/status.h"

namespace hipads {

/// One shard's slice of the node space: the sketches of [begin, end).
struct ShardInfo {
  std::string file;  // filename, relative to the manifest's directory
  NodeId begin = 0;
  NodeId end = 0;  // exclusive
  uint64_t num_entries = 0;
};

/// Filename of the manifest inside a shard directory.
inline constexpr char kShardManifestName[] = "MANIFEST";

/// True iff `path` is a shard directory (contains a manifest) or a
/// manifest file itself — the dispatch test OpenAdsBackend uses to pick
/// ShardedAdsSet::Open over a single-file engine.
bool IsShardedAdsPath(const std::string& path);

/// Split points for `num_shards` contiguous shards balanced by entry count
/// (node counts can be wildly uneven when sketch sizes differ). Returns the
/// begin node of each shard; the first is always 0. Fewer shards come back
/// when the set has fewer nodes than requested shards.
std::vector<NodeId> BalancedShardSplits(const FlatAdsSet& set,
                                        uint32_t num_shards);

/// Writes `set` into `dir` (created if needed) as one v2 binary file per
/// shard plus the manifest; `split_begins` as from BalancedShardSplits
/// (sorted, unique, first element 0). The shard files are written
/// concurrently, on min(shards, HardwareThreads()) threads; a failure
/// returns the first failing shard's status in shard order. The manifest
/// is written last, and only when every shard was, so a directory with a
/// manifest is complete.
Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          const std::vector<NodeId>& split_begins);

/// Convenience overload: entry-balanced contiguous split into `num_shards`.
Status WriteShardedAdsSet(const FlatAdsSet& set, const std::string& dir,
                          uint32_t num_shards);

/// Serving options for ShardedAdsSet::Open.
struct ShardedOptions {
  /// Required for exponential/priority rank kinds, as in ParseFlatAdsSet.
  std::function<double(uint64_t)> beta = nullptr;
  /// Max shard arenas resident at once (LRU eviction past the bound).
  /// Without prefetch these are all the arenas the set holds: a load
  /// evicts first and, in copy mode, reads into the evicted storage.
  uint32_t max_resident = 1;
  /// Load hinted shards on a background thread. Staged arenas are
  /// heap-held until the sweep reaches them, so prefetching keeps up to
  /// prefetch_depth arenas beyond max_resident in memory. In copy mode
  /// their storage outlives the sweep as spares for the next one's loads:
  /// between sweeps the set still holds up to prefetch_depth arenas
  /// beside the resident ones.
  bool prefetch = false;
  /// Lookahead of the prefetch pipeline: a Prefetch(r) hint enqueues
  /// shards [r, r + prefetch_depth) that are not yet resident. 1 (the
  /// default) reproduces single-shard lookahead; deeper pipelines help
  /// when shard load latency exceeds one shard's compute. Clamped to
  /// >= 1; ignored unless prefetch is set.
  uint32_t prefetch_depth = 1;
  /// Open shard arenas zero-copy with MmapAdsSet instead of the copying
  /// loader.
  bool use_mmap = false;
};

/// A sharded ADS set opened for serving. Shard arenas load lazily on first
/// access; at most max_resident stay live (least-recently-used eviction).
/// The range a caller is consuming is its most recently touched one, so
/// LRU never evicts it while max_resident >= 2; with max_resident = 1,
/// touching a second range invalidates the first range's views (whether
/// or not the second range loads).
///
/// In copy mode an evicted arena's storage (or a staged arena's that the
/// prefetcher dropped) is not freed but kept as a spare, and the next
/// load — on the prefetch thread or inline — reads into it: a sweep that
/// reloads its shards allocates and faults in no fresh arena once warm.
/// An inline load evicts before it reads, so without prefetch the set
/// holds at most max_resident arenas and no spare between loads. With
/// prefetch the arenas alive stay within max_resident plus
/// prefetch_depth, and those not resident stay as spares between sweeps.
/// Every load, into a spare or not, is validated in full.
///
/// The consumer side is not thread-safe: concurrent Range()/ViewOf() calls
/// must be externally serialized (the whole-graph sweeps in ads/queries.h
/// do this naturally — they walk shards sequentially and parallelize
/// inside each). The prefetch worker runs concurrently but communicates
/// only through its own locked staging slot. Views and arena pointers stay
/// valid until the owning shard is evicted, i.e. until max_resident other
/// shards have been touched.
class ShardedAdsSet : public AdsBackend {
 public:
  /// An empty set (no shards, no nodes); the state StatusOr needs to
  /// default-construct. Use Open to get a usable one.
  ShardedAdsSet();
  ShardedAdsSet(ShardedAdsSet&&) noexcept;
  ShardedAdsSet& operator=(ShardedAdsSet&&) noexcept;
  ~ShardedAdsSet() override;

  /// Opens `path`, which may be the manifest file or its directory. Only
  /// the manifest is read here; shard files are opened as v2 on first use.
  static StatusOr<ShardedAdsSet> Open(const std::string& path,
                                      const ShardedOptions& options = {});

  SketchFlavor flavor() const override { return flavor_; }
  uint32_t k() const override { return k_; }
  const RankAssignment& ranks() const override { return ranks_; }
  size_t num_nodes() const override { return num_nodes_; }
  uint64_t TotalEntries() const override;

  size_t num_shards() const { return shards_.size(); }
  const std::vector<ShardInfo>& shards() const { return shards_; }

  /// Index of the shard owning node v (v must be < num_nodes()).
  uint32_t ShardOf(NodeId v) const;

  /// Cheap up-front integrity check of every shard file the manifest
  /// references: exists and is exactly the v2 byte size its node/entry
  /// counts imply. Catches missing and truncated shard files before a
  /// sweep starts, without loading any arena. (Content damage inside a
  /// right-sized file is still caught by the checksum at load time.)
  Status ValidateFiles() const;

  // AdsBackend surface: one range per shard, loaded lazily on Range();
  // Prefetch(r) hands the hint to the background worker when enabled.
  uint32_t NumRanges() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  StatusOr<AdsArenaView> Range(uint32_t r) const override;
  StatusOr<AdsView> ViewOf(NodeId v) const override;
  StatusOr<HipView> HipOf(NodeId v) const override;
  /// True iff some shard holds entries and EVERY shard that does carries
  /// the HIP section (size-probed once, lazily, without loading arenas);
  /// shards without entries have nothing to store. A mixed set reports
  /// false but still serves precomputed weights from the shards that have
  /// them — each range's arena view carries its own hip pointers.
  bool HipResident() const override;
  void Prefetch(uint32_t r) const override;
  // Lazy loading + LRU eviction mutate residency state on reads, so the
  // sharded engine keeps the base-class contract: external serialization.
  bool ImmutableReads() const override { return false; }

  /// Number of shard arenas currently in memory (for tests/metrics).
  uint32_t NumResident() const;

  /// Number of shard-file loads performed so far (consumer + prefetch
  /// thread combined; for tests/metrics). A whole-graph sweep — however
  /// many statistics its SweepPlan fuses — costs exactly num_shards()
  /// loads from cold.
  uint64_t NumShardLoads() const;

  /// How many of those loads read into the storage of an evicted or
  /// dropped arena instead of a fresh one (copy mode only).
  uint64_t NumLoadsReused() const;

 private:
  struct LoadContext;
  class Prefetcher;

  // Returns shard s's arena, consuming a staged prefetch result or loading
  // synchronously, installing into the residency cache with LRU eviction.
  StatusOr<const AdsBackend*> Resident(uint32_t s) const;
  void EvictFor(uint32_t installing) const;

  std::string dir_;
  SketchFlavor flavor_ = SketchFlavor::kBottomK;
  uint32_t k_ = 0;
  RankAssignment ranks_ = RankAssignment::Uniform(0);
  uint64_t num_nodes_ = 0;
  std::vector<ShardInfo> shards_;
  uint32_t max_resident_ = 1;
  uint32_t prefetch_depth_ = 1;

  // Everything a shard load needs, shared with the prefetch worker so the
  // set object itself stays movable while the worker runs.
  std::shared_ptr<const LoadContext> load_ctx_;

  // Lazy-load cache: resident_[s] is null until shard s is first touched;
  // last_used_ drives LRU eviction once more than max_resident_ are live.
  // Touched only by the (externally serialized) consumer thread.
  mutable std::vector<std::unique_ptr<AdsBackend>> resident_;
  mutable std::vector<uint64_t> last_used_;
  mutable uint64_t tick_ = 0;
  mutable std::unique_ptr<Prefetcher> prefetcher_;
  // Lazily computed HipResident() answer (-1 = unknown). Consumer-side
  // state like the residency cache: externally serialized.
  mutable int8_t hip_resident_ = -1;
};

}  // namespace hipads

#endif  // HIPADS_ADS_SHARD_H_
