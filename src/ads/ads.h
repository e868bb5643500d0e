// The All-Distances Sketch (ADS) data structure (paper Section 2).
//
// ADS(v) is a sample of the nodes reachable from v in which node u appears
// with probability ~ k / (Dijkstra rank of u w.r.t. v); each included node
// is stored with its distance from v. Equivalently, ADS(v) is the union of
// coordinated MinHash sketches of every neighborhood N_d(v).
//
// The container below holds entries sorted by increasing (distance, node
// id), which is the canonical scan order for HIP estimation, and supports
// extracting the MinHash sketch of N_d(v) for any d. Ties in distance are
// broken by node id (a fixed, rank-independent order, as Appendix B.3
// prescribes), making distances effectively unique as the paper's
// definitions assume; the Appendix-A variant that avoids tie breaking is
// exposed as a separate inclusion rule.

#ifndef HIPADS_ADS_ADS_H_
#define HIPADS_ADS_ADS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sketch/minhash.h"
#include "sketch/rank.h"

namespace hipads {

/// One sketched node: (node id, its rank, distance from the ADS owner).
/// `part` is the permutation index for k-mins ADSs and the bucket id for
/// k-partition ADSs; always 0 for bottom-k.
struct AdsEntry {
  NodeId node;
  uint32_t part;
  double rank;
  double dist;
};

/// Ordering predicate: by (distance, node id, part). Node id breaks distance
/// ties, giving the canonical "unique distances" order of Section 2 /
/// Appendix B.3. The tie break must be independent of the random ranks:
/// a rank-dependent order would make the "closer than j" set depend on j's
/// own rank and bias the HIP conditioning on graphs with repeated distances.
inline bool AdsEntryCloser(const AdsEntry& a, const AdsEntry& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  if (a.node != b.node) return a.node < b.node;
  return a.part < b.part;
}

/// Non-owning read view of one node's ADS: a span of entries in canonical
/// (distance, node id) order. This is the common query surface shared by the
/// owning per-node container (Ads) and the flat CSR arena (FlatAdsSet); all
/// estimators consume it, so sketches never have to be copied out of
/// whichever storage holds them.
class AdsView {
 public:
  AdsView() = default;
  explicit AdsView(std::span<const AdsEntry> entries) : entries_(entries) {}

  std::span<const AdsEntry> entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// True if `node` appears in the sketch (any part). Linear: entries are
  /// ordered by (dist, node), which admits no binary search on node alone.
  /// Build an AdsNodeIndex over the view when point lookups are hot.
  bool Contains(NodeId node) const;

  /// Distance of `node`, or -1 if absent. Linear, like Contains (see
  /// AdsNodeIndex for the O(log s) version).
  double DistanceOf(NodeId node) const;

  /// Number of entries with dist <= d. Binary search over the sorted dists.
  size_t CountWithin(double d) const;

  /// The bottom-k MinHash sketch of N_d(owner) contained in this ADS
  /// (Section 2: "an ADS contains a MinHash sketch of every neighborhood").
  /// Only valid for bottom-k flavor ADSs.
  BottomKSketch BottomKAt(double d, uint32_t k, double sup = 1.0) const;

  /// k-mins MinHash sketch of N_d(owner); valid for k-mins flavor.
  KMinsSketch KMinsAt(double d, uint32_t k, double sup = 1.0) const;

  /// k-partition MinHash sketch of N_d(owner); valid for k-partition flavor.
  KPartitionSketch KPartitionAt(double d, uint32_t k, double sup = 1.0) const;

 private:
  std::span<const AdsEntry> entries_;
};

/// Point-lookup index over one ADS: the entry positions sorted by node id,
/// making Contains/DistanceOf O(log s) binary searches instead of the
/// linear scans AdsView has to do (the canonical (dist, node) order admits
/// no direct search by node). Build one per sketch when point lookups are
/// hot — similarity serving, the CLI --lookup path — and keep it beside
/// the view it indexes; O(s log s) to build, no entry copies. The indexed
/// view's storage must stay resident while the index is used.
class AdsNodeIndex {
 public:
  AdsNodeIndex() = default;
  explicit AdsNodeIndex(AdsView view);

  /// True if `node` appears in the sketch (any part).
  bool Contains(NodeId node) const;

  /// Distance of `node`, or -1 if absent. With multiple entries per node
  /// (k-mins flavors) returns the smallest distance, like the linear
  /// AdsView::DistanceOf.
  double DistanceOf(NodeId node) const;

  size_t size() const { return by_node_.size(); }

 private:
  AdsView view_;
  std::vector<uint32_t> by_node_;  // entry positions sorted by (node, pos)
};

/// The ADS of a single node (owning container).
class Ads {
 public:
  Ads() = default;

  /// Wraps entries, sorting them into canonical order.
  explicit Ads(std::vector<AdsEntry> entries);

  const std::vector<AdsEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Read view of this ADS (the interface all estimators consume). An Ads
  /// converts to it implicitly, so every AdsView function takes an Ads.
  AdsView view() const { return AdsView(entries_); }
  operator AdsView() const { return view(); }

  /// Appends an entry that is known to follow all current entries in
  /// canonical order (builders emit entries in scan order).
  void Append(const AdsEntry& e) { entries_.push_back(e); }

  /// True if `node` appears in the sketch (any part).
  bool Contains(NodeId node) const { return view().Contains(node); }

  /// Distance of `node`, or -1 if absent.
  double DistanceOf(NodeId node) const { return view().DistanceOf(node); }

  /// Number of entries with dist <= d (binary search).
  size_t CountWithin(double d) const { return view().CountWithin(d); }

  /// See AdsView::BottomKAt.
  BottomKSketch BottomKAt(double d, uint32_t k, double sup = 1.0) const {
    return view().BottomKAt(d, k, sup);
  }

  /// See AdsView::KMinsAt.
  KMinsSketch KMinsAt(double d, uint32_t k, double sup = 1.0) const {
    return view().KMinsAt(d, k, sup);
  }

  /// See AdsView::KPartitionAt.
  KPartitionSketch KPartitionAt(double d, uint32_t k, double sup = 1.0) const {
    return view().KPartitionAt(d, k, sup);
  }

  /// Re-derives the canonical bottom-k ADS content from any superset of
  /// candidate entries: scans in (dist, rank) order keeping an entry iff its
  /// rank is below the kth smallest kept rank so far. This is simultaneously
  /// the ADS membership rule (Eq. 4), the LocalUpdates clean-up pass, and
  /// the validator used in tests. Entries for the same node must be unique.
  static Ads CanonicalBottomK(std::vector<AdsEntry> candidates, uint32_t k,
                              double sup = 1.0);

  /// Appendix-A variant without tie breaking: an entry is kept iff fewer
  /// than k other nodes within its distance have a smaller rank (so at
  /// most k entries per distinct distance — the k smallest). HIP weights
  /// for this variant come from ComputeModifiedHipWeights.
  static Ads ModifiedBottomK(std::vector<AdsEntry> candidates, uint32_t k,
                             double sup = 1.0);

 private:
  std::vector<AdsEntry> entries_;  // canonical (dist, rank) order
};

/// ADSs of all nodes of one graph, plus the parameters that define them:
/// the builders' output, one owning Ads per node. Whole graphs are written,
/// precomputed and queried as a FlatAdsSet (ads/flat_ads.h);
/// FlatAdsSet::FromAdsSet converts.
struct AdsSet {
  SketchFlavor flavor = SketchFlavor::kBottomK;
  uint32_t k = 0;
  RankAssignment ranks = RankAssignment::Uniform(0);
  std::vector<Ads> ads;  // indexed by node id

  size_t num_nodes() const { return ads.size(); }
  const Ads& of(NodeId v) const { return ads[v]; }
  /// Total number of entries across all nodes.
  uint64_t TotalEntries() const;
};

/// Expected bottom-k ADS size k + k(H_n - H_k) for n reachable nodes
/// (Lemma 2.2).
double ExpectedBottomKAdsSize(uint32_t k, uint64_t n);

/// Reserves each per-node builder output vector (one per node of `g`) at
/// the Lemma 2.2 expected final ADS size for `flavor` (plus one margin
/// entry), cutting the reallocation churn of growing n vectors entry by
/// entry. A node without out-arcs in `g` reaches only itself, so its
/// vector gets exactly what its sketch holds: k entries for k-mins, one
/// otherwise. Vectors still grow past the reservation when a node's
/// sketch lands above expectation.
void ReserveExpectedAdsSize(std::vector<std::vector<AdsEntry>>& out,
                            const Graph& g, uint32_t k, SketchFlavor flavor);

/// Expected k-partition ADS size ~ k (H_{n/k}) ~ k ln(n/k) (Lemma 2.2).
double ExpectedKPartitionAdsSize(uint32_t k, uint64_t n);

}  // namespace hipads

#endif  // HIPADS_ADS_ADS_H_
