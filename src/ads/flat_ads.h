// Flat CSR storage for the ADSs of a whole graph — the one whole-graph
// store the library reads, writes and precomputes HIP weights for.
//
// FlatAdsSet stores every node's sketch in a single contiguous arena
// indexed CSR-style:
//
//   offsets[v] .. offsets[v+1]   the entries of ADS(v), canonical order
//
// so a whole-graph sweep is one linear pass over memory. Per-node access
// returns an AdsView (a span), the query surface shared with Ads. The
// builders return the per-node-vector AdsSet; FromAdsSet flattens it once,
// after which serialization, sharding, HIP precompute and every query
// (through FlatAdsBackend, ads/backend.h) run off the arena.
//
// The arrays are DefaultInitVectors (util/default_init.h): a resize leaves
// the new elements unwritten, so the flatten, HIP precompute and v2 loads
// fill them on their pools without a serial zeroing pass first. Each of
// those writes every element it resized, or fails and discards the set.

#ifndef HIPADS_ADS_FLAT_ADS_H_
#define HIPADS_ADS_FLAT_ADS_H_

#include <cstdint>
#include <vector>

#include "ads/ads.h"
#include "util/default_init.h"

namespace hipads {

/// ADSs of all nodes of one graph in one contiguous arena, plus the
/// parameters that define them.
struct FlatAdsSet {
  SketchFlavor flavor = SketchFlavor::kBottomK;
  uint32_t k = 0;
  RankAssignment ranks = RankAssignment::Uniform(0);
  DefaultInitVector<uint64_t> offsets{0};  // size num_nodes + 1
  DefaultInitVector<AdsEntry> entries;     // canonical order per node
  // Optional precomputed HIP weights, aligned with `entries` (tau[i] /
  // weight[i] belong to entries[i]; k-mins runs store the group weight at
  // the first member, zeros at the rest — see hip.h). Either both empty or
  // both entries.size(); filled by PrecomputeHipWeights or loaded from a
  // file's HIP section (tau read, weight derived from it), and tau is
  // serialized back out when present.
  DefaultInitVector<double> hip_tau;
  DefaultInitVector<double> hip_weight;

  size_t num_nodes() const { return offsets.size() - 1; }
  uint64_t TotalEntries() const { return entries.size(); }
  bool has_hip() const { return !hip_tau.empty(); }

  /// View of ADS(v).
  AdsView of(NodeId v) const {
    return AdsView({entries.data() + offsets[v],
                    entries.data() + offsets[v + 1]});
  }

  /// Appends the next node's ADS (builders emit nodes in id order).
  void AppendNode(const std::vector<AdsEntry>& node_entries) {
    entries.insert(entries.end(), node_entries.begin(), node_entries.end());
    offsets.push_back(entries.size());
  }

  /// Flattens a per-node-vector set into one arena: the offsets are the
  /// prefix sums of the node sizes, and ranges of nodes are copied on a
  /// pool sized to the entries (one thread per 256 KiB, at most
  /// HardwareThreads()). The source is left untouched.
  static FlatAdsSet FromAdsSet(const AdsSet& set);
};

/// Cuts the nodes of a CSR arena into `parts` contiguous ranges of about
/// equal work, a node costing its entry count plus one (so nodes with
/// empty sketches still spread): returns parts + 1 non-decreasing bounds
/// from 0 to `num_nodes`, for ThreadPool::ParallelRanges (empty ranges are
/// skipped there). `offsets` holds num_nodes + 1 values. Equal node counts
/// are not equal work: R-MAT puts its hubs at low ids, so the first of
/// four equal node ranges holds the most entries. The cut depends on the
/// offsets alone, so a pass cut this way is as deterministic as a static
/// split.
std::vector<size_t> EntryBalancedRanges(const uint64_t* offsets,
                                        size_t num_nodes, uint32_t parts);

}  // namespace hipads

#endif  // HIPADS_ADS_FLAT_ADS_H_
