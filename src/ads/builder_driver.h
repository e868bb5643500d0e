// The flavour driver behind every ADS builder (paper Section 2).
//
// Each sketch flavour is a union of bottom-k passes:
//   * bottom-k: one pass with the builder's k, every node a source, rank
//     index 0, entries labelled part 0;
//   * k-mins: k bottom-1 passes, pass p over rank index p, labelled part p;
//   * k-partition: k bottom-1 passes over rank index 0, pass h seeded only
//     by the nodes of bucket h and labelled part h.
// A builder supplies one bottom-k pass; BuildAdsFromPasses owns the rest:
// the transpose the passes search (an undirected graph is its own), the
// Lemma 2.2 reservation of the per-node outputs, each pass's source list,
// the pass loop and the AdsSet assembly on the builder's pool. Internal to
// the builder sources.

#ifndef HIPADS_ADS_BUILDER_DRIVER_H_
#define HIPADS_ADS_BUILDER_DRIVER_H_

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "ads/builders.h"

namespace hipads {

class ThreadPool;

/// One bottom-k pass: what it reads and where it appends its entries.
struct BottomKPass {
  const Graph& gt;  // transpose of the input graph
  const RankAssignment& ranks;
  uint32_t k;     // the builder's k for bottom-k, 1 for the other flavours
  uint32_t part;  // AdsEntry::part of every entry the pass emits
  uint32_t perm;  // rank index: source u's rank is ranks.rank(u, perm)
  std::span<const NodeId> sources;  // by increasing id; each seeds itself
  std::vector<std::vector<AdsEntry>>& out;  // per node, appended to
  AdsBuildStats& stats;  // the caller's, or a discarded one; added to
};

/// Runs `pass` once per bottom-k pass of `flavor` and returns the sketches,
/// each node's sorted into canonical order on `pool`.
AdsSet BuildAdsFromPasses(const Graph& g, uint32_t k, SketchFlavor flavor,
                          const RankAssignment& ranks, AdsBuildStats* stats,
                          ThreadPool& pool,
                          const std::function<void(const BottomKPass&)>& pass);

/// Boundaries cutting `sorted` (items ordered by `.target`) into about
/// `chunks` even ranges, each boundary moved forward to the next change of
/// target, so one target's items never span two ranges. They depend on the
/// items alone, never on scheduling; feed them to ThreadPool::ParallelRanges.
template <typename Item>
std::vector<size_t> TargetAlignedBounds(const std::vector<Item>& sorted,
                                        uint32_t chunks) {
  std::vector<size_t> bounds{0};
  const size_t step = (sorted.size() + chunks - 1) / chunks;
  for (uint32_t c = 1; c < chunks; ++c) {
    size_t pos = std::min(sorted.size(), c * step);
    while (pos > 0 && pos < sorted.size() &&
           sorted[pos].target == sorted[pos - 1].target) {
      ++pos;
    }
    if (pos > bounds.back() && pos < sorted.size()) bounds.push_back(pos);
  }
  bounds.push_back(sorted.size());
  return bounds;
}

}  // namespace hipads

#endif  // HIPADS_ADS_BUILDER_DRIVER_H_
