#include "ads/builder_driver.h"

#include <cassert>
#include <numeric>
#include <optional>

#include "util/parallel.h"

namespace hipads {

AdsSet BuildAdsFromPasses(const Graph& g, uint32_t k, SketchFlavor flavor,
                          const RankAssignment& ranks, AdsBuildStats* stats,
                          ThreadPool& pool,
                          const std::function<void(const BottomKPass&)>& pass) {
  assert(k >= 1);
  // An undirected graph stores both directions of every edge, so it equals
  // its transpose as a multiset of arcs and is searched as it is. Arc order
  // within a node changes no builder's output.
  std::optional<Graph> transposed;
  if (!g.undirected()) transposed.emplace(g.Transpose());
  const Graph& gt = transposed ? *transposed : g;
  const NodeId n = g.num_nodes();
  std::vector<std::vector<AdsEntry>> out(n);
  ReserveExpectedAdsSize(out, g, k, flavor);
  AdsBuildStats discarded;
  AdsBuildStats& counted = stats != nullptr ? *stats : discarded;

  if (flavor == SketchFlavor::kKPartition) {
    std::vector<std::vector<NodeId>> buckets(k);
    for (NodeId v = 0; v < n; ++v) {
      buckets[BucketHash(ranks.seed(), v, k)].push_back(v);
    }
    for (uint32_t h = 0; h < k; ++h) {
      pass({gt, ranks, 1, h, 0, buckets[h], out, counted});
    }
  } else {
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    const bool bottom_k = flavor == SketchFlavor::kBottomK;
    for (uint32_t p = 0; p < (bottom_k ? 1 : k); ++p) {
      pass({gt, ranks, bottom_k ? k : 1, p, p, all, out, counted});
    }
  }

  AdsSet set;
  set.flavor = flavor;
  set.k = k;
  set.ranks = ranks;
  set.ads.resize(n);
  // Each Ads sorts its node's entries into canonical order.
  pool.ParallelFor(n, [&](size_t begin, size_t end, uint32_t) {
    for (size_t v = begin; v < end; ++v) set.ads[v] = Ads(std::move(out[v]));
  });
  return set;
}

}  // namespace hipads
