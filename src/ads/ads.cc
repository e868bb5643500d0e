#include "ads/ads.h"

#include <algorithm>
#include <cassert>

#include "util/stats.h"

namespace hipads {

Ads::Ads(std::vector<AdsEntry> entries) : entries_(std::move(entries)) {
  std::sort(entries_.begin(), entries_.end(), AdsEntryCloser);
}

bool AdsView::Contains(NodeId node) const {
  // Entries are sorted by (dist, node), so node ids alone are unordered and
  // a membership probe has to scan; the entries are contiguous, so this is
  // a cache-linear pass. Not a hot path (estimators never call it).
  for (const AdsEntry& e : entries_) {
    if (e.node == node) return true;
  }
  return false;
}

double AdsView::DistanceOf(NodeId node) const {
  for (const AdsEntry& e : entries_) {
    if (e.node == node) return e.dist;
  }
  return -1.0;
}

AdsNodeIndex::AdsNodeIndex(AdsView view) : view_(view) {
  by_node_.resize(view.size());
  for (uint32_t i = 0; i < by_node_.size(); ++i) by_node_[i] = i;
  std::span<const AdsEntry> entries = view_.entries();
  std::sort(by_node_.begin(), by_node_.end(),
            [&entries](uint32_t a, uint32_t b) {
              if (entries[a].node != entries[b].node) {
                return entries[a].node < entries[b].node;
              }
              // Position breaks node ties: canonical order is sorted by
              // distance, so the first position is the smallest distance.
              return a < b;
            });
}

bool AdsNodeIndex::Contains(NodeId node) const {
  std::span<const AdsEntry> entries = view_.entries();
  auto it = std::lower_bound(by_node_.begin(), by_node_.end(), node,
                             [&entries](uint32_t pos, NodeId n) {
                               return entries[pos].node < n;
                             });
  return it != by_node_.end() && entries[*it].node == node;
}

double AdsNodeIndex::DistanceOf(NodeId node) const {
  std::span<const AdsEntry> entries = view_.entries();
  auto it = std::lower_bound(by_node_.begin(), by_node_.end(), node,
                             [&entries](uint32_t pos, NodeId n) {
                               return entries[pos].node < n;
                             });
  if (it == by_node_.end() || entries[*it].node != node) return -1.0;
  return entries[*it].dist;
}

size_t AdsView::CountWithin(double d) const {
  // Distances are sorted ascending: the count is the upper-bound position.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), d,
      [](double value, const AdsEntry& e) { return value < e.dist; });
  return static_cast<size_t>(it - entries_.begin());
}

BottomKSketch AdsView::BottomKAt(double d, uint32_t k, double sup) const {
  BottomKSketch sketch(k, sup);
  size_t count = CountWithin(d);
  for (size_t i = 0; i < count; ++i) sketch.Update(entries_[i].rank);
  return sketch;
}

KMinsSketch AdsView::KMinsAt(double d, uint32_t k, double sup) const {
  KMinsSketch sketch(k, sup);
  size_t count = CountWithin(d);
  for (size_t i = 0; i < count; ++i) {
    sketch.Update(entries_[i].part, entries_[i].rank);
  }
  return sketch;
}

KPartitionSketch AdsView::KPartitionAt(double d, uint32_t k,
                                       double sup) const {
  KPartitionSketch sketch(k, sup);
  size_t count = CountWithin(d);
  for (size_t i = 0; i < count; ++i) {
    sketch.Update(entries_[i].part, entries_[i].rank);
  }
  return sketch;
}

Ads Ads::CanonicalBottomK(std::vector<AdsEntry> candidates, uint32_t k,
                          double sup) {
  std::sort(candidates.begin(), candidates.end(), AdsEntryCloser);
  Ads result;
  BottomKSketch threshold(k, sup);
  for (const AdsEntry& e : candidates) {
    if (e.rank < threshold.Threshold()) {
      result.Append(e);
      threshold.Update(e.rank);
    }
  }
  return result;
}

Ads Ads::ModifiedBottomK(std::vector<AdsEntry> candidates, uint32_t k,
                         double sup) {
  std::sort(candidates.begin(), candidates.end(), AdsEntryCloser);
  Ads result;
  BottomKSketch closer(k, sup);  // ranks of kept entries strictly closer
  size_t i = 0;
  while (i < candidates.size()) {
    // Group of candidates at one distinct distance.
    size_t j = i;
    while (j < candidates.size() && candidates[j].dist == candidates[i].dist) {
      ++j;
    }
    // kth smallest rank among all nodes within this distance: merge the
    // strictly-closer sketch with this group's ranks. A candidate belongs
    // iff fewer than k OTHER nodes in the ball have a smaller rank, i.e.
    // its rank is at or below the ball's kth smallest (Appendix A counts
    // the node itself out of its own threshold).
    BottomKSketch ball = closer;
    for (size_t t = i; t < j; ++t) ball.Update(candidates[t].rank);
    double kth = ball.Threshold();
    for (size_t t = i; t < j; ++t) {
      if (candidates[t].rank <= kth) result.Append(candidates[t]);
    }
    // All kept nodes at this distance become "closer" for later groups; so
    // do unkept ones, but their ranks are >= kth and cannot tighten the
    // bottom-k threshold beyond what the ball sketch already holds.
    closer = ball;
    i = j;
  }
  return result;
}

uint64_t AdsSet::TotalEntries() const {
  uint64_t total = 0;
  for (const Ads& a : ads) total += a.size();
  return total;
}

void ReserveExpectedAdsSize(std::vector<std::vector<AdsEntry>>& out,
                            const Graph& g, uint32_t k, SketchFlavor flavor) {
  assert(out.size() == g.num_nodes());
  uint64_t n = out.size();
  double expected = 0.0;
  switch (flavor) {
    case SketchFlavor::kBottomK:
      expected = ExpectedBottomKAdsSize(k, n);
      break;
    case SketchFlavor::kKMins:
      // k independent bottom-1 passes: k * H_n expected entries.
      expected = k * ExpectedBottomKAdsSize(1, n);
      break;
    case SketchFlavor::kKPartition:
      expected = ExpectedKPartitionAdsSize(k, n);
      break;
  }
  const size_t capacity = static_cast<size_t>(expected) + 1;
  const size_t alone = flavor == SketchFlavor::kKMins ? k : 1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out[v].reserve(g.OutDegree(v) == 0 ? alone : capacity);
  }
}

double ExpectedBottomKAdsSize(uint32_t k, uint64_t n) {
  if (n <= k) return static_cast<double>(n);
  return k + k * (HarmonicNumber(n) - HarmonicNumber(k));
}

double ExpectedKPartitionAdsSize(uint32_t k, uint64_t n) {
  if (n <= k) return static_cast<double>(n);
  // Each bucket holds ~ n/k elements; a bottom-1 ADS over m elements has
  // expected size H_m.
  return k * HarmonicNumber(n / k);
}

}  // namespace hipads
