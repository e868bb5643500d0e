#include "ads/estimators.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sketch/cardinality.h"

namespace hipads {

struct HipEstimator::Owned {
  std::vector<AdsEntry> entries;
  HipScratch scan;
  std::vector<double> arrays;  // tau in [0, n), weight in [n, 2n)
};

HipEstimator::HipEstimator(AdsView ads, uint32_t k, SketchFlavor flavor,
                           const RankAssignment& ranks)
    : size_(ads.size()) {
  auto owned = std::make_shared<Owned>();
  owned->entries.assign(ads.entries().begin(), ads.entries().end());
  owned->arrays.resize(2 * size_);
  entries_ = owned->entries.data();
  tau_ = owned->arrays.data();
  weight_ = tau_ + size_;
  ComputeHipWeightsAligned(AdsView(owned->entries), k, flavor, ranks,
                           &owned->scan, owned->arrays.data(),
                           owned->arrays.data() + size_);
  owned_ = std::move(owned);
}

std::vector<HipEntry> HipEstimator::CopyEntries() const {
  std::vector<HipEntry> out;
  ForEachUntil([&out](const HipEntry& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

double HipEstimator::Sum(const HipSum& sum) const {
  HipSumState state;
  WalkSums(std::span<const HipSum>(&sum, 1),
           std::span<HipSumState>(&state, 1),
           [](double, std::span<const double>, std::span<const double>) {
             return false;
           });
  return state.value;
}

double HipEstimator::NeighborhoodCardinality(double d) const {
  return Sum(HipSum::Neighborhood(d));
}

double HipEstimator::ReachableCount() const {
  return Sum(HipSum::Reachable());
}

double HipEstimator::Qg(
    const std::function<double(NodeId, double)>& g) const {
  double sum = 0.0;
  ForEachUntil([&sum, &g](const HipEntry& e) {
    sum += e.weight * g(e.node, e.dist);
    return true;
  });
  return sum;
}

double HipEstimator::Closeness(
    const std::function<double(double)>& alpha,
    const std::function<double(NodeId)>& beta) const {
  return Qg([&alpha, &beta](NodeId node, double d) {
    return alpha(d) * beta(node);
  });
}

double HipEstimator::DistanceSum() const {
  return Sum(HipSum::DistanceSum());
}

double HipEstimator::HarmonicCentrality() const {
  return Sum(HipSum::Harmonic());
}

double HipEstimator::NeighborhoodWeight(
    double d, const std::function<double(NodeId)>& beta) const {
  double sum = 0.0;
  ForEachUntil([&sum, &beta, d](const HipEntry& e) {
    if (e.dist > d) return false;
    sum += e.weight * beta(e.node);
    return true;
  });
  return sum;
}

double HipEstimator::DistanceQuantile(double q) const {
  assert(q > 0.0 && q <= 1.0);
  // First pass: total adjusted weight (the old cumulative_.back()). Second
  // pass: the first entry whose running sum clears the target — and when
  // none does (the old end-clamp), the last entry visited IS the answer,
  // so one tracked distance covers both cases. 0 for an empty sketch.
  double target = q * ReachableCount();
  double dist = 0.0;
  double running = 0.0;
  ForEachUntil([&](const HipEntry& e) {
    dist = e.dist;
    running += e.weight;
    return running < target - 1e-12;
  });
  return dist;
}

double AdsBasicCardinality(AdsView ads, double d, uint32_t k,
                           SketchFlavor flavor, double sup) {
  switch (flavor) {
    case SketchFlavor::kBottomK:
      return BottomKBasicEstimate(ads.BottomKAt(d, k, sup));
    case SketchFlavor::kKMins:
      return KMinsBasicEstimate(ads.KMinsAt(d, k, sup));
    case SketchFlavor::kKPartition:
      return KPartitionBasicEstimate(ads.KPartitionAt(d, k, sup));
  }
  return 0.0;
}

double SizeEstimatorValue(uint64_t s, uint32_t k) {
  if (s <= k) return static_cast<double>(s);
  double kk = static_cast<double>(k);
  return kk * std::pow(1.0 + 1.0 / kk,
                       static_cast<double>(s - k + 1)) -
         1.0;
}

double AdsSizeCardinality(AdsView ads, double d, uint32_t k) {
  return SizeEstimatorValue(ads.CountWithin(d), k);
}

PermutationCardinalityEstimator::PermutationCardinalityEstimator(
    AdsView ads, uint32_t k, uint64_t n)
    : k_(k), n_(n) {
  // Replay the ADS entries as the stream of sketch updates they are
  // (Section 5.4): the first k updates have weight 1; afterwards each update
  // adds the expected gap (n - s^ + 1) / (mu - k + 1), where mu is the kth
  // smallest permutation rank before this update.
  BottomKSketch sketch(k, static_cast<double>(n) + 1.0);
  double s_hat = 0.0;
  points_.reserve(ads.size());
  for (const AdsEntry& e : ads.entries()) {
    double w;
    if (sketch.size() < k) {
      w = 1.0;
    } else {
      double mu = sketch.Threshold();
      assert(mu > static_cast<double>(k));
      w = (static_cast<double>(n) - s_hat + 1.0) /
          (mu - static_cast<double>(k) + 1.0);
    }
    s_hat += w;
    bool updated = sketch.Update(e.rank);
    assert(updated && "every ADS entry is a sketch update");
    (void)updated;
    bool saturated =
        sketch.size() == k && sketch.Threshold() == static_cast<double>(k);
    points_.push_back(Point{e.dist, s_hat, saturated});
  }
}

double PermutationCardinalityEstimator::NeighborhoodCardinality(
    double d) const {
  // Latest update with dist <= d.
  size_t idx = 0;
  bool any = false;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].dist > d) break;
    idx = i;
    any = true;
  }
  if (!any) return 0.0;
  double estimate = points_[idx].estimate;
  if (points_[idx].saturated) {
    // The sketch holds permutation ranks {1..k}: no further updates can
    // occur, correct for the unseen tail (Section 5.4).
    estimate = estimate * (static_cast<double>(k_) + 1.0) /
                   static_cast<double>(k_) -
               1.0;
  }
  return estimate;
}

double NaiveQgEstimate(AdsView ads, uint32_t k,
                       const std::function<double(NodeId, double)>& g) {
  // The k smallest-rank entries of the ADS (over all distances) are the
  // bottom-k MinHash sample of the reachable set.
  std::vector<const AdsEntry*> by_rank;
  by_rank.reserve(ads.size());
  for (const AdsEntry& e : ads.entries()) by_rank.push_back(&e);
  std::sort(by_rank.begin(), by_rank.end(),
            [](const AdsEntry* a, const AdsEntry* b) {
              return a->rank < b->rank;
            });
  if (by_rank.size() < k) {
    // Fewer than k reachable nodes: the "sample" is the whole set.
    double sum = 0.0;
    for (const AdsEntry* e : by_rank) sum += g(e->node, e->dist);
    return sum;
  }
  double tau = by_rank[k - 1]->rank;  // kth smallest rank
  double sum = 0.0;
  for (uint32_t i = 0; i + 1 < k; ++i) {
    sum += g(by_rank[i]->node, by_rank[i]->dist) / tau;
  }
  return sum;
}

}  // namespace hipads
