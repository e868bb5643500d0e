// Query-time estimators applied to a single node's ADS.
//
//  * HipEstimator          — the paper's HIP estimates (Section 5) for
//                            neighborhood cardinalities, Q_g statistics
//                            (Eq. 1/5) and decay centralities (Eq. 2/3).
//  * AdsBasicCardinality   — pre-HIP "basic" estimates: extract the MinHash
//                            sketch of N_d(v) from the ADS and apply the
//                            Section 4 estimator of the matching flavor.
//  * SizeEstimator         — cardinality from the ADS size alone (Section 8).
//  * PermutationCardinalityEstimator — the Section 5.4 estimator for ADSs
//                            built over a strict permutation of [n].
//  * NaiveQgEstimate       — the introduction's strawman for Q_g: a uniform
//                            MinHash sample of all reachable nodes, each
//                            inverse-probability weighted. HIP improves on
//                            its variance by up to a factor n/k.

#ifndef HIPADS_ADS_ESTIMATORS_H_
#define HIPADS_ADS_ESTIMATORS_H_

#include <functional>
#include <span>

#include "ads/ads.h"
#include "ads/hip.h"

namespace hipads {

/// HIP estimates over one ADS. Three construction modes share one query
/// surface and produce bitwise-identical estimates:
///
///   * scan (owning)     — runs the increasing-distance scan and owns the
///                         resulting HipEntry vector (the original API).
///   * scan (scratch)    — the same scan into a caller-owned HipScratch;
///                         allocation-free in the steady state. The
///                         estimator borrows the scratch's entries, so it
///                         is valid only until the scratch's next scan.
///   * precomputed       — wraps per-entry tau/weight arrays aligned with
///                         the ADS entries (a file's HIP section or
///                         PrecomputeHipWeights output): no scan, no
///                         allocation, construction is three pointer
///                         assignments. Iteration skips tau == 0 sentinel
///                         slots (non-first members of a k-mins run), which
///                         reproduces the scan's grouped entry sequence
///                         exactly.
///
/// Queries are one ordered pass over the adjusted weights (cardinalities
/// early-exit at the distance bound). Every query folds weights in the
/// same order the scan emits them, so switching modes never changes a
/// single bit of any estimate.
class HipEstimator {
 public:
  /// Scans an AdsView: one node's entries, owned by an Ads or sliced out
  /// of a whole-graph arena.
  HipEstimator(AdsView ads, uint32_t k, SketchFlavor flavor,
               const RankAssignment& ranks);

  HipEstimator(const Ads& ads, uint32_t k, SketchFlavor flavor,
               const RankAssignment& ranks)
      : HipEstimator(ads.view(), k, flavor, ranks) {}

  /// Scratch-scan mode: the identical scan, written into `scratch` instead
  /// of a fresh allocation. The estimator (and its copies) borrows
  /// scratch->entries — valid until the scratch is scanned again or
  /// destroyed.
  HipEstimator(AdsView ads, uint32_t k, SketchFlavor flavor,
               const RankAssignment& ranks, HipScratch* scratch);

  /// Precomputed mode: adopts per-entry tau/weight arrays aligned with
  /// `ads`'s entries (hip.h's aligned layout). No scan runs; the arrays
  /// and the view's entries must stay valid for the estimator's lifetime
  /// (they do for mmap'd sections and FlatAdsSet arrays). The arrays must
  /// have been produced by ComputeHipWeightsAligned for the SAME build
  /// parameters — estimates are then bitwise equal to a fresh scan.
  HipEstimator(AdsView ads, const double* tau, const double* weight);

  /// Estimate of the d-neighborhood cardinality n_d = |N_d(v)| — the sum of
  /// adjusted weights of sketched nodes within distance d (Section 5).
  double NeighborhoodCardinality(double d) const;

  /// Estimate of the number of reachable nodes.
  double ReachableCount() const;

  /// Unbiased estimate of Q_g(v) = sum_{j reachable} g(j, d_vj)   (Eq. 5).
  double Qg(const std::function<double(NodeId, double)>& g) const;

  /// Unbiased estimate of C_{alpha,beta}(v) = sum alpha(d_vj) beta(j)
  /// (Eq. 3). alpha must be monotone non-increasing for the Corollary 5.2
  /// variance guarantee; it is never called with infinite distance.
  double Closeness(const std::function<double(double)>& alpha,
                   const std::function<double(NodeId)>& beta) const;

  /// Estimate of the sum of distances from v (inverse classic closeness).
  double DistanceSum() const;

  /// Estimate of harmonic centrality sum_{j != v} 1/d_vj.
  double HarmonicCentrality() const;

  /// Estimate of the d-neighborhood weight sum_{d_vj <= d} beta(j); when the
  /// ADS was built with exponential beta-weighted ranks this has the
  /// Section 9 CV guarantee.
  double NeighborhoodWeight(double d,
                            const std::function<double(NodeId)>& beta) const;

  /// Estimated q-quantile of the distance distribution from this node: the
  /// smallest sketched distance d with n^_d >= q * (estimated reachable
  /// count). q = 0.5 gives the median distance to reachable nodes. Returns
  /// 0 for an empty sketch; requires 0 < q <= 1.
  double DistanceQuantile(double q) const;

  /// Applies fn(const HipEntry&) to every adjusted weight in increasing
  /// distance order — the one iteration surface all modes share (the
  /// precomputed walk synthesizes the grouped entries on the fly, so there
  /// is no stored vector to hand out).
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    ForEachUntil([&fn](const HipEntry& e) {
      fn(e);
      return true;
    });
  }

  /// Number of adjusted weights (grouped entries, not raw ADS entries).
  size_t NumEntries() const;

  /// Materializes the grouped entry sequence (test/debug convenience; the
  /// query paths never need it).
  std::vector<HipEntry> CopyEntries() const;

 private:
  /// Ordered walk with early exit: fn returns false to stop. Precomputed
  /// mode skips tau == 0 slots; the other modes iterate the grouped
  /// vector/span directly.
  template <typename Fn>
  void ForEachUntil(Fn&& fn) const {
    if (pre_tau_ != nullptr) {
      for (size_t i = 0; i < pre_size_; ++i) {
        if (pre_tau_[i] == 0.0) continue;
        if (!fn(HipEntry{pre_entries_[i].node, pre_entries_[i].dist,
                         pre_tau_[i], pre_weight_[i]})) {
          return;
        }
      }
      return;
    }
    std::span<const HipEntry> entries =
        borrowed_.data() != nullptr ? borrowed_
                                    : std::span<const HipEntry>(owned_);
    for (const HipEntry& e : entries) {
      if (!fn(e)) return;
    }
  }

  // Scan modes: the grouped entries, owned or borrowed from a HipScratch.
  std::vector<HipEntry> owned_;          // increasing distance
  std::span<const HipEntry> borrowed_;   // non-null data() = scratch mode
  // Precomputed mode: entry arena + aligned weight arrays (borrowed).
  const AdsEntry* pre_entries_ = nullptr;
  const double* pre_tau_ = nullptr;      // non-null = precomputed mode
  const double* pre_weight_ = nullptr;
  size_t pre_size_ = 0;
};

/// Basic (pre-HIP) neighborhood cardinality estimate: the Section 4
/// estimator of the ADS's flavor applied to the extracted MinHash sketch of
/// N_d(v). Requires uniform ranks.
double AdsBasicCardinality(AdsView ads, double d, uint32_t k,
                           SketchFlavor flavor, double sup = 1.0);

inline double AdsBasicCardinality(const Ads& ads, double d, uint32_t k,
                                  SketchFlavor flavor, double sup = 1.0) {
  return AdsBasicCardinality(ads.view(), d, k, flavor, sup);
}

/// The unique unbiased cardinality estimator based only on the number of
/// ADS entries within distance d (Lemma 8.1):
///   E_s = s                     for s <= k
///   E_s = k (1 + 1/k)^(s-k+1) - 1   otherwise.
double SizeEstimatorValue(uint64_t s, uint32_t k);

/// Applies SizeEstimatorValue to |{entries with dist <= d}|.
double AdsSizeCardinality(AdsView ads, double d, uint32_t k);

inline double AdsSizeCardinality(const Ads& ads, double d, uint32_t k) {
  return AdsSizeCardinality(ads.view(), d, k);
}

/// Section 5.4 permutation cardinality estimator. The ADS must have been
/// built with RankAssignment::Permutation over all n nodes (bottom-k
/// flavor). Tighter than HIP when the queried cardinality exceeds ~0.2 n.
class PermutationCardinalityEstimator {
 public:
  PermutationCardinalityEstimator(const Ads& ads, uint32_t k, uint64_t n);

  /// Estimate of n_d(v).
  double NeighborhoodCardinality(double d) const;

 private:
  struct Point {
    double dist;
    double estimate;   // running s^ after this update
    bool saturated;    // sketch holds permutation ranks {1..k}
  };
  uint32_t k_;
  uint64_t n_;
  std::vector<Point> points_;
};

/// The naive subset-weight baseline for Q_g (paper introduction): the k
/// smallest-rank reachable nodes form a uniform sample; each of the k-1
/// retained samples is weighted by 1/tau_k. Unbiased, but its variance is
/// ~ (n/k) sum g^2 instead of HIP's distance-local bound (Cor. 5.3).
double NaiveQgEstimate(const Ads& ads, uint32_t k,
                       const std::function<double(NodeId, double)>& g);

}  // namespace hipads

#endif  // HIPADS_ADS_ESTIMATORS_H_
