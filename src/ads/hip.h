// Historic Inverse Probability (HIP) estimators — the paper's main
// contribution (Section 5).
//
// For each node j in ADS(i) we compute its HIP probability tau_ij: the
// probability that j entered ADS(i), conditioned on the ranks of all nodes
// closer to i. The adjusted weight a_ij = 1/tau_ij is then an unbiased,
// nonnegative estimate of j's presence (E[a_ij] = 1 for every reachable j),
// computable entirely from the sketch. Sums of adjusted weights estimate
// neighborhood cardinalities, and weighting them by g(j, d_ij) estimates
// any distance-based statistic Q_g (Eq. 1) or decay centrality C_{alpha,
// beta} (Eq. 2-3).
//
// HIP probabilities per flavor (all computed by one increasing-distance
// scan over the ADS):
//   bottom-k   : tau = kth smallest rank among closer sketched nodes
//                (Lemma 5.1); with uniform or base-b ranks the inclusion
//                probability is tau itself, with exponential (node-weighted)
//                ranks it is 1 - exp(-beta(j) * tau).
//   k-mins     : tau = 1 - prod_h (1 - min_h), Eq. (7).
//   k-partition: tau = (1/k) sum_h min_h, Eq. (8).
//
// Because the weights are a pure function of the sketch and its build
// parameters, they can be computed ONCE and stored. The one scan,
// ComputeHipWeightsAligned, writes them as per-entry tau/weight arrays
// aligned with the canonical entry sequence — the hipads-ads-v2 optional
// HIP section stores the tau array, and every reader derives the weights
// from it — and PrecomputeHipWeights fills a whole FlatAdsSet's arrays in
// parallel. HipEstimator (ads/estimators.h) walks the same layout whether
// the arrays were stored or just scanned, so every path is bitwise
// identical.

#ifndef HIPADS_ADS_HIP_H_
#define HIPADS_ADS_HIP_H_

#include <vector>

#include "ads/ads.h"
#include "ads/flat_ads.h"
#include "sketch/minhash.h"

namespace hipads {

/// One sketched node with its HIP adjusted weight, as HipEstimator walks
/// them. For k-mins ADSs, a node appearing under several permutations
/// yields a single HipEntry.
struct HipEntry {
  NodeId node;
  double dist;
  double tau;     ///< HIP (conditioned inclusion) probability, in (0, 1].
  double weight;  ///< adjusted weight a = 1/tau (presence estimate).
};

/// Reusable buffers for the HIP scan. One scratch serves any number of
/// consecutive scans (one per node of a sweep, say); after warm-up no scan
/// allocates. Not thread-safe — use one per thread.
struct HipScratch {
  /// bottom-k: the k smallest ranks scanned so far; k-mins / k-partition:
  /// the bucket minima
  std::vector<double> mins;
  /// The aligned arrays HipEstimator's scan fallback writes and borrows:
  /// tau in [0, n), weight in [n, 2n) for an n-entry sketch.
  std::vector<double> arrays;
};

/// Pointers to one node's precomputed HIP weights: tau[i]/weight[i] belong
/// to entry i of the node's AdsView (the aligned layout below, including
/// the k-mins zero-slot convention). present() is false when the backing
/// store carries no HIP section — HipEstimator then scans instead. Pointer
/// validity follows the producing backend's residency rules.
struct HipView {
  const double* tau = nullptr;
  const double* weight = nullptr;

  bool present() const { return tau != nullptr; }
};

/// The HIP scan: computes the adjusted weight of every node of an ADS
/// (given as a view over its canonical-order entries — an Ads or a slice of
/// any whole-graph store) in increasing distance order, and writes them as
/// per-entry arrays aligned with the entries: tau[i]/weight[i] belong to
/// entry i. For k-mins, where one adjusted weight covers a whole
/// same-(dist, node) run of entries, the run's values are stored at its
/// FIRST entry and the remaining members get explicit zeros, so iterating
/// the arrays and skipping tau == 0 visits one weight per sketched node.
/// The binary format's optional HIP section stores `tau` in this layout;
/// its readers derive `weight` from it (0 where tau is 0). `tau`
/// and `weight` must each have room for ads.size() doubles. `k`, `flavor`
/// and `ranks` must match the parameters the ADS was built with. Works for
/// uniform, base-b, exponential and priority ranks (permutation ranks use
/// the dedicated permutation estimator instead).
void ComputeHipWeightsAligned(AdsView ads, uint32_t k, SketchFlavor flavor,
                              const RankAssignment& ranks, HipScratch* scratch,
                              double* tau, double* weight);

/// Fills `set`'s hip_tau/hip_weight arrays (one double per entry, aligned
/// layout above) by scanning every node, parallelized over node ranges of
/// equal entry counts (EntryBalancedRanges) with `num_threads` (0 =
/// hardware count). Deterministic: each node's slice is
/// written independently, so the result is identical for any thread count
/// and bitwise equal to per-node fresh scans.
void PrecomputeHipWeights(FlatAdsSet* set, uint32_t num_threads = 0);

/// HIP adjusted weights for an Appendix-A modified bottom-k ADS (built by
/// Ads::ModifiedBottomK, uniform ranks). A member is "sampled" iff its
/// rank is strictly below the kth smallest rank of its distance ball; its
/// adjusted weight is the inverse of that threshold, and a member holding
/// exactly the kth smallest rank carries weight 0 (Appendix A). Unbiased
/// with CV at most 1/sqrt(k-2).
std::vector<HipEntry> ComputeModifiedHipWeights(AdsView ads, uint32_t k,
                                                double sup = 1.0);

}  // namespace hipads

#endif  // HIPADS_ADS_HIP_H_
