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
// parameters, they can be computed ONCE and stored: ComputeHipWeightsAligned
// emits them as per-entry tau/weight arrays aligned with the canonical entry
// sequence (the hipads-ads-v2 optional HIP section's layout), and
// PrecomputeHipWeights fills a whole FlatAdsSet's arrays in parallel. For
// callers that still scan, ComputeHipWeightsInto reuses a caller-owned
// HipScratch arena so the steady state allocates nothing. All paths run the
// same kernels in the same order, so every variant is bitwise identical.

#ifndef HIPADS_ADS_HIP_H_
#define HIPADS_ADS_HIP_H_

#include <span>
#include <vector>

#include "ads/ads.h"
#include "ads/flat_ads.h"
#include "sketch/minhash.h"

namespace hipads {

/// One sketched node with its HIP adjusted weight. For k-mins ADSs, a node
/// appearing under several permutations yields a single HipEntry.
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
  std::vector<HipEntry> entries;  ///< output of ComputeHipWeightsInto
  BottomKSketch closer{1};        ///< bottom-k running threshold
  std::vector<double> mins;       ///< k-mins / k-partition bucket minima
};

/// Computes HIP adjusted weights for every node of an ADS (given as a view
/// over its canonical-order entries — an Ads or a slice of any whole-graph
/// store), in increasing distance order. `k`, `flavor` and `ranks` must
/// match the parameters the ADS was built with. Works for uniform, base-b
/// and exponential ranks (permutation ranks use the dedicated permutation
/// estimator instead).
std::vector<HipEntry> ComputeHipWeights(AdsView ads, uint32_t k,
                                        SketchFlavor flavor,
                                        const RankAssignment& ranks);

inline std::vector<HipEntry> ComputeHipWeights(const Ads& ads, uint32_t k,
                                               SketchFlavor flavor,
                                               const RankAssignment& ranks) {
  return ComputeHipWeights(ads.view(), k, flavor, ranks);
}

/// Allocation-free variant of ComputeHipWeights: runs the identical scan
/// into `scratch` and returns a view of scratch->entries, valid until the
/// scratch is next used. Bitwise identical to the allocating API.
std::span<const HipEntry> ComputeHipWeightsInto(AdsView ads, uint32_t k,
                                                SketchFlavor flavor,
                                                const RankAssignment& ranks,
                                                HipScratch* scratch);

/// Emits the scan's results as per-entry arrays aligned with the canonical
/// entry sequence: tau[i]/weight[i] belong to entry i. For k-mins, where one
/// adjusted weight covers a whole same-(dist, node) run of entries, the
/// group's values are stored at the run's FIRST entry and the remaining
/// members get explicit zeros — iterating the arrays and skipping tau == 0
/// reproduces the grouped HipEntry sequence exactly. This is the layout of
/// the binary format's optional HIP section. `tau` and `weight` must each
/// have room for ads.size() doubles.
void ComputeHipWeightsAligned(AdsView ads, uint32_t k, SketchFlavor flavor,
                              const RankAssignment& ranks, HipScratch* scratch,
                              double* tau, double* weight);

/// Fills `set`'s hip_tau/hip_weight arrays (one double per entry, aligned
/// layout above) by scanning every node, parallelized over nodes with
/// `num_threads` (0 = hardware count). Deterministic: each node's slice is
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

inline std::vector<HipEntry> ComputeModifiedHipWeights(const Ads& ads,
                                                       uint32_t k,
                                                       double sup = 1.0) {
  return ComputeModifiedHipWeights(ads.view(), k, sup);
}

}  // namespace hipads

#endif  // HIPADS_ADS_HIP_H_
