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

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ads/ads.h"
#include "ads/hip.h"

namespace hipads {

/// A built-in per-node statistic declared as the paper's HIP estimate
/// Q_g(v) = sum_j a_vj g(j, d_vj) (Eq. 5) for a g from a closed set of
/// distance functions. The sum starts at 0.0 and adds one term per HIP
/// entry (distance d, adjusted weight w), in entry order:
///
///   kReachable      w                        reachable count
///   kNeighborhood   w while !(d > param)     d-neighbourhood cardinality
///   kDistanceSum    w * d                    sum of distances
///   kHarmonic       w * (d > 0 ? 1/d : 0)    harmonic centrality
///   kExpDecay       w * param^d              exp-decay Q_g
///   kInverseSquare  w * 1/((1+d)(1+d))       inverse-square Q_g
///
/// g depends on d alone, so a walk computes Factor once per run of equal
/// distance (entries come in distance order) and Term once per entry.
/// HipEstimator::WalkSums is that walk, for one sum (HipEstimator::Sum) or
/// for every sum of a sweep plan at once (ads/sweep.h), so a statistic has
/// one definition wherever it is computed. A neighbourhood sum stops at
/// the first run past its bound — and never stops for a NaN bound.
struct HipSum {
  enum class Kind : uint8_t {
    kReachable,
    kNeighborhood,
    kDistanceSum,
    kHarmonic,
    kExpDecay,
    kInverseSquare,
  };
  Kind kind = Kind::kReachable;
  double param = 0.0;  // the bound of kNeighborhood, the base of kExpDecay

  static HipSum Reachable() { return {Kind::kReachable, 0.0}; }
  static HipSum Neighborhood(double d) { return {Kind::kNeighborhood, d}; }
  static HipSum DistanceSum() { return {Kind::kDistanceSum, 0.0}; }
  static HipSum Harmonic() { return {Kind::kHarmonic, 0.0}; }
  static HipSum ExpDecay(double base) { return {Kind::kExpDecay, base}; }
  static HipSum InverseSquare() { return {Kind::kInverseSquare, 0.0}; }

  /// g(d) for a run of entries at distance d; for kNeighborhood, 1 while
  /// the run is within the bound and 0 past it.
  double Factor(double d) const {
    switch (kind) {
      case Kind::kReachable:
        return 1.0;
      case Kind::kNeighborhood:
        return d > param ? 0.0 : 1.0;
      case Kind::kDistanceSum:
        return d;
      case Kind::kHarmonic:
        return d > 0.0 ? 1.0 / d : 0.0;
      case Kind::kExpDecay:
        return std::pow(param, d);
      case Kind::kInverseSquare:
        return 1.0 / ((1.0 + d) * (1.0 + d));
    }
    return 0.0;
  }

  /// True when this run and every later one add no term: past a
  /// neighbourhood's bound.
  bool Stops(double factor) const {
    return kind == Kind::kNeighborhood && factor == 0.0;
  }

  /// One entry's term, given its run's Factor and the entry's weight. A
  /// reachable or open neighbourhood sum has factor 1.0, so its term is
  /// the weight itself, bit for bit.
  double Term(double factor, double w) const { return w * factor; }

  /// Same kind and the same parameter bits: equal at every node, so a
  /// plan needs one accumulator for both (a NaN bound equals itself).
  bool SameAs(const HipSum& other) const {
    return kind == other.kind &&
           std::memcmp(&param, &other.param, sizeof(param)) == 0;
  }
};

/// One HipSum's running state in a walk over a node's entries
/// (HipEstimator::WalkSums).
struct HipSumState {
  double value = 0.0;  // the terms added so far
  bool open = true;    // false once Stops: no later entry adds a term
};

/// HIP estimates over one ADS. The estimator walks the node's entries
/// beside per-entry tau/weight arrays aligned with them (hip.h's layout:
/// a k-mins run's weight sits at its first entry, zeros at the rest) and
/// skips tau == 0 slots, so it visits one adjusted weight per sketched node
/// in increasing distance order. Two constructors supply the arrays, and
/// both give bitwise-identical estimates:
///
///   * (ads, k, flavor, ranks) scans, and owns a copy of the entries and
///     the arrays, so it may outlive `ads`; its copies share them. In-memory
///     Ads and streams, which no store holds, use it.
///   * (ads, tau, weight) wraps stored arrays (a loaded store's, or
///     PrecomputeHipWeights output): no scan, no allocation. It borrows:
///     the view's entries and the arrays must stay valid while the
///     estimator or a copy of it is used.
///
/// Queries are one ordered fold over the adjusted weights (cardinalities
/// early-exit at the distance bound); the built-in statistics are HipSums
/// and walk through Sum.
class HipEstimator {
 public:
  /// Scans an AdsView: one node's entries, owned by an Ads or sliced out
  /// of a whole-graph arena.
  HipEstimator(AdsView ads, uint32_t k, SketchFlavor flavor,
               const RankAssignment& ranks);

  /// Wraps per-entry tau/weight arrays aligned with `ads`'s entries,
  /// produced by ComputeHipWeightsAligned for the SAME build parameters.
  HipEstimator(AdsView ads, const double* tau, const double* weight)
      : entries_(ads.entries().data()),
        tau_(tau),
        weight_(weight),
        size_(ads.size()) {}

  /// The declared sum `sum` (see HipSum) over this node's HIP entries:
  /// WalkSums with one sum.
  double Sum(const HipSum& sum) const;

  /// Walks this node's entries once, a run of equal distance at a time,
  /// for every sum of `sums`, leaving sums[i]'s value in state[i].value
  /// (`state` holds sums.size() slots and is reset first). At each run an
  /// open sum takes its Factor, closes if Stops says so, and otherwise adds
  /// Term for each of the run's HIP entries. So every sum adds its terms
  /// from 0.0 in entry order, and its value is the same bits whichever sums
  /// walk beside it. fold(d, tau, weight) then sees the run: its distance
  /// and its entries' tau and weight slots, where tau == 0 marks a slot
  /// that holds no HIP entry (k-mins fillers). It lets a fold ride the same
  /// walk (the sweep's histograms); the walk goes on while a sum is open
  /// or fold returns true.
  template <typename Fold>
  void WalkSums(std::span<const HipSum> sums, std::span<HipSumState> state,
                Fold&& fold) const {
    assert(state.size() >= sums.size());
    std::fill_n(state.begin(), sums.size(), HipSumState{});
    size_t open = sums.size();
    for (size_t begin = 0; begin < size_;) {
      const double d = entries_[begin].dist;
      size_t end = begin + 1;
      while (end < size_ && entries_[end].dist == d) ++end;
      for (size_t i = 0; i < sums.size(); ++i) {
        HipSumState& s = state[i];
        if (!s.open) continue;
        const double factor = sums[i].Factor(d);
        if (sums[i].Stops(factor)) {
          s.open = false;
          --open;
          continue;
        }
        double value = s.value;
        for (size_t j = begin; j < end; ++j) {
          if (tau_[j] != 0.0) value += sums[i].Term(factor, weight_[j]);
        }
        s.value = value;
      }
      if (!fold(d, std::span<const double>(tau_ + begin, end - begin),
                std::span<const double>(weight_ + begin, end - begin)) &&
          open == 0) {
        return;
      }
      begin = end;
    }
  }

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
  /// distance order.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    ForEachUntil([&fn](const HipEntry& e) {
      fn(e);
      return true;
    });
  }

  /// Materializes the walked entry sequence (test/debug convenience; the
  /// query paths never need it).
  std::vector<HipEntry> CopyEntries() const;

 private:
  /// The one walk, with early exit: fn returns false to stop.
  template <typename Fn>
  void ForEachUntil(Fn&& fn) const {
    for (size_t i = 0; i < size_; ++i) {
      if (tau_[i] == 0.0) continue;
      if (!fn(HipEntry{entries_[i].node, entries_[i].dist, tau_[i],
                       weight_[i]})) {
        return;
      }
    }
  }

  struct Owned;                         // the scanning constructor's copies
  std::shared_ptr<const Owned> owned_;  // null when borrowing
  const AdsEntry* entries_ = nullptr;
  const double* tau_ = nullptr;
  const double* weight_ = nullptr;
  size_t size_ = 0;
};

/// Basic (pre-HIP) neighborhood cardinality estimate: the Section 4
/// estimator of the ADS's flavor applied to the extracted MinHash sketch of
/// N_d(v). Requires uniform ranks.
double AdsBasicCardinality(AdsView ads, double d, uint32_t k,
                           SketchFlavor flavor, double sup = 1.0);

/// The unique unbiased cardinality estimator based only on the number of
/// ADS entries within distance d (Lemma 8.1):
///   E_s = s                     for s <= k
///   E_s = k (1 + 1/k)^(s-k+1) - 1   otherwise.
double SizeEstimatorValue(uint64_t s, uint32_t k);

/// Applies SizeEstimatorValue to |{entries with dist <= d}|.
double AdsSizeCardinality(AdsView ads, double d, uint32_t k);

/// Section 5.4 permutation cardinality estimator. The ADS must have been
/// built with RankAssignment::Permutation over all n nodes (bottom-k
/// flavor). Tighter than HIP when the queried cardinality exceeds ~0.2 n.
class PermutationCardinalityEstimator {
 public:
  PermutationCardinalityEstimator(AdsView ads, uint32_t k, uint64_t n);

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
double NaiveQgEstimate(AdsView ads, uint32_t k,
                       const std::function<double(NodeId, double)>& g);

}  // namespace hipads

#endif  // HIPADS_ADS_ESTIMATORS_H_
