#include "ads/hip.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <span>

#include "util/parallel.h"

namespace hipads {

namespace {

// Inclusion probability of a node whose rank must fall below `tau` in rank
// space. For uniform and base-b ranks P(r < tau) = tau exactly (tau is
// always an attainable rank value or the supremum 1); for exponential ranks
// with rate beta, P(Exp(beta) < tau) = 1 - exp(-beta tau); for priority
// (Sequential Poisson) ranks, P(U/beta < tau) = min(1, beta tau). One
// instantiation per rank kind, so a scan that hoists the kind out of its
// loop computes the same bits as one that switches per entry.
template <RankKind kKind>
double InclusionProbability(double tau, double beta) {
  if constexpr (kKind == RankKind::kUniform || kKind == RankKind::kBaseB) {
    return std::min(tau, 1.0);
  } else if constexpr (kKind == RankKind::kExponential) {
    if (std::isinf(tau)) return 1.0;
    return -std::expm1(-beta * tau);
  } else if constexpr (kKind == RankKind::kPriority) {
    if (std::isinf(tau)) return 1.0;
    return std::min(1.0, beta * tau);
  } else {
    assert(false && "use PermutationCardinalityEstimator");
    return 1.0;
  }
}

double InclusionProbability(double tau, double beta, RankKind kind) {
  switch (kind) {
    case RankKind::kUniform:
    case RankKind::kBaseB:
      return InclusionProbability<RankKind::kUniform>(tau, beta);
    case RankKind::kExponential:
      return InclusionProbability<RankKind::kExponential>(tau, beta);
    case RankKind::kPriority:
      return InclusionProbability<RankKind::kPriority>(tau, beta);
    case RankKind::kPermutation:
      return InclusionProbability<RankKind::kPermutation>(tau, beta);
  }
  return 1.0;
}

// The kernels below scan one node's canonical-order entry span and write
// each adjusted weight into the aligned arrays at the first entry it
// covers: every entry for bottom-k and k-partition, the first of each
// same-(dist, node) run for k-mins, whose other members get zeros.

// The bottom-k scan, one instantiation per rank kind. `held` has room for
// min(k, ads.size()) ranks and keeps the k smallest ranks scanned so far,
// sorted ascending: BottomKSketch's state, updated inline as
// BottomKSketch::Update does it (a rank below the threshold enters before
// any equal ranks; once k are held, the largest leaves). The entering rank
// moves down past the larger ones a slot at a time: an ADS's ranks come in
// no order, so a binary search would mispredict at every step.
template <RankKind kKind>
void BottomKHip(std::span<const AdsEntry> ads, uint32_t k,
                const RankAssignment& ranks, double* held, double* tau,
                double* weight) {
  double threshold = ranks.sup();  // the k-th held rank, sup() until then
  size_t size = 0;
  for (size_t i = 0; i < ads.size(); ++i) {
    const double p = InclusionProbability<kKind>(
        threshold, kKind == RankKind::kUniform ? 1.0 : ranks.beta(ads[i].node));
    assert(p > 0.0);
    tau[i] = p;
    weight[i] = 1.0 / p;
    const double rank = ads[i].rank;
    if (!(rank < threshold)) continue;
    if (size < k) ++size;
    size_t at = size - 1;
    for (; at > 0 && !(held[at - 1] < rank); --at) held[at] = held[at - 1];
    held[at] = rank;
    if (size == k) threshold = held[k - 1];
  }
}

void KMinsHip(std::span<const AdsEntry> ads, uint32_t k,
              const RankAssignment& ranks, std::vector<double>& mins,
              double* tau, double* weight) {
  // Same-node entries (one per permutation) share a single adjusted weight.
  // In canonical (dist, node, part) order — the invariant every storage
  // engine maintains — a node's entries form one contiguous run (they all
  // sit at the node's distance), so runs ARE the groups and the scan needs
  // no group-membership bookkeeping at all.
  size_t i = 0;
  while (i < ads.size()) {
    size_t j = i + 1;
    while (j < ads.size() && ads[j].dist == ads[i].dist &&
           ads[j].node == ads[i].node) {
      ++j;
    }
    // Eq. (7): the node enters the ADS iff it beats the running minimum in
    // at least one permutation. With no closer node in permutation h the
    // miss factor (1 - P(beat)) is 0, so tau = 1.
    double beta = ranks.beta(ads[i].node);
    double prod = 1.0;
    for (uint32_t h = 0; h < k; ++h) {
      prod *= 1.0 - InclusionProbability(mins[h], beta, ranks.kind());
    }
    double t = 1.0 - prod;
    assert(t > 0.0);
    tau[i] = t;
    weight[i] = 1.0 / t;
    std::fill(tau + i + 1, tau + j, 0.0);
    std::fill(weight + i + 1, weight + j, 0.0);
    for (size_t idx = i; idx < j; ++idx) {
      mins[ads[idx].part] = std::min(mins[ads[idx].part], ads[idx].rank);
    }
    i = j;
  }
}

void KPartitionHip(std::span<const AdsEntry> ads, uint32_t k,
                   const RankAssignment& ranks, std::vector<double>& mins,
                   double* tau, double* weight) {
  const bool weighted = ranks.kind() == RankKind::kExponential ||
                        ranks.kind() == RankKind::kPriority;
  // Eq. (8): tau = (1/k) sum_h P(rank beats bucket-h minimum); an empty
  // bucket is beaten with probability 1. For unweighted ranks P(beat m) =
  // min(m, 1) is node-independent, so we maintain the sum incrementally;
  // weighted ranks recompute the per-node sum.
  double uniform_sum = static_cast<double>(k);
  for (size_t i = 0; i < ads.size(); ++i) {
    double t;
    if (weighted) {
      double beta = ranks.beta(ads[i].node);
      double s = 0.0;
      for (uint32_t h = 0; h < k; ++h) {
        s += InclusionProbability(mins[h], beta, ranks.kind());
      }
      t = s / static_cast<double>(k);
    } else {
      t = uniform_sum / static_cast<double>(k);
    }
    assert(t > 0.0);
    tau[i] = t;
    weight[i] = 1.0 / t;
    if (ads[i].rank < mins[ads[i].part]) {
      if (!weighted) {
        uniform_sum -= std::min(mins[ads[i].part], 1.0) - ads[i].rank;
      }
      mins[ads[i].part] = ads[i].rank;
    }
  }
}

}  // namespace

void ComputeHipWeightsAligned(AdsView ads, uint32_t k, SketchFlavor flavor,
                              const RankAssignment& ranks, HipScratch* scratch,
                              double* tau, double* weight) {
  assert(ranks.kind() != RankKind::kPermutation);
  switch (flavor) {
    case SketchFlavor::kBottomK: {
      scratch->mins.resize(std::min<size_t>(k, ads.size()));
      double* held = scratch->mins.data();
      switch (ranks.kind()) {
        case RankKind::kUniform:
        case RankKind::kBaseB:
          BottomKHip<RankKind::kUniform>(ads.entries(), k, ranks, held, tau,
                                         weight);
          return;
        case RankKind::kExponential:
          BottomKHip<RankKind::kExponential>(ads.entries(), k, ranks, held,
                                             tau, weight);
          return;
        case RankKind::kPriority:
          BottomKHip<RankKind::kPriority>(ads.entries(), k, ranks, held, tau,
                                          weight);
          return;
        case RankKind::kPermutation:
          BottomKHip<RankKind::kPermutation>(ads.entries(), k, ranks, held,
                                             tau, weight);
          return;
      }
      return;
    }
    case SketchFlavor::kKMins:
      scratch->mins.assign(k, ranks.sup());
      KMinsHip(ads.entries(), k, ranks, scratch->mins, tau, weight);
      return;
    case SketchFlavor::kKPartition:
      scratch->mins.assign(k, ranks.sup());
      KPartitionHip(ads.entries(), k, ranks, scratch->mins, tau, weight);
      return;
  }
}

void PrecomputeHipWeights(FlatAdsSet* set, uint32_t num_threads) {
  set->hip_tau.resize(set->entries.size());
  set->hip_weight.resize(set->entries.size());
  if (set->num_nodes() == 0) return;
  ThreadPool pool(num_threads);
  std::vector<HipScratch> scratches(pool.num_threads());
  pool.ParallelRanges(
      EntryBalancedRanges(set->offsets.data(), set->num_nodes(),
                          pool.num_threads()),
      [&](size_t begin, size_t end, uint32_t chunk) {
        HipScratch& scratch = scratches[chunk];
        for (size_t v = begin; v < end; ++v) {
          uint64_t off = set->offsets[v];
          ComputeHipWeightsAligned(set->of(static_cast<NodeId>(v)), set->k,
                                   set->flavor, set->ranks, &scratch,
                                   set->hip_tau.data() + off,
                                   set->hip_weight.data() + off);
        }
      });
}

std::vector<HipEntry> ComputeModifiedHipWeights(AdsView ads, uint32_t k,
                                                double sup) {
  // Scan distance groups, maintaining the bottom-k sketch of all member
  // ranks within the current ball. The threshold for every member of a
  // group is the kth smallest rank of the ball including the group itself
  // (which equals the (k-1)th smallest among the member's peers, the
  // Appendix-A conditioning).
  std::vector<HipEntry> result;
  result.reserve(ads.size());
  BottomKSketch ball(k, sup);
  const auto entries = ads.entries();
  size_t i = 0;
  while (i < entries.size()) {
    size_t j = i;
    while (j < entries.size() && entries[j].dist == entries[i].dist) ++j;
    for (size_t t = i; t < j; ++t) ball.Update(entries[t].rank);
    double tau = ball.Threshold();
    for (size_t t = i; t < j; ++t) {
      // Members holding exactly the kth smallest rank of their ball are
      // retained in the sketch but not "sampled": weight 0.
      bool sampled = entries[t].rank < tau;
      result.push_back(HipEntry{entries[t].node, entries[t].dist,
                                std::min(tau, 1.0),
                                sampled ? 1.0 / std::min(tau, 1.0) : 0.0});
    }
    i = j;
  }
  return result;
}

}  // namespace hipads
