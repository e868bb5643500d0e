// Graph-level queries over a full ADS set: the ANF-style distance
// distribution / neighbourhood function, all-nodes centrality sweeps, and
// top-k centrality selection. These are the workloads that motivated ADSs
// (paper Section 1) packaged over the HIP estimators.
//
// Every function here is a thin single-collector plan over the fused
// sweep-execution engine (ads/sweep.h), which owns the one sweep
// implementation in the codebase. Each query reads the sketches through
// the one whole-graph read surface, AdsBackend: an in-memory arena
// (FlatAdsBackend — wrap a FlatAdsSet with FlatAdsBackend(&set) at zero
// cost), a zero-copy mmap, or a sharded set with prefetch.
// `num_threads` = 0 uses the hardware count, 1 runs inline; results are
// bit-identical for every storage engine and every thread count (the
// executor's determinism contract, documented in ads/sweep.h).
//
// Calling K of these functions costs K full backend sweeps. A caller that
// wants several statistics from the same sketches should build one
// SweepPlan with K collectors and RunSweep it instead: same results,
// bitwise, for one shard sweep and one entry walk per node.
//
// Every query returns StatusOr because a lazy range load can fail
// (missing, truncated or corrupt shard file).

#ifndef HIPADS_ADS_QUERIES_H_
#define HIPADS_ADS_QUERIES_H_

#include <functional>
#include <map>
#include <vector>

#include "ads/backend.h"
#include "ads/sweep.h"  // the executor underneath; also TopKNodes
#include "util/status.h"

namespace hipads {

/// Estimated neighbourhood function: for each distance d that appears in
/// some sketch, N(d) = estimated number of ordered pairs (u,v) with
/// d(u,v) <= d, v != u. This is what ANF/hyperANF compute; with HIP weights
/// the estimate is unbiased and strictly more accurate (Appendix B.1).
StatusOr<std::map<double, double>> EstimateNeighborhoodFunction(
    const AdsBackend& set, uint32_t num_threads = 0);

/// Estimated distance distribution: number of ordered pairs at each exact
/// distance (the increments of the neighbourhood function).
StatusOr<std::map<double, double>> EstimateDistanceDistribution(
    const AdsBackend& set, uint32_t num_threads = 0);

/// HIP estimates of C_{alpha,beta} for every node (Eq. 3).
StatusOr<std::vector<double>> EstimateClosenessAll(
    const AdsBackend& set, const std::function<double(double)>& alpha,
    const std::function<double(NodeId)>& beta, uint32_t num_threads = 0);

/// HIP estimates of the sum of distances (inverse classic closeness
/// centrality) for every node.
StatusOr<std::vector<double>> EstimateDistanceSumAll(
    const AdsBackend& set, uint32_t num_threads = 0);

/// HIP estimates of harmonic centrality for every node.
StatusOr<std::vector<double>> EstimateHarmonicCentralityAll(
    const AdsBackend& set, uint32_t num_threads = 0);

/// HIP estimates of the d-neighborhood cardinality for every node.
StatusOr<std::vector<double>> EstimateNeighborhoodSizeAll(
    const AdsBackend& set, double d, uint32_t num_threads = 0);

/// HIP estimates of the reachable-set size for every node.
StatusOr<std::vector<double>> EstimateReachableCountAll(
    const AdsBackend& set, uint32_t num_threads = 0);

/// Effective diameter estimate: the smallest distance d at which the
/// estimated neighbourhood function reaches `quantile` (0.9 is the
/// conventional choice; the "four degrees of separation" style statistic
/// computed by HyperBall/hyperANF). Returns 0 for an empty set.
StatusOr<double> EstimateEffectiveDiameter(const AdsBackend& set,
                                           double quantile = 0.9);

/// Estimated mean distance between reachable ordered pairs.
StatusOr<double> EstimateMeanDistance(const AdsBackend& set);

}  // namespace hipads

#endif  // HIPADS_ADS_QUERIES_H_
