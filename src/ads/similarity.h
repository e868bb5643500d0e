// Neighborhood-similarity estimation from coordinated sketches.
//
// Because all ADSs are built over one shared rank assignment, the sketches
// of different nodes are coordinated (Section 2): the bottom-k sketch of a
// union N_d(u) ∪ N_d(v) is computable from the two node sketches, which
// yields the classic MinHash estimators for Jaccard similarity of
// neighborhoods — the application family the paper cites ([11], [12]).
//
// J(u, v; d) = |N_d(u) ∩ N_d(v)| / |N_d(u) ∪ N_d(v)| is estimated by the
// fraction of the union's bottom-k sample that lies in both neighborhoods;
// combined with a union-cardinality estimate this also gives intersection
// cardinalities.
//
// All estimators take AdsViews, the query surface every storage backend
// (in-memory, mmap, sharded — ads/backend.h) hands out, so similarity
// serving never copies a sketch; an owning Ads converts implicitly.

#ifndef HIPADS_ADS_SIMILARITY_H_
#define HIPADS_ADS_SIMILARITY_H_

#include "ads/ads.h"

namespace hipads {

/// MinHash estimate of the Jaccard similarity of N_d(u) and N_d(v) from
/// their bottom-k ADSs (which must share k and the rank assignment).
/// Exact when both neighborhoods have at most k nodes. Returns 0 for two
/// empty neighborhoods.
double JaccardSimilarity(AdsView u, AdsView v, double d, uint32_t k,
                         double sup = 1.0);

/// Estimate of the union cardinality |N_d(u) ∪ N_d(v)| via the basic
/// bottom-k estimator on the merged sketch.
double UnionCardinality(AdsView u, AdsView v, double d, uint32_t k,
                        double sup = 1.0);

/// Estimate of the intersection cardinality |N_d(u) ∩ N_d(v)| =
/// J * |union|.
double IntersectionCardinality(AdsView u, AdsView v, double d, uint32_t k,
                               double sup = 1.0);

/// Closeness similarity: Jaccard of the reachable sets (d = infinity).
double ReachabilityJaccard(AdsView u, AdsView v, uint32_t k,
                           double sup = 1.0);

}  // namespace hipads

#endif  // HIPADS_ADS_SIMILARITY_H_
