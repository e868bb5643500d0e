// ADS construction algorithms (paper Section 3, Appendix B).
//
// Three builders, all producing the same canonical sketches on the same
// (graph, ranks, k, flavor) inputs, for every rank kind and thread count:
//
//   * PrunedDijkstra (Algorithm 1): processes nodes by increasing rank, runs
//     a pruned search from each on the transpose graph: BFS when every arc
//     weight is 1, Dijkstra otherwise. Works on weighted and unweighted
//     graphs; every inserted entry is final.
//   * DP (Palmer et al. / Boldi et al. style): synchronized Bellman-Ford
//     rounds; unweighted graphs only; entries inserted by increasing
//     distance are final.
//   * LocalUpdates (Algorithm 2): node-centric message passing for weighted
//     graphs (MapReduce/Pregel model). Entries may be inserted and later
//     deleted; supports (1+epsilon)-approximate mode that bounds the
//     overhead (Section 3).
//
// Each builder has one bottom-k pass, used at every thread count; a shared
// driver runs it once per pass of the flavor (one for bottom-k, k for
// k-mins and k-partition) and assembles the AdsSet on the builder's thread
// pool. The un-suffixed entry points are the *Parallel ones at one thread.
//
// Ties: the sketches follow Ads::CanonicalBottomK. An entry is kept iff
// fewer than k kept entries that are closer under the (distance, node id)
// order have a rank at or below its own, so equal ranks count against each
// other. Base-b ranks (Section 4.4) tie often.
//
// All builders produce *forward* ADSs (entries are nodes reachable FROM the
// owner); pass Graph::Transpose() to obtain backward ADSs of a directed
// graph.

#ifndef HIPADS_ADS_BUILDERS_H_
#define HIPADS_ADS_BUILDERS_H_

#include "ads/ads.h"
#include "graph/graph.h"
#include "sketch/rank.h"

namespace hipads {

/// Work counters used to validate the paper's cost claims (CLAIM-BUILD):
/// expected relaxations O(k m log n), insertions O(k n log n); LocalUpdates
/// deletions measure its extra churn; rounds <= hop diameter for the
/// synchronous algorithms. `candidates` is the windowed pruned builder's
/// replay input, the entries its frozen-state searches proposed (0 at one
/// thread, where every search inserts as it goes).
struct AdsBuildStats {
  uint64_t relaxations = 0;
  uint64_t insertions = 0;
  uint64_t deletions = 0;
  uint64_t rounds = 0;
  uint64_t candidates = 0;
};

/// Algorithm 1. Weighted or unweighted graphs, all three flavors. The
/// one-thread BuildAdsPrunedDijkstraParallel.
AdsSet BuildAdsPrunedDijkstra(const Graph& g, uint32_t k, SketchFlavor flavor,
                              const RankAssignment& ranks,
                              AdsBuildStats* stats = nullptr);

/// Algorithm 1 over windows of sources in increasing rank. The searches are
/// BFS on a unit-weight graph and Dijkstra otherwise; both settle the same
/// nodes at the same distances. At one thread a window is one source whose
/// search inserts as it goes. At T threads the first window holds max(T, k)
/// sources and each later one a quarter as many as all earlier ones; its
/// sources search in parallel against the frozen state of the previous
/// windows, and the candidate entries are then grouped by target on the
/// pool and replayed per target in (rank, distance, node id) order through
/// the inclusion test.
/// No window splits a run of equal ranks. The frozen-state pruning explores
/// a bounded amount more, but the replay makes the same decisions, so the
/// output is bit-identical for every thread count. `num_threads` = 0 uses
/// the hardware count. `stats->relaxations` counts the actual exploration
/// (larger at T > 1); insertions do not depend on T; `rounds` counts
/// windows and `candidates` the entries the windows replayed.
AdsSet BuildAdsPrunedDijkstraParallel(const Graph& g, uint32_t k,
                                      SketchFlavor flavor,
                                      const RankAssignment& ranks,
                                      uint32_t num_threads = 0,
                                      AdsBuildStats* stats = nullptr);

/// Dynamic-programming builder; requires unit arc weights. The one-thread
/// BuildAdsDpParallel.
AdsSet BuildAdsDp(const Graph& g, uint32_t k, SketchFlavor flavor,
                  const RankAssignment& ranks, AdsBuildStats* stats = nullptr);

/// The DP builder with round-level parallelism (candidate generation
/// sharded over the frontier, candidate application sharded over disjoint
/// target ranges — the node-centric decomposition of Section 3). Output and
/// work counters are identical for every thread count. `num_threads` = 0
/// uses the hardware count.
AdsSet BuildAdsDpParallel(const Graph& g, uint32_t k, SketchFlavor flavor,
                          const RankAssignment& ranks,
                          uint32_t num_threads = 0,
                          AdsBuildStats* stats = nullptr);

/// Algorithm 2 (synchronous simulation). `epsilon` > 0 switches to
/// (1+epsilon)-approximate ADSs that trade exactness for fewer updates.
/// The one-thread BuildAdsLocalUpdatesParallel.
AdsSet BuildAdsLocalUpdates(const Graph& g, uint32_t k, SketchFlavor flavor,
                            const RankAssignment& ranks, double epsilon = 0.0,
                            AdsBuildStats* stats = nullptr);

/// Algorithm 2 with round-level parallelism on the shared ThreadPool. Each
/// synchronous round's (canonically sorted) message batch is partitioned
/// into contiguous chunks aligned to target-node boundaries — the
/// node-centric decomposition the algorithm's Pregel framing prescribes:
/// processing target t's messages touches only ADS(t), so disjoint target
/// chunks are independent, and preserving the in-chunk message order
/// preserves the per-target tie-break decisions. Outboxes are concatenated
/// in chunk order and re-sorted canonically next round. Output AND work
/// counters are identical for every thread count and epsilon.
/// `num_threads` = 0 uses the hardware count.
AdsSet BuildAdsLocalUpdatesParallel(const Graph& g, uint32_t k,
                                    SketchFlavor flavor,
                                    const RankAssignment& ranks,
                                    double epsilon = 0.0,
                                    uint32_t num_threads = 0,
                                    AdsBuildStats* stats = nullptr);

/// Brute-force reference: full shortest-path computation from every node,
/// then the canonical inclusion rule. O(n m log n) — tests only.
AdsSet BuildAdsReference(const Graph& g, uint32_t k, SketchFlavor flavor,
                         const RankAssignment& ranks);

}  // namespace hipads

#endif  // HIPADS_ADS_BUILDERS_H_
