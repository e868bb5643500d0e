// Dynamic-programming (Bellman-Ford style) ADS construction for unweighted
// graphs (paper Section 3; the ANF / hyperANF computation pattern).
//
// Round d relaxes every arc whose sink gained entries in round d-1, so
// candidate entries are generated in increasing distance and, once inserted,
// are final. Within a round, candidates of one target node are applied in
// increasing node-id order, which realizes the same (distance, node id) tie
// breaking as the pruned-Dijkstra builder — the two produce identical ADSs.

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "ads/builder_driver.h"
#include "util/parallel.h"

namespace hipads {

namespace {

struct Candidate {
  NodeId target;
  NodeId node;
  double rank;
};

// One bottom-k DP pass. Candidate generation is sharded over the frontier,
// application over target-aligned ranges of the sorted candidates, so every
// target's state is owned by exactly one chunk per round. Applying each
// target's candidates in node-id order makes the output independent of the
// thread count; a one-thread pool runs every round inline.
void RunDpPass(const BottomKPass& pass, ThreadPool& pool) {
  const uint32_t num_threads = pool.num_threads();
  NodeId n = pass.gt.num_nodes();
  std::vector<BottomKSketch> threshold(n,
                                       BottomKSketch(pass.k, pass.ranks.sup()));
  // Per-target membership: within a round each target is touched by one
  // chunk only, so no synchronization is needed.
  std::vector<std::unordered_set<NodeId>> member(n);

  std::vector<Candidate> frontier;
  for (NodeId v : pass.sources) {
    double rv = pass.ranks.rank(v, pass.perm);
    pass.out[v].push_back(AdsEntry{v, pass.part, rv, 0.0});
    threshold[v].Update(rv);
    member[v].insert(v);
    frontier.push_back(Candidate{v, v, rv});
    ++pass.stats.insertions;
  }

  double d = 0.0;
  std::vector<Candidate> candidates;
  std::vector<size_t> offset;
  while (!frontier.empty()) {
    d += 1.0;
    ++pass.stats.rounds;

    // Phase A: propagate last round's new entries across (transpose) arcs;
    // each frontier entry writes its candidates at a precomputed offset.
    offset.assign(1, 0);
    for (const Candidate& f : frontier) {
      offset.push_back(offset.back() + pass.gt.OutDegree(f.target));
    }
    candidates.resize(offset.back());
    pool.ParallelFor(frontier.size(), [&](size_t begin, size_t end, uint32_t) {
      for (size_t i = begin; i < end; ++i) {
        Candidate* c = candidates.data() + offset[i];
        for (const Arc& a : pass.gt.OutArcs(frontier[i].target)) {
          *c++ = Candidate{a.head, frontier[i].node, frontier[i].rank};
        }
      }
    });
    pass.stats.relaxations += candidates.size();
    frontier.clear();

    // Phase B: apply candidates per target in increasing node-id order so
    // that ties at distance d resolve by the canonical rank-independent
    // order: a candidate's threshold counts exactly the members that are
    // lex-closer (prior rounds, plus this round's smaller ids, already
    // applied).
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.target != b.target) return a.target < b.target;
                return a.node < b.node;
              });
    std::vector<size_t> bounds = TargetAlignedBounds(candidates, num_threads);
    std::vector<std::vector<Candidate>> next_frontier(bounds.size() - 1);
    pool.ParallelRanges(bounds, [&](size_t begin, size_t end, uint32_t c) {
      for (size_t i = begin; i < end; ++i) {
        const Candidate& x = candidates[i];
        if (x.rank >= threshold[x.target].Threshold()) continue;
        if (!member[x.target].insert(x.node).second) continue;
        pass.out[x.target].push_back(AdsEntry{x.node, pass.part, x.rank, d});
        threshold[x.target].Update(x.rank);
        next_frontier[c].push_back(x);
      }
    });
    for (const std::vector<Candidate>& chunk : next_frontier) {
      pass.stats.insertions += chunk.size();
      frontier.insert(frontier.end(), chunk.begin(), chunk.end());
    }
  }
}

}  // namespace

AdsSet BuildAdsDpParallel(const Graph& g, uint32_t k, SketchFlavor flavor,
                          const RankAssignment& ranks, uint32_t num_threads,
                          AdsBuildStats* stats) {
  assert(g.IsUnitWeight() && "the DP builder requires an unweighted graph");
  ThreadPool pool(num_threads);
  return BuildAdsFromPasses(
      g, k, flavor, ranks, stats, pool,
      [&](const BottomKPass& pass) { RunDpPass(pass, pool); });
}

AdsSet BuildAdsDp(const Graph& g, uint32_t k, SketchFlavor flavor,
                  const RankAssignment& ranks, AdsBuildStats* stats) {
  return BuildAdsDpParallel(g, k, flavor, ranks, /*num_threads=*/1, stats);
}

}  // namespace hipads
