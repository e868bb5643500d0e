// Algorithm 1: ADS construction via pruned Dijkstra searches.
//
// Nodes are processed in increasing rank order; a Dijkstra on the transpose
// graph from node u reaches every node v whose ADS u belongs to. Because all
// previously inserted entries have rank at most u's, u belongs to ADS(v) iff
// fewer than k current entries of ADS(v) are closer under the tie-broken
// (distance, node id) order, and the search can be pruned at v otherwise
// (anything beyond v is farther still). Every inserted entry is final:
// later-processed nodes have larger ranks and cannot displace it.
//
// Sources are processed in windows of consecutive ranks. A window of one
// source is Algorithm 1's loop: the search inserts as it goes. A larger
// window runs one search per source against the frozen state of all
// previous windows — a weaker pruning test, so the searches emit a superset
// of the true entries as candidates — and then replays the inclusion test
// per target over the candidates in (rank, distance, node id) order. The
// replay applies exactly the test the one-source loop would apply, with
// exactly the same key state, so the accepted entries do not depend on how
// sources were cut into windows. A window never splits a run of equal ranks:
// an equal-rank source that is closer to v must be counted before u is
// tested at v, which only the replay's order guarantees. See README.md's
// threading-model section.

#include <algorithm>
#include <queue>
#include <utility>

#include "ads/builder_driver.h"
#include "util/parallel.h"

namespace hipads {

namespace {

// The (distance, node id) keys of ADS(v)'s current entries, sorted. A test
// only asks whether k keys are closer, so each list keeps the k closest.
using LexKey = std::pair<double, NodeId>;

struct HeapItem {
  double dist;
  NodeId node;
  bool operator>(const HeapItem& o) const {
    if (dist != o.dist) return dist > o.dist;
    return node > o.node;
  }
};

// One thread's search state, reused across its searches: epoch-stamped
// tentative distances (no O(n) re-initialization per search) and the heap.
// Cache-line aligned: the heap's pointers change on every push and pop.
struct alignas(64) Scratch {
  explicit Scratch(NodeId n) : dist(n, 0.0), epoch_of(n, 0) {}
  std::vector<double> dist;
  std::vector<uint32_t> epoch_of;
  uint32_t epoch = 0;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  bool Seen(NodeId v) const { return epoch_of[v] == epoch; }
  void Set(NodeId v, double d) {
    dist[v] = d;
    epoch_of[v] = epoch;
  }
};

// How many keys in `keys` are closer than `key`: where `key` would go.
size_t CloserKeys(const std::vector<LexKey>& keys, const LexKey& key) {
  return static_cast<size_t>(std::lower_bound(keys.begin(), keys.end(), key) -
                             keys.begin());
}

// The pruned Dijkstra from source `u` on the transpose. At each settled
// node v, u passes iff fewer than k keys of ADS(v) are closer than (d, u);
// then visit(v, d, closer) runs and the search expands v, otherwise it
// prunes there. Returns the relaxations (out-degrees of expanded nodes).
template <typename Visit>
uint64_t PrunedSearch(const Graph& gt, uint32_t k, NodeId u,
                      const std::vector<std::vector<LexKey>>& keys,
                      Scratch& sc, const Visit& visit) {
  uint64_t relaxations = 0;
  ++sc.epoch;
  sc.Set(u, 0.0);
  auto& heap = sc.heap;
  heap.push({0.0, u});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (sc.dist[v] < d) continue;  // stale
    size_t closer = CloserKeys(keys[v], {d, u});
    if (closer >= k) continue;  // prune: v settled but not expanded
    visit(v, d, closer);
    relaxations += gt.OutDegree(v);
    for (const Arc& a : gt.OutArcs(v)) {
      double nd = d + a.weight;
      if (!sc.Seen(a.head) || nd < sc.dist[a.head]) {
        sc.Set(a.head, nd);
        heap.push({nd, a.head});
      }
    }
  }
  return relaxations;
}

// A window search's candidate: source `src` (its index in the pass's rank
// order) reached `target` at distance `dist`. (target, src) is unique.
struct WindowCandidate {
  NodeId target;
  uint32_t src;
  double dist;
};

// Sources in the window starting at rank position `pos`. One thread gains
// nothing from batching, so its windows hold one source and keep the live
// pruning. T threads start at max(T, k) sources, the k cheapest unpruned
// searches, and then each window holds as many sources as all earlier
// ones, so the frozen state is at most one doubling stale and the extra
// exploration stays a constant factor.
size_t WindowSize(size_t pos, uint32_t num_threads, uint32_t k) {
  if (num_threads < 2) return 1;
  return std::max<size_t>({num_threads, k, pos});
}

// One bottom-k pass. Phase A deals a window's sources to the pool's tasks
// round-robin (source i -> task i % T; earlier sources explore more);
// phase B sorts the candidates and replays them on target-aligned ranges,
// each range mutating only its own targets' keys and outputs. Both phases
// decompose by index, never by thread identity.
void RunPrunedDijkstraPass(const BottomKPass& pass, ThreadPool& pool,
                           std::vector<Scratch>& scratch) {
  const uint32_t num_threads = pool.num_threads();
  const uint32_t k = pass.k;
  std::vector<std::pair<double, NodeId>> order;  // (rank, id), increasing
  order.reserve(pass.sources.size());
  for (NodeId u : pass.sources) {
    order.emplace_back(pass.ranks.rank(u, pass.perm), u);
  }
  std::sort(order.begin(), order.end());
  std::vector<std::vector<LexKey>> keys(pass.gt.num_nodes());

  // Inserts source order[i] into ADS(v) at distance d, after `closer` keys.
  auto insert = [&](NodeId v, double d, size_t i, size_t closer) {
    std::vector<LexKey>& kl = keys[v];
    kl.insert(kl.begin() + closer, LexKey{d, order[i].second});
    if (kl.size() > k) kl.pop_back();
    pass.out[v].push_back(AdsEntry{order[i].second, pass.part, order[i].first,
                                   d});
  };

  std::vector<std::vector<WindowCandidate>> task_cands(num_threads);
  std::vector<uint64_t> task_relax(num_threads);
  std::vector<WindowCandidate> candidates;
  for (size_t pos = 0, stop = 0; pos < order.size(); pos = stop) {
    stop = std::min(order.size(), pos + WindowSize(pos, num_threads, k));
    while (stop < order.size() && order[stop].first == order[stop - 1].first) {
      ++stop;
    }
    ++pass.stats.rounds;
    if (stop - pos == 1) {
      pass.stats.relaxations += PrunedSearch(
          pass.gt, k, order[pos].second, keys, scratch[0],
          [&](NodeId v, double d, size_t closer) {
            insert(v, d, pos, closer);
            ++pass.stats.insertions;
          });
      continue;
    }

    // Phase A: frozen-state searches, candidates per task.
    pool.RunTasks(num_threads, [&](size_t t) {
      task_cands[t].clear();
      task_relax[t] = 0;
      for (size_t i = pos + t; i < stop; i += num_threads) {
        task_relax[t] += PrunedSearch(
            pass.gt, k, order[i].second, keys, scratch[t],
            [&](NodeId v, double d, size_t) {
              task_cands[t].push_back(
                  WindowCandidate{v, static_cast<uint32_t>(i), d});
            });
      }
    });
    candidates.clear();
    for (uint32_t t = 0; t < num_threads; ++t) {
      pass.stats.relaxations += task_relax[t];
      candidates.insert(candidates.end(), task_cands[t].begin(),
                        task_cands[t].end());
    }
    // By (target, src); src follows (rank, id).
    std::sort(candidates.begin(), candidates.end(),
              [](const WindowCandidate& a, const WindowCandidate& b) {
                if (a.target != b.target) return a.target < b.target;
                return a.src < b.src;
              });

    // Phase B: replay the inclusion test per target in (rank, distance, id)
    // order: a target's equal-rank candidates are first sorted by distance.
    std::vector<size_t> bounds = TargetAlignedBounds(candidates, num_threads);
    std::vector<uint64_t> inserted(bounds.size() - 1, 0);
    pool.ParallelRanges(bounds, [&](size_t begin, size_t end, uint32_t c) {
      for (size_t j = begin; j < end;) {
        size_t run = j + 1;  // one target's candidates of one rank
        while (run < end && candidates[run].target == candidates[j].target &&
               order[candidates[run].src].first ==
                   order[candidates[j].src].first) {
          ++run;
        }
        std::sort(candidates.begin() + j, candidates.begin() + run,
                  [](const WindowCandidate& a, const WindowCandidate& b) {
                    return a.dist != b.dist ? a.dist < b.dist : a.src < b.src;
                  });
        for (; j < run; ++j) {
          const WindowCandidate& x = candidates[j];
          size_t closer =
              CloserKeys(keys[x.target], {x.dist, order[x.src].second});
          if (closer >= k) continue;
          insert(x.target, x.dist, x.src, closer);
          ++inserted[c];
        }
      }
    });
    for (uint64_t count : inserted) pass.stats.insertions += count;
  }
}

}  // namespace

AdsSet BuildAdsPrunedDijkstraParallel(const Graph& g, uint32_t k,
                                      SketchFlavor flavor,
                                      const RankAssignment& ranks,
                                      uint32_t num_threads,
                                      AdsBuildStats* stats) {
  ThreadPool pool(num_threads);
  std::vector<Scratch> scratch(pool.num_threads(), Scratch(g.num_nodes()));
  return BuildAdsFromPasses(g, k, flavor, ranks, stats,
                            [&](const BottomKPass& pass) {
                              RunPrunedDijkstraPass(pass, pool, scratch);
                            });
}

AdsSet BuildAdsPrunedDijkstra(const Graph& g, uint32_t k, SketchFlavor flavor,
                              const RankAssignment& ranks,
                              AdsBuildStats* stats) {
  return BuildAdsPrunedDijkstraParallel(g, k, flavor, ranks,
                                        /*num_threads=*/1, stats);
}

}  // namespace hipads
