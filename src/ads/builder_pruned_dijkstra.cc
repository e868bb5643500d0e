// Algorithm 1: ADS construction via pruned shortest-path searches.
//
// Nodes are processed in increasing rank order; a search on the transpose
// graph from node u reaches every node v whose ADS u belongs to. Because all
// previously inserted entries have rank at most u's, u belongs to ADS(v) iff
// fewer than k current entries of ADS(v) are closer under the tie-broken
// (distance, node id) order, and the search can be pruned at v otherwise
// (anything beyond v is farther still). Every inserted entry is final:
// later-processed nodes have larger ranks and cannot displace it.
//
// The search is a pruned Dijkstra on weighted graphs and a pruned BFS on
// unit-weight ones. Whether u passes at v depends only on ADS(v)'s keys and
// on (d, u), never on the order in which the nodes at one distance settle,
// so the FIFO search settles, expands and prunes exactly the nodes the heap
// would, at the same distances. The BFS reads only what it uses: a
// heads-only CSR of the transpose (4 bytes per arc, built once per build)
// and 32-bit levels, turned into a double distance only where a key is
// formed. The prune state is flat: every node's k closest keys fill k
// slots of one array, and the k-th key of every list (+inf while a list
// is short), all that the prune test reads, sits in another. Both are
// written only where a list changes.
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
// tested at v, which only the replay's order guarantees. The candidates are
// grouped by target on the pool (a counting sort into buckets of
// consecutive target ids), and each bucket counting-sorts its candidates by
// target, orders each target's candidates by source and replays its own
// targets. See README.md's threading-model section.

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <utility>

#include "ads/builder_driver.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace hipads {

namespace {

// The (distance, node id) keys of ADS(v)'s current entries, sorted. A test
// only asks whether k keys are closer, so each list keeps the k closest.
using LexKey = std::pair<double, NodeId>;

// The padding of a list's empty slots, and its k-th key while it holds
// fewer than k: every key at a finite distance is closer, so nothing is
// pruned against it.
constexpr LexKey kNoKthKey{kInfDist, 0};

// A BFS level of a node the search has not reached. Levels stay below the
// node count, which NodeId bounds.
constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();

// Replay buckets per pool thread: enough that a bucket holding a hub's
// candidates does not hold up the window, few enough that the per-(task,
// bucket) counters stay O(threads^2), never O(threads x nodes).
constexpr size_t kBucketsPerThread = 256;

struct HeapItem {
  double dist;
  NodeId node;
  bool operator>(const HeapItem& o) const {
    if (dist != o.dist) return dist > o.dist;
    return node > o.node;
  }
};

// The transpose's arcs as heads only, in CSR form: all that a BFS reads of
// an arc, in 4 bytes where an Arc takes 16.
struct ArcHeads {
  explicit ArcHeads(const Graph& gt) : begin(gt.num_nodes() + 1, 0) {
    heads.reserve(gt.num_arcs());
    for (NodeId v = 0; v < gt.num_nodes(); ++v) {
      for (const Arc& a : gt.OutArcs(v)) heads.push_back(a.head);
      begin[v + 1] = heads.size();
    }
  }
  std::span<const NodeId> of(NodeId v) const {
    return {heads.data() + begin[v], heads.data() + begin[v + 1]};
  }

  std::vector<uint64_t> begin;
  std::vector<NodeId> heads;
};

// One task's search state, reused across its searches: BFS levels on unit
// weights, Dijkstra distances otherwise (only the search's own array is
// allocated), kUnreached / +inf for every node outside a search. `reached`
// lists the nodes a search reached (the BFS queue itself, Dijkstra's
// touched list), and each search puts exactly those back, so no O(n)
// re-initialization and no counter to wrap. Cache-line aligned: the heap's
// and the list's pointers change on every push and pop.
struct alignas(64) Scratch {
  Scratch(NodeId n, bool unit_weight) {
    if (unit_weight) {
      level.assign(n, kUnreached);
    } else {
      dist.assign(n, kInfDist);
    }
  }
  std::vector<uint32_t> level;
  std::vector<double> dist;
  std::vector<NodeId> reached;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
};

// The pruned searches from source `u` on the transpose. At each settled
// node v, u passes iff ADS(v)'s k-th key, kth[v], is not closer than
// (d, u); then visit(v, d) runs and the search expands v, otherwise it
// prunes there. Both return the relaxations (out-degrees of expanded
// nodes).

// Unit weights: nodes settle in FIFO order, one level at a time.
template <typename Visit>
uint64_t PrunedBfs(const ArcHeads& gt, NodeId u,
                   const std::vector<LexKey>& kth, Scratch& sc,
                   const Visit& visit) {
  uint64_t relaxations = 0;
  std::vector<NodeId>& queue = sc.reached;
  sc.level[u] = 0;
  queue.push_back(u);
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    const uint32_t level = sc.level[v];
    const double d = level;
    if (kth[v] < LexKey{d, u}) continue;  // settled but not expanded
    visit(v, d);
    const std::span<const NodeId> heads = gt.of(v);
    relaxations += heads.size();
    for (NodeId w : heads) {
      if (sc.level[w] == kUnreached) {
        sc.level[w] = level + 1;
        queue.push_back(w);
      }
    }
  }
  for (NodeId v : queue) sc.level[v] = kUnreached;
  queue.clear();
  return relaxations;
}

// Any non-negative weights.
template <typename Visit>
uint64_t PrunedDijkstra(const Graph& gt, NodeId u,
                        const std::vector<LexKey>& kth, Scratch& sc,
                        const Visit& visit) {
  uint64_t relaxations = 0;
  auto& heap = sc.heap;
  sc.dist[u] = 0.0;
  sc.reached.push_back(u);
  heap.push({0.0, u});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (sc.dist[v] < d) continue;  // stale
    if (kth[v] < LexKey{d, u}) continue;  // settled but not expanded
    visit(v, d);
    relaxations += gt.OutDegree(v);
    for (const Arc& a : gt.OutArcs(v)) {
      double nd = d + a.weight;
      if (nd < sc.dist[a.head]) {
        if (sc.dist[a.head] == kInfDist) sc.reached.push_back(a.head);
        sc.dist[a.head] = nd;
        heap.push({nd, a.head});
      }
    }
  }
  for (NodeId v : sc.reached) sc.dist[v] = kInfDist;
  sc.reached.clear();
  return relaxations;
}

// A window search's candidate: source `src` (its index in the pass's rank
// order) reached `target` at distance `dist`. (target, src) is unique.
struct WindowCandidate {
  NodeId target;
  uint32_t src;
  double dist;
};

// After the first window, a window holds 1/kWindowShare as many sources as
// all windows before it. Its searches prune against a state that lacks its
// own sources' entries, so smaller windows explore less past where the
// live state would prune, at the cost of more windows (three pool rounds
// each). Of 1, 2, 4 and 8, 4 built scale-16 R-MAT graphs fastest at 4
// threads on a 4-vCPU VM.
constexpr size_t kWindowShare = 4;

// Sources in the window starting at rank position `pos`. One thread gains
// nothing from batching, so its windows hold one source and keep the live
// pruning. T threads start at max(T, k) sources, the k cheapest unpruned
// searches, and then each window holds a quarter as many sources as all
// earlier ones: the sources processed grow by 5/4 per window, so a build
// runs O(log n) windows and the extra exploration stays a constant factor.
size_t WindowSize(size_t pos, uint32_t num_threads, uint32_t k) {
  if (num_threads < 2) return 1;
  return std::max<size_t>({num_threads, k, pos / kWindowShare});
}

// One bottom-k pass, searching by BFS over `heads` when it is given and by
// Dijkstra over pass.gt otherwise. In phase A the pool's T tasks claim a
// window's sources in increasing index from a shared counter (searches
// differ widely in cost, so a fixed deal leaves tasks idle), and each task
// counts its candidates per bucket of consecutive targets. The grouping
// then scatters every task's candidates to bucket-major offsets: within a
// bucket, task 0's candidates, then task 1's, each task's in increasing
// source index. Phase B orders each bucket by (target, source index)
// without comparing whole keys: a stable counting sort by target (a bucket
// spans bucket_width consecutive targets) leaves each target's candidates
// as at most T runs of increasing source index, and a target whose runs
// interleave is sorted by source alone. Source indices follow rank order,
// so only runs of equal rank at one target need a second sort, by
// (distance, source). Each bucket then replays its candidates, mutating
// only its own targets' keys, k-th keys and outputs. Which task searched
// which source depends on timing; nothing else does: (target, source
// index) is unique, so the replay order, the counters and the output are
// the same for every schedule and every thread count.
void RunPrunedDijkstraPass(const BottomKPass& pass, const ArcHeads* heads,
                           ThreadPool& pool, std::vector<Scratch>& scratch) {
  const uint32_t num_threads = pool.num_threads();
  const uint32_t k = pass.k;
  const NodeId n = pass.gt.num_nodes();
  std::vector<std::pair<double, NodeId>> order;  // (rank, id), increasing
  order.reserve(pass.sources.size());
  for (NodeId u : pass.sources) {
    order.emplace_back(pass.ranks.rank(u, pass.perm), u);
  }
  std::sort(order.begin(), order.end());
  // ADS(v)'s keys fill slots [v * width, (v + 1) * width), padded with
  // kNoKthKey. No list holds more keys than there are sources, so a k past
  // that gets no slots it could never fill, and its lists no k-th key.
  const size_t width = std::min<size_t>(k, order.size());
  std::vector<LexKey> keys(n * width, kNoKthKey);
  std::vector<LexKey> kth(n, kNoKthKey);  // each list's k-th key, once held

  auto search = [&](size_t i, Scratch& sc, const auto& visit) {
    const NodeId u = order[i].second;
    return heads != nullptr ? PrunedBfs(*heads, u, kth, sc, visit)
                            : PrunedDijkstra(pass.gt, u, kth, sc, visit);
  };
  // Inserts source order[i] into ADS(v) at distance d, unless k keys of
  // ADS(v) are closer. Returns whether it did.
  auto insert = [&](NodeId v, double d, size_t i) {
    const LexKey key{d, order[i].second};
    if (kth[v] < key) return false;
    LexKey* kl = keys.data() + v * width;
    LexKey* at = std::lower_bound(kl, kl + width, key);
    std::copy_backward(at, kl + width - 1, kl + width);
    *at = key;
    if (width == k) kth[v] = kl[k - 1];
    pass.out[v].push_back(AdsEntry{order[i].second, pass.part, order[i].first,
                                   d});
    return true;
  };

  const size_t num_buckets = kBucketsPerThread * num_threads;
  const NodeId bucket_width = static_cast<NodeId>(n / num_buckets + 1);
  std::vector<std::vector<WindowCandidate>> task_cands(num_threads);
  std::vector<uint64_t> task_relax(num_threads);
  // Row t holds task t's count per bucket, then its scatter cursors.
  std::vector<size_t> cursor(size_t{num_threads} * num_buckets);
  std::vector<size_t> bucket_begin(num_buckets + 1);
  std::vector<uint64_t> inserted(num_buckets);
  // Bucket b's per-target counts, then cursors, at row b. Only a bucket
  // that holds candidates touches its row, so a window spends at most O(n)
  // on them beyond its candidates, and a build runs O(log n) windows.
  std::vector<size_t> target_at(num_buckets * (size_t{bucket_width} + 1));
  std::vector<WindowCandidate> grouped, replayed;
  for (size_t pos = 0, stop = 0; pos < order.size(); pos = stop) {
    stop = std::min(order.size(), pos + WindowSize(pos, num_threads, k));
    while (stop < order.size() && order[stop].first == order[stop - 1].first) {
      ++stop;
    }
    ++pass.stats.rounds;
    if (stop - pos == 1) {
      pass.stats.relaxations +=
          search(pos, scratch[0], [&](NodeId v, double d) {
            if (insert(v, d, pos)) ++pass.stats.insertions;
          });
      continue;
    }

    // Phase A: frozen-state searches, candidates and bucket counts per task.
    std::atomic<size_t> next_source{pos};
    pool.RunTasks(num_threads, [&](size_t t) {
      std::vector<WindowCandidate>& cands = task_cands[t];
      cands.clear();
      task_relax[t] = 0;
      for (size_t i; (i = next_source.fetch_add(1, std::memory_order_relaxed)) <
                     stop;) {
        task_relax[t] += search(i, scratch[t], [&](NodeId v, double d) {
          cands.push_back(WindowCandidate{v, static_cast<uint32_t>(i), d});
        });
      }
      size_t* count = cursor.data() + t * num_buckets;
      std::fill(count, count + num_buckets, 0);
      for (const WindowCandidate& c : cands) ++count[c.target / bucket_width];
    });
    for (uint64_t relax : task_relax) pass.stats.relaxations += relax;

    // Bucket-major offsets: bucket b holds task 0's candidates for it, then
    // task 1's, and so on.
    size_t total = 0;
    for (size_t b = 0; b < num_buckets; ++b) {
      bucket_begin[b] = total;
      for (uint32_t t = 0; t < num_threads; ++t) {
        size_t& at = cursor[t * num_buckets + b];
        const size_t count = at;
        at = total;
        total += count;
      }
    }
    bucket_begin[num_buckets] = total;
    pass.stats.candidates += total;
    grouped.resize(total);
    replayed.resize(total);
    pool.RunTasks(num_threads, [&](size_t t) {
      size_t* at = cursor.data() + t * num_buckets;
      for (const WindowCandidate& c : task_cands[t]) {
        grouped[at[c.target / bucket_width]++] = c;
      }
    });

    // Phase B: replay the inclusion test per target in (rank, distance, id)
    // order. Equal ranks are consecutive source indices, and a window
    // without any needs no rank lookup at all.
    const bool ties =
        std::adjacent_find(order.begin() + pos, order.begin() + stop,
                           [](const auto& x, const auto& y) {
                             return x.first == y.first;
                           }) != order.begin() + stop;
    pool.RunTasks(num_buckets, [&](size_t b) {
      const size_t begin = bucket_begin[b];
      const size_t end = bucket_begin[b + 1];
      inserted[b] = 0;
      if (begin == end) return;
      // Stable counting sort by target into `replayed`: at[j + 1] counts
      // target base + j, then at[j] is where its next candidate goes, and
      // after the scatter at[j] ends its range.
      const NodeId base = static_cast<NodeId>(b) * bucket_width;
      size_t* at = target_at.data() + b * (size_t{bucket_width} + 1);
      std::fill(at, at + bucket_width + 1, 0);
      for (size_t i = begin; i < end; ++i) ++at[grouped[i].target - base + 1];
      at[0] = begin;
      for (NodeId j = 1; j <= bucket_width; ++j) at[j] += at[j - 1];
      for (size_t i = begin; i < end; ++i) {
        replayed[at[grouped[i].target - base]++] = grouped[i];
      }
      auto first = replayed.begin() + begin;
      auto last = replayed.begin() + end;
      // Each target's candidates are the tasks' runs, one after another,
      // each in increasing source index; a hub's runs interleave.
      const auto by_src = [](const WindowCandidate& x,
                             const WindowCandidate& y) {
        return x.src < y.src;
      };
      size_t from = 0;
      for (NodeId j = 0; j < bucket_width; ++j) {
        const size_t to = at[j] - begin;
        if (!std::is_sorted(first + from, first + to, by_src)) {
          std::sort(first + from, first + to, by_src);
        }
        from = to;
      }
      for (auto run = first; ties && run != last;) {
        auto run_end = run + 1;
        while (run_end != last && run_end->target == run->target &&
               order[run_end->src].first == order[run->src].first) {
          ++run_end;
        }
        std::sort(run, run_end,
                  [](const WindowCandidate& x, const WindowCandidate& y) {
                    return x.dist != y.dist ? x.dist < y.dist : x.src < y.src;
                  });
        run = run_end;
      }
      uint64_t count = 0;
      for (; first != last; ++first) {
        if (insert(first->target, first->dist, first->src)) ++count;
      }
      inserted[b] = count;
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
  const bool unit_weight = g.IsUnitWeight();
  std::vector<Scratch> scratch(pool.num_threads(),
                               Scratch(g.num_nodes(), unit_weight));
  std::optional<ArcHeads> heads;  // every pass searches the same transpose
  return BuildAdsFromPasses(g, k, flavor, ranks, stats, pool,
                            [&](const BottomKPass& pass) {
                              if (unit_weight && !heads) heads.emplace(pass.gt);
                              RunPrunedDijkstraPass(
                                  pass, heads ? &*heads : nullptr, pool,
                                  scratch);
                            });
}

AdsSet BuildAdsPrunedDijkstra(const Graph& g, uint32_t k, SketchFlavor flavor,
                              const RankAssignment& ranks,
                              AdsBuildStats* stats) {
  return BuildAdsPrunedDijkstraParallel(g, k, flavor, ranks,
                                        /*num_threads=*/1, stats);
}

}  // namespace hipads
