// Algorithm 2: node-centric ADS construction by local update propagation,
// simulated in synchronous rounds (the MapReduce / Pregel execution model
// the paper targets).
//
// Unlike the other builders, entries here are tentative: a node may insert
// an entry and later delete it (clean-up) when k closer entries of no
// larger rank arrive, or shrink an entry's distance when a shorter path is
// discovered. With epsilon == 0 the result is the exact canonical ADS set;
// with epsilon > 0 it is a (1+epsilon)-approximate ADS set, which provably
// caps the update overhead (Section 3).

#include <algorithm>
#include <cassert>

#include "ads/builder_driver.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace hipads {

namespace {

struct Message {
  NodeId target;
  NodeId node;
  uint32_t part;
  double rank;
  double dist;
};

// Mutable per-node ADS state for one pass: entries sorted by (dist, rank).
using EntryList = std::vector<AdsEntry>;

// True iff entry `a` is closer than the key (dist, node) under the
// canonical tie-broken order, with the (1+epsilon) slack deflating `a`'s
// distance requirement where a strict comparison is involved.
bool LexCloser(const AdsEntry& a, double dist, NodeId node, double slack) {
  if (a.dist * slack < dist) return true;
  return a.dist <= dist && (a.dist < dist || a.node < node);
}

// Removes entries dominated by >= k closer entries. An entry e is dominated
// by ke iff ke.rank <= e.rank and ke is closer under the tie-broken
// (distance, node id) order: equal ranks count, as in the insertion test
// and in Ads::CanonicalBottomK. In exact mode (slack == 1) this
// recanonicalizes the list; with slack > 1 eviction requires dominators to
// be decisively closer (ke.dist * slack <= e.dist), preserving the
// (1+epsilon)-approximate invariant.
size_t CleanUp(EntryList& entries, uint32_t k, double slack) {
  std::sort(entries.begin(), entries.end(), AdsEntryCloser);
  EntryList kept;
  kept.reserve(entries.size());
  size_t removed = 0;
  for (const AdsEntry& e : entries) {
    size_t dominators = 0;
    for (const AdsEntry& ke : kept) {
      bool closer = slack == 1.0
                        ? LexCloser(ke, e.dist, e.node, 1.0)
                        : ke.dist * slack <= e.dist;
      if (closer && ke.rank <= e.rank) ++dominators;
    }
    if (dominators >= k) {
      ++removed;
    } else {
      kept.push_back(e);
    }
  }
  entries = std::move(kept);
  return removed;
}

// Processes the sorted messages [begin, end) of one round — a range that
// never splits a target's group. Mutates only ads[t] for targets t inside
// the range, appends propagations to `outbox` and counts its insertions and
// deletions in `counters`, so disjoint chunks are independent: running them
// on pool threads replays exactly the one-thread per-target decisions.
void ProcessMessages(const Graph& gt, uint32_t k, uint32_t part,
                     const RankAssignment& ranks, double slack,
                     const std::vector<Message>& inbox, size_t begin,
                     size_t end, std::vector<EntryList>& ads,
                     std::vector<Message>& outbox, AdsBuildStats& counters) {
  for (size_t idx = begin; idx < end; ++idx) {
    const Message& m = inbox[idx];
    EntryList& list = ads[m.target];
    // Existing entry for this node?
    size_t existing = list.size();
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].node == m.node) {
        existing = i;
        break;
      }
    }
    if (existing < list.size() && list[existing].dist <= m.dist) {
      continue;  // already known at an equal or shorter distance
    }
    // Insertion test: rank must beat the kth smallest rank among entries
    // that are closer under the tie-broken order (with the approximate
    // mode's distance slack making "closer" more inclusive, i.e.
    // insertion harder).
    BottomKSketch thr(k, ranks.sup());
    for (size_t i = 0; i < list.size(); ++i) {
      if (i == existing) continue;  // ignore the entry being replaced
      const AdsEntry& e = list[i];
      if (e.dist <= m.dist * slack &&
          (e.dist > m.dist || LexCloser(e, m.dist, m.node, 1.0))) {
        thr.Update(e.rank);
      }
    }
    if (m.rank >= thr.Threshold()) continue;
    // Accept: replace or insert, clean up, propagate.
    if (existing < list.size()) {
      list.erase(list.begin() + static_cast<ptrdiff_t>(existing));
      ++counters.deletions;
    }
    list.push_back(AdsEntry{m.node, part, m.rank, m.dist});
    ++counters.insertions;
    counters.deletions += CleanUp(list, k, slack);
    // The inserted entry may itself have been removed by clean-up only if
    // it was dominated, which the insertion test excludes; propagate it.
    for (const Arc& a : gt.OutArcs(m.target)) {
      outbox.push_back(Message{a.head, m.node, part, m.rank,
                               m.dist + a.weight});
    }
  }
}

// One pass of the synchronous simulation. Each round's messages are
// processed in target-aligned chunks on the pool (inline on a one-thread
// pool); chunk outboxes are concatenated in chunk order and re-sorted
// canonically next round, so the output (and every work counter) is the
// same for any thread count.
void RunLocalUpdatesPass(const BottomKPass& pass, double epsilon,
                         ThreadPool& pool) {
  NodeId n = pass.gt.num_nodes();
  double slack = 1.0 + epsilon;
  std::vector<EntryList> ads(n);
  std::vector<Message> inbox;

  // Initialization: each source holds itself at distance 0 and announces it.
  for (NodeId v : pass.sources) {
    double rv = pass.ranks.rank(v, pass.perm);
    ads[v].push_back(AdsEntry{v, pass.part, rv, 0.0});
    ++pass.stats.insertions;
    for (const Arc& a : pass.gt.OutArcs(v)) {
      inbox.push_back(Message{a.head, v, pass.part, rv, a.weight});
    }
  }

  while (!inbox.empty()) {
    ++pass.stats.rounds;
    pass.stats.relaxations += inbox.size();
    // Process this round's messages grouped by target, in canonical order so
    // that ties resolve deterministically. The sort key is total over
    // distinct updates (messages equal on (target, dist, node) are fully
    // identical — rank and part are functions of the node within a pass),
    // so the sorted order does not depend on the producing chunk order.
    std::sort(inbox.begin(), inbox.end(),
              [](const Message& a, const Message& b) {
                if (a.target != b.target) return a.target < b.target;
                if (a.dist != b.dist) return a.dist < b.dist;
                return a.node < b.node;
              });
    std::vector<size_t> bounds =
        TargetAlignedBounds(inbox, pool.num_threads());
    size_t chunks = bounds.size() - 1;
    std::vector<std::vector<Message>> outboxes(chunks);
    std::vector<AdsBuildStats> chunk_counted(chunks);
    pool.ParallelRanges(bounds, [&](size_t begin, size_t end, uint32_t c) {
      ProcessMessages(pass.gt, pass.k, pass.part, pass.ranks, slack, inbox,
                      begin, end, ads, outboxes[c], chunk_counted[c]);
    });
    inbox.clear();
    for (size_t c = 0; c < chunks; ++c) {
      inbox.insert(inbox.end(), outboxes[c].begin(), outboxes[c].end());
      pass.stats.insertions += chunk_counted[c].insertions;
      pass.stats.deletions += chunk_counted[c].deletions;
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    pass.out[v].insert(pass.out[v].end(), ads[v].begin(), ads[v].end());
  }
}

}  // namespace

AdsSet BuildAdsLocalUpdates(const Graph& g, uint32_t k, SketchFlavor flavor,
                            const RankAssignment& ranks, double epsilon,
                            AdsBuildStats* stats) {
  return BuildAdsLocalUpdatesParallel(g, k, flavor, ranks, epsilon,
                                      /*num_threads=*/1, stats);
}

AdsSet BuildAdsLocalUpdatesParallel(const Graph& g, uint32_t k,
                                    SketchFlavor flavor,
                                    const RankAssignment& ranks,
                                    double epsilon, uint32_t num_threads,
                                    AdsBuildStats* stats) {
  assert(epsilon >= 0.0);
  ThreadPool pool(num_threads);
  return BuildAdsFromPasses(g, k, flavor, ranks, stats, pool,
                            [&](const BottomKPass& pass) {
                              RunLocalUpdatesPass(pass, epsilon, pool);
                            });
}

AdsSet BuildAdsReference(const Graph& g, uint32_t k, SketchFlavor flavor,
                         const RankAssignment& ranks) {
  NodeId n = g.num_nodes();
  AdsSet set;
  set.flavor = flavor;
  set.k = k;
  set.ranks = ranks;
  set.ads.resize(n);
  // Distances from every node via repeated single-source computations on g.
  for (NodeId v = 0; v < n; ++v) {
    std::vector<double> dist = ShortestPathDistances(g, v);
    std::vector<AdsEntry> candidates;
    for (NodeId u = 0; u < n; ++u) {
      if (dist[u] == kInfDist) continue;
      switch (flavor) {
        case SketchFlavor::kBottomK:
          candidates.push_back(AdsEntry{u, 0, ranks.rank(u, 0), dist[u]});
          break;
        case SketchFlavor::kKMins:
          for (uint32_t p = 0; p < k; ++p) {
            candidates.push_back(AdsEntry{u, p, ranks.rank(u, p), dist[u]});
          }
          break;
        case SketchFlavor::kKPartition:
          candidates.push_back(AdsEntry{
              u, BucketHash(ranks.seed(), u, k), ranks.rank(u, 0), dist[u]});
          break;
      }
    }
    switch (flavor) {
      case SketchFlavor::kBottomK:
        set.ads[v] = Ads::CanonicalBottomK(std::move(candidates), k,
                                           ranks.sup());
        break;
      case SketchFlavor::kKMins: {
        // k independent bottom-1 filters, one per rank assignment.
        std::vector<AdsEntry> kept;
        for (uint32_t p = 0; p < k; ++p) {
          std::vector<AdsEntry> per;
          for (const AdsEntry& e : candidates) {
            if (e.part == p) per.push_back(e);
          }
          Ads filtered = Ads::CanonicalBottomK(std::move(per), 1,
                                               ranks.sup());
          kept.insert(kept.end(), filtered.entries().begin(),
                      filtered.entries().end());
        }
        set.ads[v] = Ads(std::move(kept));
        break;
      }
      case SketchFlavor::kKPartition: {
        std::vector<AdsEntry> kept;
        for (uint32_t h = 0; h < k; ++h) {
          std::vector<AdsEntry> per;
          for (const AdsEntry& e : candidates) {
            if (e.part == h) per.push_back(e);
          }
          Ads filtered = Ads::CanonicalBottomK(std::move(per), 1,
                                               ranks.sup());
          kept.insert(kept.end(), filtered.entries().begin(),
                      filtered.entries().end());
        }
        set.ads[v] = Ads(std::move(kept));
        break;
      }
    }
  }
  return set;
}

}  // namespace hipads
