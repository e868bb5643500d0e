#include "ads/sweep.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>

#include "util/metrics.h"
#include "util/parallel.h"

namespace hipads {

namespace {

// Sweep volume counters (counts only — HL001/HL006 keep wall-clock
// instruments out of src/ads). Totals are thread-count invariant: nodes
// is added once per arena, entries accumulate per chunk but sum to the
// same per-node total under any chunk decomposition.
struct SweepCounters {
  MetricCounter* nodes;
  MetricCounter* entries;
};
SweepCounters& Counters() {
  static SweepCounters c{MetricsRegistry::Get().Counter("ads.sweep.nodes"),
                         MetricsRegistry::Get().Counter("ads.sweep.entries")};
  return c;
}

// One backend range as the executor sees it: the range's arena view plus
// the sketch parameters every node's HIP scan needs (node ids local to the
// range). Every backend — flat, mmap, sharded — is swept through this one
// shape, which is what makes results bitwise identical across engines.
struct ArenaSet {
  AdsArenaView arena;
  SketchFlavor flavor;
  uint32_t k;
  const RankAssignment& ranks;
  size_t num_nodes() const { return arena.num_nodes(); }
};

// The slot the calling thread publishes to collectors (SweepSlot).
struct SlotState {
  uint32_t slot = 0;
  uint32_t count = 1;
};
thread_local SlotState tl_slot;

// Publishes (slot, count) for the enclosing scope and restores the
// previous value on exit, so nested sweeps on one thread compose.
struct ScopedSlot {
  ScopedSlot(uint32_t slot, uint32_t count)
      : saved(std::exchange(tl_slot, SlotState{slot, count})) {}
  ~ScopedSlot() { tl_slot = saved; }
  SlotState saved;
};

// The plan as the one walk per node runs it, classified once per sweep:
// the distinct declared sums, which sum each declaring collector's values
// take, the declared histogram folds, and the collectors left to Map.
struct FusedPlan {
  struct Output {
    size_t sum;  // index into sums
    double* values;
  };
  std::vector<HipSum> sums;
  std::vector<Output> outputs;
  std::vector<DistanceHistogramCollector*> histograms;
  std::vector<SweepCollector*> mapped;

  bool walks() const { return !sums.empty() || !histograms.empty(); }
};

FusedPlan Classify(const SweepPlan& plan) {
  FusedPlan fused;
  for (SweepCollector* c : plan.collectors()) {
    SweepFold fold = c->Declared();
    if (fold.sum.has_value()) {
      size_t i = 0;
      while (i < fused.sums.size() && !fused.sums[i].SameAs(*fold.sum)) ++i;
      if (i == fused.sums.size()) fused.sums.push_back(*fold.sum);
      fused.outputs.push_back({i, fold.values});
    } else if (fold.histogram != nullptr) {
      fused.histograms.push_back(fold.histogram);
    } else {
      fused.mapped.push_back(c);
    }
  }
  return fused;
}

// The one walk over a node's entries: HipEstimator::WalkSums adds every
// declared sum's terms, each from 0.0 in entry order as Sum does alone,
// and hands each run of equal distance to every histogram's fold.
void Walk(const HipEstimator& est, const FusedPlan& fused,
          std::vector<HipSumState>& sums) {
  est.WalkSums(fused.sums, sums,
               [&fused](double d, std::span<const double> tau,
                        std::span<const double> weight) {
                 for (DistanceHistogramCollector* h : fused.histograms) {
                   h->FoldRun(d, tau, weight);
                 }
                 return !fused.histograms.empty();  // they fold every run
               });
}

// The fused sweep over one arena: the pool's chunks (cut at equal entry
// counts, one per thread) each build their nodes' HipEstimators once —
// wrapping the range's stored weights, or scanning into the chunk's
// reusable scratch when it has none — walk each node's entries once for
// every declared fold, and feed the remaining collectors' Map, under the
// chunk's slot. Each estimator lives just long enough for that, so a
// sweep holds O(threads) estimators whatever the plan. `global_begin`
// offsets the arena-local node ids so a sharded backend's ranges chain
// seamlessly.
void SweepArena(const ArenaSet& set, NodeId global_begin,
                const FusedPlan& fused, ThreadPool& pool,
                std::vector<HipScratch>& scratch) {
  size_t n = set.num_nodes();
  Counters().nodes->Add(n);
  std::vector<size_t> bounds =
      EntryBalancedRanges(set.arena.offsets, n, pool.num_threads());
  pool.ParallelRanges(bounds, [&](size_t begin, size_t end, uint32_t chunk) {
    ScopedSlot slot(chunk, pool.num_threads());
    std::vector<HipSumState> sums(fused.sums.size());
    uint64_t chunk_entries = 0;
    for (size_t i = begin; i < end; ++i) {
      NodeId local = static_cast<NodeId>(i);
      NodeId v = global_begin + local;
      AdsView ads = set.arena.of_local(local);
      chunk_entries += ads.size();
      HipEstimator est(ads, set.arena.hip_of_local(local), set.k, set.flavor,
                       set.ranks, &scratch[chunk]);
      if (fused.walks()) {
        Walk(est, fused, sums);
        for (const FusedPlan::Output& out : fused.outputs) {
          out.values[v] = sums[out.sum].value;
        }
      }
      for (SweepCollector* c : fused.mapped) c->Map(v, est);
    }
    Counters().entries->Add(chunk_entries);
  });
}

}  // namespace

SweepCollector::~SweepCollector() = default;
void SweepCollector::Begin(size_t /*num_nodes*/) {}
void SweepCollector::Map(NodeId /*v*/, const HipEstimator& /*est*/) {}
SweepFold SweepCollector::Declared() { return SweepFold{}; }
void SweepCollector::Reduce(NodeId /*first*/,
                            std::span<const HipEstimator> /*ests*/) {}
bool SweepCollector::NeedsReduce() const { return false; }

Status SweepCollector::EncodePartial(NodeId /*begin*/, NodeId /*end*/,
                                     std::string* /*out*/) const {
  return Status::InvalidArgument(
      "collector does not support distributed partial state");
}

Status SweepCollector::AbsorbPartial(NodeId /*begin*/, NodeId /*end*/,
                                     std::string_view /*data*/) {
  return Status::InvalidArgument(
      "collector does not support distributed partial state");
}

PerNodeCollector::PerNodeCollector(HipSum sum)
    : fn_([sum](const HipEstimator& est) { return est.Sum(sum); }),
      sum_(sum) {}

void PerNodeCollector::Begin(size_t num_nodes) {
  values_.assign(num_nodes, 0.0);
}

void PerNodeCollector::Map(NodeId v, const HipEstimator& est) {
  values_[v] = fn_(est);
}

SweepFold PerNodeCollector::Declared() {
  SweepFold fold;
  if (sum_.has_value()) {
    fold.sum = sum_;
    fold.values = values_.data();
  }
  return fold;
}

Status PerNodeCollector::EncodePartial(NodeId begin, NodeId end,
                                       std::string* out) const {
  if (begin > end || end > values_.size()) {
    return Status::InvalidArgument("partial range outside collected nodes");
  }
  out->clear();
  if (begin < end) {
    out->assign(reinterpret_cast<const char*>(values_.data() + begin),
                (end - begin) * sizeof(double));
  }
  return Status::Ok();
}

Status PerNodeCollector::AbsorbPartial(NodeId begin, NodeId end,
                                       std::string_view data) {
  if (begin > end || end > values_.size()) {
    return Status::InvalidArgument("partial range outside collected nodes");
  }
  size_t count = end - begin;
  if (data.size() != count * sizeof(double)) {
    return Status::Corruption("per-node partial size does not match range");
  }
  if (!data.empty()) {
    std::memcpy(values_.data() + begin, data.data(), data.size());
  }
  return Status::Ok();
}

ClosenessCollector::ClosenessCollector(std::function<double(double)> alpha,
                                       std::function<double(NodeId)> beta)
    : PerNodeCollector(
          [alpha = std::move(alpha),
           beta = std::move(beta)](const HipEstimator& est) {
            return est.Closeness(alpha, beta);
          }) {}

DistanceSumCollector::DistanceSumCollector()
    : PerNodeCollector(HipSum::DistanceSum()) {}

HarmonicCentralityCollector::HarmonicCentralityCollector()
    : PerNodeCollector(HipSum::Harmonic()) {}

NeighborhoodSizeCollector::NeighborhoodSizeCollector(double d)
    : PerNodeCollector(HipSum::Neighborhood(d)) {}

ReachableCountCollector::ReachableCountCollector()
    : PerNodeCollector(HipSum::Reachable()) {}

DistanceQuantileCollector::DistanceQuantileCollector(double q)
    : PerNodeCollector([q](const HipEstimator& est) {
        return est.DistanceQuantile(q);
      }) {}

QgCollector::QgCollector(std::function<double(NodeId, double)> g)
    : PerNodeCollector([g = std::move(g)](const HipEstimator& est) {
        return est.Qg(g);
      }) {}

std::vector<NodeId> TopKNodes(const std::vector<double>& scores,
                              uint32_t count) {
  std::vector<NodeId> order(scores.size());
  for (NodeId v = 0; v < scores.size(); ++v) order[v] = v;
  uint32_t take = std::min<uint32_t>(count, order.size());
  std::partial_sort(order.begin(), order.begin() + take, order.end(),
                    [&scores](NodeId a, NodeId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  order.resize(take);
  return order;
}

std::vector<NodeId> TopKCollector::TopNodes() const {
  return TopKNodes(values(), count_);
}

uint32_t SweepSlot() { return tl_slot.slot; }
uint32_t SweepSlotCount() { return tl_slot.count; }

void DistanceHistogramCollector::Begin(size_t /*num_nodes*/) {
  slots_.assign(SweepSlotCount(), Sums());
}

SweepFold DistanceHistogramCollector::Declared() {
  SweepFold fold;
  fold.histogram = this;
  return fold;
}

void DistanceHistogramCollector::FoldRun(double dist,
                                         std::span<const double> tau,
                                         std::span<const double> weight) {
  if (!(dist > 0.0)) return;
  assert(SweepSlot() < slots_.size());
  ExactSum* cell = nullptr;  // looked up at the run's first HIP entry
  for (size_t j = 0; j < tau.size(); ++j) {
    if (tau[j] == 0.0) continue;
    if (cell == nullptr) cell = &slots_[SweepSlot()][dist];
    cell->Add(weight[j]);
  }
}

void DistanceHistogramCollector::Map(NodeId /*v*/, const HipEstimator& est) {
  est.WalkSums({}, {},
               [this](double d, std::span<const double> tau,
                      std::span<const double> weight) {
                 FoldRun(d, tau, weight);
                 return true;
               });
}

template <typename Fn>
void DistanceHistogramCollector::ForEachMerged(Fn&& fn) const {
  // A k-way merge over the slots' sorted maps. A distance that several
  // slots hold is merged exactly into one accumulator, so which slot
  // folded which node cannot show in the sums, and reading allocates
  // nothing sized by the distance count.
  std::vector<std::pair<Sums::const_iterator, Sums::const_iterator>> live;
  for (const Sums& sums : slots_) live.emplace_back(sums.begin(), sums.end());
  ExactSum merged;
  for (;;) {
    std::erase_if(live, [](const auto& c) { return c.first == c.second; });
    if (live.empty()) return;
    double dist = live.front().first->first;
    for (const auto& c : live) dist = std::min(dist, c.first->first);
    const ExactSum* sum = nullptr;
    for (auto& c : live) {
      if (c.first->first != dist) continue;
      if (sum == nullptr) {
        sum = &c.first->second;  // one slot's cell is read in place
      } else {
        if (sum != &merged) merged = *sum;
        merged.Merge(c.first->second);
        sum = &merged;
      }
      ++c.first;
    }
    fn(dist, *sum);
  }
}

Status DistanceHistogramCollector::EncodePartial(NodeId /*begin*/,
                                                 NodeId /*end*/,
                                                 std::string* out) const {
  // u64 distance count, then per distance: f64 dist + the exact sum's
  // digit window. O(distinct distances), not O(HIP entries).
  uint64_t count = 0;
  out->assign(sizeof(count), '\0');  // patched once the merge has counted
  ForEachMerged([&](double dist, const ExactSum& sum) {
    out->append(reinterpret_cast<const char*>(&dist), sizeof(double));
    sum.EncodeTo(out);
    ++count;
  });
  std::memcpy(out->data(), &count, sizeof(count));
  return Status::Ok();
}

Status DistanceHistogramCollector::AbsorbPartial(NodeId /*begin*/,
                                                 NodeId /*end*/,
                                                 std::string_view data) {
  if (data.size() < sizeof(uint64_t)) {
    return Status::Corruption("histogram partial shorter than its header");
  }
  uint64_t count;
  std::memcpy(&count, data.data(), sizeof(count));
  data.remove_prefix(sizeof(count));
  // Every entry needs at least the distance plus an empty digit window, so
  // an absurd count is rejected before any allocation.
  if (count > data.size() / (sizeof(double) + ExactSum::kWireHeaderBytes)) {
    return Status::Corruption("histogram partial count exceeds payload");
  }
  // Exact merges commute, but the absorbed bytes come from the network:
  // stage into a scratch map and install only if the whole partial parses,
  // so a corrupt tail cannot leave half-merged state behind.
  Sums staged;
  double prev = 0.0;
  for (uint64_t i = 0; i < count; ++i) {
    if (data.size() < sizeof(double)) {
      return Status::Corruption("histogram partial entry truncated");
    }
    double dist;
    std::memcpy(&dist, data.data(), sizeof(double));
    data.remove_prefix(sizeof(double));
    if (!(dist > 0.0) || !std::isfinite(dist) || !(dist > prev)) {
      return Status::Corruption("histogram partial distance out of domain");
    }
    prev = dist;
    size_t consumed = 0;
    if (!staged[dist].DecodeAndMerge(data, &consumed)) {
      return Status::Corruption("histogram partial accumulator malformed");
    }
    data.remove_prefix(consumed);
  }
  if (!data.empty()) {
    return Status::Corruption("histogram partial has trailing bytes");
  }
  for (const auto& [dist, sum] : staged) slots_.front()[dist].Merge(sum);
  return Status::Ok();
}

std::map<double, double> DistanceHistogramCollector::Distribution() const {
  std::map<double, double> hist;
  ForEachMerged([&hist](double dist, const ExactSum& sum) {
    hist.emplace_hint(hist.end(), dist, sum.Round());
  });
  return hist;
}

std::map<double, double> DistanceHistogramCollector::NeighborhoodFunction()
    const {
  std::map<double, double> nf = Distribution();
  double running = 0.0;
  for (auto& [d, value] : nf) {
    running += value;
    value = running;
  }
  return nf;
}

double DistanceHistogramCollector::EffectiveDiameter(double quantile) const {
  std::map<double, double> nf = NeighborhoodFunction();
  if (nf.empty()) return 0.0;
  double total = nf.rbegin()->second;
  for (const auto& [d, pairs] : nf) {
    if (pairs >= quantile * total) return d;
  }
  return nf.rbegin()->first;
}

double DistanceHistogramCollector::MeanDistance() const {
  double weight = 0.0, weighted_dist = 0.0;
  for (const auto& [d, pairs] : Distribution()) {
    weight += pairs;
    weighted_dist += d * pairs;
  }
  return weight > 0.0 ? weighted_dist / weight : 0.0;
}

SweepPlan& SweepPlan::Add(SweepCollector* collector) {
  collectors_.push_back(collector);
  return *this;
}

void RunSweep(const FlatAdsSet& set, SweepPlan& plan, uint32_t num_threads) {
  // One in-memory range: the backend sweep cannot fail.
  (void)RunSweep(FlatAdsBackend(&set), plan, num_threads);
}

Status RunSweep(const AdsBackend& set, SweepPlan& plan, uint32_t num_threads,
                const std::function<Status()>& checkpoint) {
  if (plan.empty()) return Status::Ok();
  ThreadPool pool(num_threads);
  FusedPlan fused;
  {
    ScopedSlot slot(0, pool.num_threads());
    for (SweepCollector* c : plan.collectors()) c->Begin(set.num_nodes());
    fused = Classify(plan);
  }
  std::vector<HipScratch> scratch(pool.num_threads());  // one per chunk
  for (uint32_t r = 0; r < set.NumRanges(); ++r) {
    if (checkpoint) {
      Status abort = checkpoint();
      if (!abort.ok()) return abort;
    }
    auto range = set.Range(r);
    if (!range.ok()) return range.status();
    if (r + 1 < set.NumRanges()) set.Prefetch(r + 1);
    ArenaSet arena{range.value(), set.flavor(), set.k(), set.ranks()};
    SweepArena(arena, range.value().begin, fused, pool, scratch);
  }
  return Status::Ok();
}

}  // namespace hipads
