#include "ads/sweep.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

// Nodes per executor block: large enough to amortize pool scheduling,
// small enough to bound the block's live HipEstimator buffers (a block's
// estimators are reduced and recycled before the next block starts). The
// value does not affect results — per-node outputs are independent and
// the Reduce phase folds nodes in node order across block boundaries.
constexpr size_t kSweepBlock = 4096;

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

// One node's estimator, cheapest mode first: wrap the storage-resident
// weights when present (no scan, no allocation), otherwise scan into the
// caller's reusable scratch (no allocation after warm-up). Both modes are
// bitwise identical to each other and to the old allocating constructor.
HipEstimator MakeEstimator(const ArenaSet& set, NodeId local,
                           HipScratch* scratch) {
  HipView hip = set.arena.hip_of_local(local);
  if (hip.present()) {
    return HipEstimator(set.arena.of_local(local), hip.tau, hip.weight);
  }
  return HipEstimator(set.arena.of_local(local), set.k, set.flavor,
                      set.ranks, scratch);
}

// Reusable executor state, alive across the ranges of a backend sweep:
// the reduce path's block of estimators plus the per-slot scratches that
// back their scan fallback, and the no-reduce path's per-chunk scratches.
struct SweepBuffers {
  std::vector<HipEstimator> block;
  std::vector<HipScratch> block_scratch;  // parallel to `block`
  std::vector<HipScratch> chunk_scratch;  // indexed by ParallelFor chunk
};

bool AnyNeedsReduce(const SweepPlan& plan) {
  for (SweepCollector* c : plan.collectors()) {
    if (c->NeedsReduce()) return true;
  }
  return false;
}

// The fused sweep over one arena: per block, construct each node's
// HipEstimator once (in parallel, outputs indexed by block slot), feed
// every collector's Map from it, then hand the block's estimators to
// every collector's Reduce in node order. When no collector reduces, the
// block buffer is skipped entirely: each estimator lives on the stack
// just long enough for the Map calls, so a plan of per-node collectors
// sweeps with O(threads) peak memory instead of O(block). `global_begin`
// offsets the arena-local node ids so a sharded backend's ranges chain
// seamlessly.
void SweepArena(const ArenaSet& set, NodeId global_begin, SweepPlan& plan,
                ThreadPool& pool, SweepBuffers& buffers) {
  size_t n = set.num_nodes();
  Counters().nodes->Add(n);
  if (!AnyNeedsReduce(plan)) {
    // Each chunk reuses one scratch: the estimator is consumed by the Map
    // calls before the next node's scan overwrites the scratch. Chunk
    // decomposition is static, so scratch reuse cannot change results.
    if (buffers.chunk_scratch.size() < pool.num_threads()) {
      buffers.chunk_scratch.resize(pool.num_threads());
    }
    pool.ParallelFor(n, [&](size_t begin, size_t end, uint32_t chunk) {
      HipScratch& scratch = buffers.chunk_scratch[chunk];
      uint64_t chunk_entries = 0;
      for (size_t i = begin; i < end; ++i) {
        NodeId local = static_cast<NodeId>(i);
        NodeId v = global_begin + local;
        chunk_entries += set.arena.of_local(local).size();
        HipEstimator est = MakeEstimator(set, local, &scratch);
        for (SweepCollector* c : plan.collectors()) c->Map(v, est);
      }
      Counters().entries->Add(chunk_entries);
    });
    return;
  }
  std::vector<HipEstimator>& block = buffers.block;
  for (size_t block_begin = 0; block_begin < n; block_begin += kSweepBlock) {
    size_t count = std::min(n - block_begin, kSweepBlock);
    if (block.size() < count) block.resize(count);
    if (buffers.block_scratch.size() < count) {
      buffers.block_scratch.resize(count);
    }
    pool.ParallelFor(count, [&](size_t begin, size_t end, uint32_t) {
      uint64_t chunk_entries = 0;
      for (size_t i = begin; i < end; ++i) {
        NodeId local = static_cast<NodeId>(block_begin + i);
        NodeId v = global_begin + local;
        chunk_entries += set.arena.of_local(local).size();
        // A block's estimators stay live until Reduce, so each slot needs
        // its own scratch (reused across blocks — allocation-free once
        // warm). Slots are block-indexed, never thread-indexed.
        block[i] = MakeEstimator(set, local, &buffers.block_scratch[i]);
        for (SweepCollector* c : plan.collectors()) c->Map(v, block[i]);
      }
      Counters().entries->Add(chunk_entries);
    });
    std::span<const HipEstimator> ests(block.data(), count);
    for (SweepCollector* c : plan.collectors()) {
      c->Reduce(global_begin + static_cast<NodeId>(block_begin), ests);
    }
  }
}

}  // namespace

SweepCollector::~SweepCollector() = default;
void SweepCollector::Begin(size_t /*num_nodes*/) {}
void SweepCollector::Map(NodeId /*v*/, const HipEstimator& /*est*/) {}
void SweepCollector::Reduce(NodeId /*first*/,
                            std::span<const HipEstimator> /*ests*/) {}
bool SweepCollector::NeedsReduce() const { return true; }

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

void PerNodeCollector::Begin(size_t num_nodes) {
  values_.assign(num_nodes, 0.0);
}

void PerNodeCollector::Map(NodeId v, const HipEstimator& est) {
  values_[v] = fn_(est);
}

bool PerNodeCollector::NeedsReduce() const { return false; }

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
    : PerNodeCollector(
          [](const HipEstimator& est) { return est.DistanceSum(); }) {}

HarmonicCentralityCollector::HarmonicCentralityCollector()
    : PerNodeCollector([](const HipEstimator& est) {
        return est.HarmonicCentrality();
      }) {}

NeighborhoodSizeCollector::NeighborhoodSizeCollector(double d)
    : PerNodeCollector([d](const HipEstimator& est) {
        return est.NeighborhoodCardinality(d);
      }) {}

ReachableCountCollector::ReachableCountCollector()
    : PerNodeCollector(
          [](const HipEstimator& est) { return est.ReachableCount(); }) {}

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

void DistanceHistogramCollector::Begin(size_t /*num_nodes*/) {
  acc_.clear();
}

void DistanceHistogramCollector::Fold(double dist, double weight) {
  acc_[dist].Add(weight);
}

void DistanceHistogramCollector::Reduce(NodeId /*first*/,
                                        std::span<const HipEstimator> ests) {
  // Node-order fold of each node's HIP entries. Accumulation is exact, so
  // the order is immaterial to results; keeping the fold in the
  // sequential Reduce phase is what makes the shared acc_ map safe.
  for (const HipEstimator& est : ests) {
    est.ForEachEntry([this](const HipEntry& e) {
      if (e.dist > 0.0) Fold(e.dist, e.weight);
    });
  }
}

Status DistanceHistogramCollector::EncodePartial(NodeId /*begin*/,
                                                 NodeId /*end*/,
                                                 std::string* out) const {
  // u64 distance count, then per distance: f64 dist + the exact sum's
  // digit window. O(distinct distances), not O(HIP entries).
  out->clear();
  uint64_t count = acc_.size();
  out->append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& [dist, sum] : acc_) {
    out->append(reinterpret_cast<const char*>(&dist), sizeof(double));
    sum.EncodeTo(out);
  }
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
  std::map<double, ExactSum> staged;
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
  for (const auto& [dist, sum] : staged) acc_[dist].Merge(sum);
  return Status::Ok();
}

std::map<double, double> DistanceHistogramCollector::Distribution() const {
  std::map<double, double> hist;
  for (const auto& [dist, sum] : acc_) {
    hist.emplace_hint(hist.end(), dist, sum.Round());
  }
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
  for (SweepCollector* c : plan.collectors()) c->Begin(set.num_nodes());
  if (plan.empty()) return Status::Ok();
  ThreadPool pool(num_threads);
  SweepBuffers buffers;
  for (uint32_t r = 0; r < set.NumRanges(); ++r) {
    if (checkpoint) {
      Status abort = checkpoint();
      if (!abort.ok()) return abort;
    }
    auto range = set.Range(r);
    if (!range.ok()) return range.status();
    if (r + 1 < set.NumRanges()) set.Prefetch(r + 1);
    ArenaSet arena{range.value(), set.flavor(), set.k(), set.ranks()};
    SweepArena(arena, range.value().begin, plan, pool, buffers);
  }
  return Status::Ok();
}

}  // namespace hipads
