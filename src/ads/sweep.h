// The fused sweep-execution engine: one backend pass for many estimators.
//
// Every workload that motivated ADSs (paper Section 1 — neighbourhood
// functions, closeness/harmonic centralities, distance statistics) is a
// per-node reduction over the same sketch data: visit each node once,
// build its HIP estimator, fold a value into a result. Running K such
// statistics as K separate whole-graph queries costs K backend sweeps
// (for a sharded set: K reads of every shard file) and K HIP scans per
// node. This engine fuses them — the operator-fusion idea of columnar
// query engines applied to sketch serving:
//
//   SweepPlan  — an ordered list of collectors (the statistics to fuse).
//   Collector  — a per-node visitor (SweepCollector below).
//   Executor   — RunSweep: ONE parallel pass over an AdsBackend (in-memory,
//                mmap, sharded with prefetch), constructing each node's
//                HipEstimator ONCE and walking its entries ONCE for the
//                whole plan.
//
//   once per plan (Classify)           per node v (one walk of est's entries)
//   declared HipSums --dedupe--> sums  every sum's term    --> values[v]
//   declared histogram folds           every histogram cell
//   everything else: custom g,         then Map(v, est) for each of them
//     quantile, wrappers --> Map list
//
// Every built-in per-node statistic is a HipSum (ads/estimators.h): the
// paper's Q_g for a g from a closed set. A collector declares its sum (or,
// for the distance histogram, its fold) through SweepCollector::Declared,
// and the executor evaluates every declared sum and fold of the plan in
// one walk per node — equal sums once, so a plan's harmonic centrality
// and its top-k by harmonic share one accumulator. A collector that
// declares nothing keeps Map. So K statistics cost one shard sweep, one
// HIP scan and one entry walk per node instead of K of each. The
// whole-graph query functions in ads/queries.h are thin single-collector
// plans over this executor; multi-statistic callers (the CLI
// `stats`/`query` paths, examples/sketch_pipeline) build their own plans.
//
// Determinism contract: results are bitwise identical to running each
// statistic standalone, on every storage engine, for every thread count.
// The executor and its collectors guarantee it by construction —
//   * a declared sum adds the same terms in the same entry order as its
//     standalone walk (HipEstimator::Sum), from 0.0;
//   * per-node outputs are written indexed by node (never by thread);
//   * accumulating collectors (the distance-distribution histogram) fold
//     into per-slot state (SweepSlot below) with exact arithmetic, and
//     merge the slots exactly when read, so neither the fold order nor
//     the slot a node landed in can change a bit of the result;
//   * backends are swept one contiguous node range at a time in node
//     order, so a sharded sweep visits nodes in the order a one-range
//     (flat or mmap) sweep does.
// Between ranges the executor emits Prefetch residency hints, letting a
// prefetching sharded backend overlap the next shard's I/O (lookahead
// configurable, see ShardedOptions::prefetch_depth) with compute.

#ifndef HIPADS_ADS_SWEEP_H_
#define HIPADS_ADS_SWEEP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ads/ads.h"
#include "ads/backend.h"
#include "ads/estimators.h"
#include "ads/flat_ads.h"
#include "util/exact_sum.h"
#include "util/status.h"

namespace hipads {

/// The calling thread's collector slot inside a running sweep, and the
/// sweep's slot count. The executor publishes both through a sweep-scoped
/// thread-local, set around every collector's Begin (slot 0) and around
/// each parallel chunk of nodes (the chunk's index). Slots are below the
/// count, and no two threads hold the same slot at the same time, so
/// state indexed by SweepSlot() has one writer. Outside a sweep — a
/// router or client gather calling Begin and AbsorbPartial itself — they
/// return slot 0 of 1.
uint32_t SweepSlot();
uint32_t SweepSlotCount();

class DistanceHistogramCollector;

/// What a collector's Map computes, declared so that RunSweep can evaluate
/// it inside its one walk per node instead of calling Map
/// (SweepCollector::Declared). At most one of the two is set; an empty
/// fold keeps Map.
struct SweepFold {
  /// A per-node sum: the executor writes node v's value to values[v].
  std::optional<HipSum> sum;
  double* values = nullptr;
  /// The distance histogram: the executor hands each run of equal
  /// distance to histogram->FoldRun.
  DistanceHistogramCollector* histogram = nullptr;
};

/// One fused statistic: a per-node visitor.
///
/// RunSweep calls Begin(num_nodes) once, then Declared() once, then — for
/// a collector that declared nothing — Map(v, est) once per node from pool
/// threads, in no particular order; `est` is node v's HipEstimator, shared
/// by every collector in the plan and valid only for the duration of the
/// call. Map may write only state indexed by v, or per-slot state indexed
/// by SweepSlot() (sized from SweepSlotCount() in Begin) — never a shared
/// accumulator. Collectors whose results depend on how nodes were split
/// across slots must merge the slots exactly when read
/// (DistanceHistogramCollector does); per-node collectors are independent
/// of the split by construction.
class SweepCollector {
 public:
  virtual ~SweepCollector();

  /// Called once before the sweep visits any node.
  virtual void Begin(size_t num_nodes);

  /// Parallel phase; see the class comment for the threading contract.
  virtual void Map(NodeId v, const HipEstimator& est);

  /// The fold Map computes, for the executor to run in its one walk per
  /// node; called after Begin. The default declares nothing, so Map runs.
  /// A collector that declares a fold must compute exactly that fold in
  /// Map too (wrappers forward Map, not the declaration), and a subclass
  /// that changes Map must change Declared with it.
  virtual SweepFold Declared();

  /// No-op hooks the executor never calls: every collector does its work
  /// in Map. They remain so that existing wrappers overriding them still
  /// compile.
  virtual void Reduce(NodeId first, std::span<const HipEstimator> ests);
  virtual bool NeedsReduce() const;

  // --- Partial-state seam for distributed scatter/gather (src/serve/) ---
  //
  // A range server runs a sweep over its contiguous node range and ships
  // EncodePartial's bytes; the gathering router calls AbsorbPartial once
  // per range, in node order, on collectors that have absorbed every
  // earlier range. The contract: absorbing the partials of ranges [0,r1),
  // [r1,r2), ... in order must leave the collector in a state whose
  // results are exactly (bitwise) those of a single-process sweep over
  // [0, rk). Per-node collectors satisfy it trivially (values are
  // independent); accumulating collectors must make their reduction
  // partition-independent — the distance histogram keeps exact
  // (error-free) per-distance sums and rounds once at read time, so any
  // merge order reproduces the single-process result (see
  // DistanceHistogramCollector).

  /// Serializes this collector's state for the node slice [begin, end) of
  /// its own index space — (0, n) on a range server whose collectors are
  /// locally indexed; (B, N) on a gathering router whose collectors are
  /// globally indexed but only cover [B, N). The default fails: collectors
  /// without a partial encoding cannot be distributed.
  virtual Status EncodePartial(NodeId begin, NodeId end,
                               std::string* out) const;

  /// Merges the partial state of global node range [begin, end) into this
  /// collector. Called in node order across ranges; `begin`/`end` are the
  /// gather-side global ids of the range the bytes were produced on.
  /// Malformed bytes must fail cleanly (never crash) — partials arrive
  /// from the network.
  virtual Status AbsorbPartial(NodeId begin, NodeId end,
                               std::string_view data);
};

/// Collector for any statistic of the form result[v] = fn(estimator of v):
/// closeness, distance sum, harmonic centrality, neighborhood size,
/// reachable count, or any custom HIP reduction. Outputs are independent
/// per node. Built from a HipSum, it declares the sum, and the executor
/// computes it in its one walk per node; built from a function, it runs
/// that function in Map.
class PerNodeCollector : public SweepCollector {
 public:
  explicit PerNodeCollector(std::function<double(const HipEstimator&)> fn)
      : fn_(std::move(fn)) {}
  explicit PerNodeCollector(HipSum sum);

  void Begin(size_t num_nodes) override;
  void Map(NodeId v, const HipEstimator& est) override;
  SweepFold Declared() override;

  /// Partial state: the raw little-endian doubles of values_[begin, end)
  /// in node order. Absorb copies them back into values_[begin, end) —
  /// per-node values are independent, so the distributed gather is bitwise
  /// trivially.
  Status EncodePartial(NodeId begin, NodeId end,
                       std::string* out) const override;
  Status AbsorbPartial(NodeId begin, NodeId end,
                       std::string_view data) override;

  const std::vector<double>& values() const { return values_; }
  std::vector<double> TakeValues() { return std::move(values_); }

 private:
  std::function<double(const HipEstimator&)> fn_;
  std::optional<HipSum> sum_;  // set when built from a HipSum
  std::vector<double> values_;
};

/// HIP estimates of C_{alpha,beta} for every node (Eq. 3).
class ClosenessCollector : public PerNodeCollector {
 public:
  ClosenessCollector(std::function<double(double)> alpha,
                     std::function<double(NodeId)> beta);
};

/// HIP estimates of the sum of distances for every node.
class DistanceSumCollector : public PerNodeCollector {
 public:
  DistanceSumCollector();
};

/// HIP estimates of harmonic centrality for every node.
class HarmonicCentralityCollector : public PerNodeCollector {
 public:
  HarmonicCentralityCollector();
};

/// HIP estimates of the d-neighborhood cardinality for every node.
class NeighborhoodSizeCollector : public PerNodeCollector {
 public:
  explicit NeighborhoodSizeCollector(double d);
};

/// HIP estimates of the reachable-set size for every node.
class ReachableCountCollector : public PerNodeCollector {
 public:
  ReachableCountCollector();
};

/// Per-node q-quantiles of the distance distribution: for each node the
/// smallest sketched distance within which an estimated q-fraction of its
/// reachable nodes lies (HipEstimator::DistanceQuantile; q = 0.5 is the
/// median distance). Requires 0 < q <= 1.
class DistanceQuantileCollector : public PerNodeCollector {
 public:
  explicit DistanceQuantileCollector(double q);
};

/// HIP estimates of an arbitrary Q_g statistic (Eq. 1/5) for every node:
/// values[v] ~ sum_{j reachable from v} g(j, d_vj). The paper's general
/// distance-decaying workload; harmonic centrality, neighborhood sizes and
/// distance sums are all special cases of g. A g from HipSum's closed set
/// is declared; any other runs per entry in Map.
class QgCollector : public PerNodeCollector {
 public:
  explicit QgCollector(std::function<double(NodeId, double)> g);
  explicit QgCollector(HipSum g) : PerNodeCollector(g) {}
};

/// Node ids of the `count` largest values in `scores`, descending; ties
/// broken by smaller node id. The selection utility behind TopKCollector
/// (and usable on any standalone score vector).
std::vector<NodeId> TopKNodes(const std::vector<double>& scores,
                              uint32_t count);

/// Per-node scores plus the ids of the `count` best nodes (descending
/// score, ties by id — the TopKNodes order). Scored by a HipSum, it shares
/// the plan's accumulator for that sum.
class TopKCollector : public PerNodeCollector {
 public:
  TopKCollector(uint32_t count, std::function<double(const HipEstimator&)> fn)
      : PerNodeCollector(std::move(fn)), count_(count) {}
  TopKCollector(uint32_t count, HipSum score)
      : PerNodeCollector(score), count_(count) {}

  /// The top `count` node ids by collected score; call after the sweep.
  std::vector<NodeId> TopNodes() const;

 private:
  uint32_t count_;
};

/// The ANF family in one collector: accumulates the HIP distance
/// distribution (number of ordered pairs at each exact distance), from
/// which the neighbourhood function, effective diameter and mean distance
/// all derive — one backend pass yields all four statistics.
/// Each distance's pair count is an exact (error-free) sum of HIP weights
/// held in a superaccumulator (util/exact_sum.h) and rounded once when
/// read, so the result is independent of fold order, thread count, and —
/// crucially for the distributed gather — of how node ranges were
/// partitioned across servers.
///
/// The fold — each HIP entry at a distance d > 0 adds its weight to d's
/// cell in the sweep slot's own map — is declared, so the executor runs it
/// in its one walk per node (Map runs the same fold for wrappers). It runs
/// on every sweep thread with no shared writer; Distribution and
/// EncodePartial merge the slots exactly in one streaming pass that
/// allocates nothing per distance. Memory is one cell of ~600 bytes (an
/// ExactSum) per distance per slot that saw it: for D distinct distances
/// among E HIP entries, at most min(SweepSlotCount() x D, E) cells, where
/// one shared map would hold D. Both kinds of graph stay near D. A
/// unit-weight graph has one distance per hop count. On a real-weighted
/// graph nearly every entry has a distance of its own, so few distances
/// reach two slots: an 8-shard scale-16 R-MAT with U[0.5, 2) weights and
/// k = 16 has 5.35M distances among 5.57M entries, and a 4-thread sweep
/// peaks at 3647 MiB RSS against 3576 MiB with one map.
class DistanceHistogramCollector : public SweepCollector {
 public:
  void Begin(size_t num_nodes) override;
  void Map(NodeId v, const HipEstimator& est) override;
  SweepFold Declared() override;

  /// The fold of one run of a node's entries at distance `dist`, as
  /// HipEstimator::WalkSums hands it over: when dist > 0, each HIP entry
  /// (tau != 0) adds its weight to the cell of `dist` in the calling
  /// thread's sweep slot, looked up once per run.
  void FoldRun(double dist, std::span<const double> tau,
               std::span<const double> weight);

  /// Partial state for the distributed gather: O(distinct distances) —
  /// each distance with its exact superaccumulator digits, the slots
  /// merged. Absorbing is one exact merge per distance; because
  /// per-distance sums are error-free until the final rounding, a router
  /// merging any partition of ranges reproduces the single-process sweep
  /// bitwise. A partial is staged whole and installed only if it all
  /// parses, so malformed bytes leave the collector unchanged.
  Status EncodePartial(NodeId begin, NodeId end,
                       std::string* out) const override;  // range-free state
  Status AbsorbPartial(NodeId begin, NodeId end,
                       std::string_view data) override;

  /// Estimated number of ordered pairs at each exact distance: the
  /// correctly rounded exact sums.
  std::map<double, double> Distribution() const;

  /// Cumulative form: N(d) = estimated pairs within distance d.
  std::map<double, double> NeighborhoodFunction() const;

  /// Smallest d at which the neighbourhood function reaches `quantile` of
  /// its final value (0 for an empty distribution).
  double EffectiveDiameter(double quantile = 0.9) const;

  /// Estimated mean distance between reachable ordered pairs.
  double MeanDistance() const;

 private:
  using Sums = std::map<double, ExactSum>;

  /// Calls fn(dist, sum) for every distance in ascending order, `sum`
  /// being the exact total over all slots.
  template <typename Fn>
  void ForEachMerged(Fn&& fn) const;

  std::vector<Sums> slots_ = std::vector<Sums>(1);  // indexed by SweepSlot
};

/// An ordered list of collectors to fuse into one sweep. The plan does not
/// run anything itself — hand it to RunSweep. Collectors can be owned by
/// the plan (Emplace) or borrowed (Add); either way the caller reads
/// results off the collector objects after the sweep.
class SweepPlan {
 public:
  /// Adds a borrowed collector; the caller keeps ownership and must keep
  /// it alive through RunSweep.
  SweepPlan& Add(SweepCollector* collector);

  /// Constructs a collector owned by the plan; returns it typed so the
  /// caller can read results after the sweep.
  template <typename C, typename... Args>
  C* Emplace(Args&&... args) {
    auto owned = std::make_unique<C>(std::forward<Args>(args)...);
    C* raw = owned.get();
    owned_.push_back(std::move(owned));
    collectors_.push_back(raw);
    return raw;
  }

  const std::vector<SweepCollector*>& collectors() const {
    return collectors_;
  }
  bool empty() const { return collectors_.empty(); }
  size_t size() const { return collectors_.size(); }

 private:
  std::vector<SweepCollector*> collectors_;
  std::vector<std::unique_ptr<SweepCollector>> owned_;
};

/// Executes `plan` in one pass over the sketches: every node's
/// HipEstimator is constructed exactly once and fed to every collector.
/// `num_threads` = 0 uses the hardware count, 1 runs inline; results are
/// bitwise identical for every thread count. The sweep walks the backend's
/// ranges in node order (one shard file read per shard, whatever
/// plan.size() is), emits Prefetch hints between ranges, and fails if a
/// lazy range load fails — collectors are then left partially filled and
/// must be discarded. `checkpoint`, when set, is polled before each range;
/// a non-ok return aborts the sweep with that status (the serving layer
/// uses it to shed sweeps whose deadline has already passed instead of
/// finishing work nobody is waiting for).
Status RunSweep(const AdsBackend& set, SweepPlan& plan,
                uint32_t num_threads = 0,
                const std::function<Status()>& checkpoint = {});

/// Sweeps an in-memory arena: RunSweep over FlatAdsBackend(&set), which
/// cannot fail.
void RunSweep(const FlatAdsSet& set, SweepPlan& plan,
              uint32_t num_threads = 0);

}  // namespace hipads

#endif  // HIPADS_ADS_SWEEP_H_
