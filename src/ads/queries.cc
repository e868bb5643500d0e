#include "ads/queries.h"

namespace hipads {

namespace {

// Every whole-graph query below is a thin single-collector SweepPlan over
// the fused sweep executor (ads/sweep.h) — the executor owns the one
// sweep implementation in the codebase (blocking, threading, range order,
// prefetch hints). Callers wanting several statistics from one pass
// should build their own SweepPlan instead of calling several of these.

// `what` is a HipSum or a per-node function (PerNodeCollector's two
// constructors).
template <typename What>
StatusOr<std::vector<double>> PerNodeQuery(const AdsBackend& set,
                                           uint32_t num_threads, What what) {
  SweepPlan plan;
  PerNodeCollector* c = plan.Emplace<PerNodeCollector>(std::move(what));
  Status status = RunSweep(set, plan, num_threads);
  if (!status.ok()) return status;
  return c->TakeValues();
}

// One histogram sweep; the caller reads whichever derived statistic it
// wants off the collector.
StatusOr<DistanceHistogramCollector> HistogramSweep(const AdsBackend& set,
                                                    uint32_t num_threads) {
  DistanceHistogramCollector hist;
  SweepPlan plan;
  plan.Add(&hist);
  Status status = RunSweep(set, plan, num_threads);
  if (!status.ok()) return status;
  return hist;
}

}  // namespace

StatusOr<std::map<double, double>> EstimateDistanceDistribution(
    const AdsBackend& set, uint32_t num_threads) {
  auto hist = HistogramSweep(set, num_threads);
  if (!hist.ok()) return hist.status();
  return hist.value().Distribution();
}

StatusOr<std::map<double, double>> EstimateNeighborhoodFunction(
    const AdsBackend& set, uint32_t num_threads) {
  auto hist = HistogramSweep(set, num_threads);
  if (!hist.ok()) return hist.status();
  return hist.value().NeighborhoodFunction();
}

StatusOr<std::vector<double>> EstimateClosenessAll(
    const AdsBackend& set, const std::function<double(double)>& alpha,
    const std::function<double(NodeId)>& beta, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, [&](const HipEstimator& est) {
    return est.Closeness(alpha, beta);
  });
}

StatusOr<std::vector<double>> EstimateDistanceSumAll(const AdsBackend& set,
                                                     uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, HipSum::DistanceSum());
}

StatusOr<std::vector<double>> EstimateHarmonicCentralityAll(
    const AdsBackend& set, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, HipSum::Harmonic());
}

StatusOr<std::vector<double>> EstimateNeighborhoodSizeAll(
    const AdsBackend& set, double d, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, HipSum::Neighborhood(d));
}

StatusOr<std::vector<double>> EstimateReachableCountAll(
    const AdsBackend& set, uint32_t num_threads) {
  return PerNodeQuery(set, num_threads, HipSum::Reachable());
}

StatusOr<double> EstimateEffectiveDiameter(const AdsBackend& set,
                                           double quantile) {
  auto hist = HistogramSweep(set, 0);
  if (!hist.ok()) return hist.status();
  return hist.value().EffectiveDiameter(quantile);
}

StatusOr<double> EstimateMeanDistance(const AdsBackend& set) {
  auto hist = HistogramSweep(set, 0);
  if (!hist.ok()) return hist.status();
  return hist.value().MeanDistance();
}

}  // namespace hipads
