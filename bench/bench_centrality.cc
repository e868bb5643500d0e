// CLAIM-CENTR: Corollary 5.2 / Section 9 — HIP estimates of distance-decay
// closeness centralities C_{alpha,beta} have CV <= 1/sqrt(2(k-1)), including
// beta filters specified only at query time and beta-weighted neighborhood
// weights with exponential ranks. Measured per-node NRMSE against exact
// oracles on synthetic social-like graphs, plus top-10 recovery.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "ads/builders.h"
#include "ads/estimators.h"
#include "ads/queries.h"
#include "bench_common.h"
#include "graph/exact.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "sketch/cardinality.h"
#include "util/stats.h"
#include "util/table.h"

namespace hipads {
namespace {

void AccuracySweep(bool quick) {
  Graph g = BarabasiAlbert(1500, 3, 11);
  const uint32_t seeds = quick ? 6 : 30;
  const NodeId probes[] = {3, 77, 400, 1200};
  auto alpha = [](double d) { return 1.0 / (1.0 + d); };
  auto beta = [](NodeId v) { return v % 3 == 0 ? 1.0 : 0.5; };

  Table t({"k", "harmonic NRMSE", "decay NRMSE", "dist-sum NRMSE",
           "HIP CV bound"});
  for (uint32_t k : {8u, 16u, 32u, 64u}) {
    ErrorStats harm_err, decay_err, ds_err;
    std::vector<double> exact_harm, exact_decay, exact_ds;
    for (NodeId p : probes) {
      exact_harm.push_back(ExactHarmonicCentrality(g, p));
      exact_decay.push_back(ExactClosenessCentrality(g, p, alpha, beta));
      exact_ds.push_back(ExactDistanceSum(g, p));
    }
    for (uint64_t seed = 0; seed < seeds; ++seed) {
      AdsSet set = BuildAdsDp(g, k, SketchFlavor::kBottomK,
                              RankAssignment::Uniform(seed * 17 + k));
      for (size_t pi = 0; pi < std::size(probes); ++pi) {
        HipEstimator est(set.of(probes[pi]), k, SketchFlavor::kBottomK,
                         set.ranks);
        harm_err.Add(est.HarmonicCentrality(), exact_harm[pi]);
        decay_err.Add(est.Closeness(alpha, beta), exact_decay[pi]);
        ds_err.Add(est.DistanceSum(), exact_ds[pi]);
      }
    }
    t.NewRow()
        .Add(static_cast<uint64_t>(k))
        .Add(harm_err.nrmse(), 4)
        .Add(decay_err.nrmse(), 4)
        .Add(ds_err.nrmse(), 4)
        .Add(HipCv(k), 4);
  }
  std::printf(
      "=== CLAIM-CENTR: centrality accuracy on Barabasi-Albert n=1500 "
      "(%u seeds x 4 probe nodes) ===\nCor. 5.2 bounds the CV of "
      "monotone-decay centralities by 1/sqrt(2(k-1)); the distance-sum "
      "statistic (increasing g) is not covered by the bound and may "
      "exceed it.\n\n",
      seeds);
  t.PrintText(std::cout);
}

void WeightedNodes(bool quick) {
  // Section 9: neighborhood weights with beta-weighted exponential ranks.
  Graph g = ErdosRenyi(1200, 4800, true, 23);
  const uint32_t seeds = quick ? 6 : 30;
  const uint32_t k = 16;
  auto beta = [](uint64_t v) { return v % 10 == 0 ? 5.0 : 1.0; };
  const NodeId probe = 42;
  const double d = 3.0;
  double truth = 0.0;
  {
    auto dist = ShortestPathDistances(g, probe);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] <= d) truth += beta(v);
    }
  }
  ErrorStats err;
  for (uint64_t seed = 0; seed < seeds; ++seed) {
    auto ranks = RankAssignment::Exponential(seed * 7 + 1, beta);
    AdsSet set = BuildAdsPrunedDijkstra(g, k, SketchFlavor::kBottomK, ranks);
    HipEstimator est(set.of(probe), k, SketchFlavor::kBottomK, ranks);
    err.Add(est.NeighborhoodWeight(
                d, [&beta](NodeId v) { return beta(v); }),
            truth);
  }
  std::printf(
      "\n=== CLAIM-CENTR (Section 9): beta-weighted neighborhood weight ===\n"
      "Erdos-Renyi n=1200, k=%u, %u seeds: NRMSE=%.4f (bound %.4f), "
      "bias=%.4f\n",
      k, seeds, err.nrmse(), HipCv(k), err.mean_bias());
}

void TopTenRecovery(bool quick) {
  Graph g = BarabasiAlbert(2000, 3, 31);
  const uint32_t k = quick ? 16 : 64;
  // Exact top-10 by harmonic centrality.
  std::vector<double> exact(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    exact[v] = ExactHarmonicCentrality(g, v);
  }
  auto exact_top = TopKNodes(exact, 10);
  FlatAdsBackend set(FlatAdsSet::FromAdsSet(
      BuildAdsDp(g, k, SketchFlavor::kBottomK, RankAssignment::Uniform(3))));
  auto est_top = TopKNodes(EstimateHarmonicCentralityAll(set).value(), 10);
  uint32_t overlap = 0;
  for (NodeId v : est_top) {
    if (std::find(exact_top.begin(), exact_top.end(), v) != exact_top.end()) {
      ++overlap;
    }
  }
  std::printf(
      "\n=== CLAIM-CENTR: top-10 harmonic-centrality recovery ===\n"
      "Barabasi-Albert n=2000, k=%u, single sketch set: %u/10 of the exact "
      "top-10 recovered.\n",
      k, overlap);
}

}  // namespace
}  // namespace hipads

int main(int argc, char** argv) {
  bool quick = hipads::QuickMode(argc, argv);
  hipads::AccuracySweep(quick);
  hipads::WeightedNodes(quick);
  hipads::TopTenRecovery(quick);
  return 0;
}
