// Tests of the HIP adjusted weights (Section 5): exactness below k,
// unbiasedness for all flavors and rank kinds, monotonicity, and the
// factor-2 variance improvement over basic estimators.

#include "ads/hip.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ads/ads.h"
#include "ads/estimators.h"
#include "ads/flat_ads.h"
#include "sketch/cardinality.h"
#include "util/hash.h"
#include "util/stats.h"

namespace hipads {
namespace {

// ADS of a "stream" of n nodes at distances 0,1,2,...  (Section 5.5: this is
// exactly the graph setting with nodes listed by Dijkstra rank).
Ads StreamAds(uint64_t n, uint32_t k, const RankAssignment& ranks,
              SketchFlavor flavor) {
  std::vector<AdsEntry> candidates;
  for (uint64_t i = 0; i < n; ++i) {
    switch (flavor) {
      case SketchFlavor::kBottomK:
        candidates.push_back(AdsEntry{static_cast<NodeId>(i), 0,
                                      ranks.rank(i), static_cast<double>(i)});
        break;
      case SketchFlavor::kKMins:
        for (uint32_t p = 0; p < k; ++p) {
          candidates.push_back(AdsEntry{static_cast<NodeId>(i), p,
                                        ranks.rank(i, p),
                                        static_cast<double>(i)});
        }
        break;
      case SketchFlavor::kKPartition:
        candidates.push_back(AdsEntry{
            static_cast<NodeId>(i), BucketHash(ranks.seed(), i, k),
            ranks.rank(i), static_cast<double>(i)});
        break;
    }
  }
  if (flavor == SketchFlavor::kBottomK) {
    return Ads::CanonicalBottomK(std::move(candidates), k, ranks.sup());
  }
  // Per-part bottom-1 filters.
  std::vector<AdsEntry> kept;
  for (uint32_t part = 0; part < k; ++part) {
    std::vector<AdsEntry> per;
    for (const AdsEntry& e : candidates) {
      if (e.part == part) per.push_back(e);
    }
    Ads f = Ads::CanonicalBottomK(std::move(per), 1, ranks.sup());
    kept.insert(kept.end(), f.entries().begin(), f.entries().end());
  }
  return Ads(std::move(kept));
}

// The adjusted weights of a fresh scan, one per sketched node.
std::vector<HipEntry> HipWeights(AdsView ads, uint32_t k, SketchFlavor flavor,
                                 const RankAssignment& ranks) {
  return HipEstimator(ads, k, flavor, ranks).CopyEntries();
}

double HipCardinalityAt(const std::vector<HipEntry>& entries, double d) {
  double sum = 0.0;
  for (const HipEntry& e : entries) {
    if (e.dist <= d) sum += e.weight;
  }
  return sum;
}

TEST(HipTest, FirstKEntriesHaveWeightOne) {
  const uint32_t k = 5;
  auto ranks = RankAssignment::Uniform(3);
  Ads ads = StreamAds(100, k, ranks, SketchFlavor::kBottomK);
  auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
  for (uint32_t i = 0; i < k; ++i) {
    EXPECT_EQ(hip[i].tau, 1.0);
    EXPECT_EQ(hip[i].weight, 1.0);
  }
  // Entries beyond the first k have weight > 1.
  EXPECT_GT(hip[k].weight, 1.0);
}

TEST(HipTest, ExactBelowK) {
  const uint32_t k = 10;
  auto ranks = RankAssignment::Uniform(5);
  Ads ads = StreamAds(7, k, ranks, SketchFlavor::kBottomK);
  auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
  EXPECT_EQ(HipCardinalityAt(hip, 6.0), 7.0);
  EXPECT_EQ(HipCardinalityAt(hip, 2.0), 3.0);
}

TEST(HipTest, WeightsIncreaseWithDistanceBottomK) {
  // Lemma 5.1 remark: adjusted weights are nondecreasing in distance.
  const uint32_t k = 4;
  auto ranks = RankAssignment::Uniform(7);
  Ads ads = StreamAds(500, k, ranks, SketchFlavor::kBottomK);
  auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
  for (size_t i = 1; i < hip.size(); ++i) {
    EXPECT_GE(hip[i].weight, hip[i - 1].weight - 1e-12);
  }
}

TEST(HipTest, TauComputableAndPositive) {
  const uint32_t k = 3;
  auto ranks = RankAssignment::Uniform(9);
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    Ads ads = StreamAds(200, k, ranks, flavor);
    auto hip = HipWeights(ads, k, flavor, ranks);
    for (const HipEntry& e : hip) {
      EXPECT_GT(e.tau, 0.0);
      EXPECT_LE(e.tau, 1.0 + 1e-12);
      EXPECT_DOUBLE_EQ(e.weight, 1.0 / e.tau);
    }
  }
}

struct FlavorCase {
  SketchFlavor flavor;
  const char* name;
};

class HipUnbiasednessTest : public ::testing::TestWithParam<FlavorCase> {};

TEST_P(HipUnbiasednessTest, CardinalityEstimateIsUnbiased) {
  const uint32_t k = 8;
  const uint64_t n = 300;
  const uint32_t runs = 2500;
  RunningStat at_n, at_mid;
  for (uint32_t run = 0; run < runs; ++run) {
    auto ranks = RankAssignment::Uniform(HashCombine(999, run));
    Ads ads = StreamAds(n, k, ranks, GetParam().flavor);
    auto hip = HipWeights(ads, k, GetParam().flavor, ranks);
    at_n.Add(HipCardinalityAt(hip, static_cast<double>(n)));
    at_mid.Add(HipCardinalityAt(hip, static_cast<double>(n / 2)));
  }
  EXPECT_NEAR(at_n.mean() / n, 1.0, 0.02) << GetParam().name;
  EXPECT_NEAR(at_mid.mean() / (n / 2 + 1), 1.0, 0.02) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, HipUnbiasednessTest,
    ::testing::Values(FlavorCase{SketchFlavor::kBottomK, "bottom-k"},
                      FlavorCase{SketchFlavor::kKMins, "k-mins"},
                      FlavorCase{SketchFlavor::kKPartition, "k-partition"}),
    [](const ::testing::TestParamInfo<FlavorCase>& test_param) {
      return std::string(test_param.param.name) == "bottom-k" ? "BottomK"
             : std::string(test_param.param.name) == "k-mins" ? "KMins"
                                                              : "KPartition";
    });

TEST(HipTest, CvWithinTheoreticalBound) {
  // Theorem 5.1: CV <= 1/sqrt(2(k-1)).
  const uint32_t k = 8;
  const uint64_t n = 2000;
  const uint32_t runs = 2500;
  ErrorStats err;
  for (uint32_t run = 0; run < runs; ++run) {
    auto ranks = RankAssignment::Uniform(HashCombine(1234, run));
    Ads ads = StreamAds(n, k, ranks, SketchFlavor::kBottomK);
    auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
    err.Add(HipCardinalityAt(hip, static_cast<double>(n)),
            static_cast<double>(n));
  }
  EXPECT_LT(err.nrmse(), HipCv(k) * 1.08);  // bound + Monte-Carlo slack
  EXPECT_GT(err.nrmse(), HipCvLowerBound(k) * 0.9);  // Theorem 5.2
}

TEST(HipTest, FactorTwoVarianceImprovementOverBasic) {
  // Section 5.5: HIP error is ~ sqrt(2) smaller than the basic bottom-k
  // estimator on the same sketches.
  const uint32_t k = 10;
  const uint64_t n = 3000;
  const uint32_t runs = 2500;
  ErrorStats hip_err, basic_err;
  for (uint32_t run = 0; run < runs; ++run) {
    auto ranks = RankAssignment::Uniform(HashCombine(777, run));
    Ads ads = StreamAds(n, k, ranks, SketchFlavor::kBottomK);
    auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
    hip_err.Add(HipCardinalityAt(hip, static_cast<double>(n)),
                static_cast<double>(n));
    basic_err.Add(BottomKBasicEstimate(ads.BottomKAt(
                      static_cast<double>(n), k)),
                  static_cast<double>(n));
  }
  double ratio = basic_err.nrmse() / hip_err.nrmse();
  EXPECT_GT(ratio, 1.25);  // sqrt(2) ~ 1.41 with slack
  EXPECT_LT(ratio, 1.65);
}

TEST(HipTest, BaseBRanksStayUnbiasedWithHigherVariance) {
  // Section 5.6: base-b HIP remains unbiased; CV grows like
  // sqrt((1+b)/2) relative to full ranks.
  const uint32_t k = 8;
  const uint64_t n = 2000;
  const uint32_t runs = 2500;
  const double base = 2.0;
  RunningStat mean;
  ErrorStats err_full, err_b;
  for (uint32_t run = 0; run < runs; ++run) {
    uint64_t seed = HashCombine(555, run);
    auto full = RankAssignment::Uniform(seed);
    auto bb = RankAssignment::BaseB(seed, base);
    Ads ads_f = StreamAds(n, k, full, SketchFlavor::kBottomK);
    Ads ads_b = StreamAds(n, k, bb, SketchFlavor::kBottomK);
    auto hip_f = HipWeights(ads_f, k, SketchFlavor::kBottomK, full);
    auto hip_b = HipWeights(ads_b, k, SketchFlavor::kBottomK, bb);
    double est_b = HipCardinalityAt(hip_b, static_cast<double>(n));
    mean.Add(est_b);
    err_full.Add(HipCardinalityAt(hip_f, static_cast<double>(n)),
                 static_cast<double>(n));
    err_b.Add(est_b, static_cast<double>(n));
  }
  EXPECT_NEAR(mean.mean() / n, 1.0, 0.02);
  double expected_ratio = std::sqrt((1.0 + base) / 2.0);
  EXPECT_NEAR(err_b.nrmse() / err_full.nrmse(), expected_ratio, 0.22);
}

TEST(HipTest, ExponentialRanksEstimateNeighborhoodWeight) {
  // Section 9: with beta-weighted exponential ranks, sum of
  // beta(j) * a_j estimates the neighborhood weight sum beta(j).
  const uint32_t k = 8;
  const uint64_t n = 500;
  const uint32_t runs = 2000;
  auto beta = [](uint64_t v) { return v % 3 == 0 ? 3.0 : 1.0; };
  double true_weight = 0.0;
  for (uint64_t i = 0; i < n; ++i) true_weight += beta(i);
  RunningStat est;
  for (uint32_t run = 0; run < runs; ++run) {
    auto ranks =
        RankAssignment::Exponential(HashCombine(4242, run), beta);
    Ads ads = StreamAds(n, k, ranks, SketchFlavor::kBottomK);
    auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
    double sum = 0.0;
    for (const HipEntry& e : hip) sum += e.weight * beta(e.node);
    est.Add(sum);
  }
  EXPECT_NEAR(est.mean() / true_weight, 1.0, 0.02);
}

TEST(HipTest, PriorityRanksEstimateNeighborhoodWeight) {
  // Section 9 alternative: Sequential Poisson (priority) ranks
  // r = U/beta. HIP stays unbiased with P(r < tau) = min(1, beta*tau).
  const uint32_t k = 8;
  const uint64_t n = 500;
  const uint32_t runs = 2000;
  auto beta = [](uint64_t v) { return v % 4 == 0 ? 4.0 : 1.0; };
  double true_weight = 0.0;
  for (uint64_t i = 0; i < n; ++i) true_weight += beta(i);
  RunningStat card, weight;
  for (uint32_t run = 0; run < runs; ++run) {
    auto ranks = RankAssignment::Priority(HashCombine(5151, run), beta);
    Ads ads = StreamAds(n, k, ranks, SketchFlavor::kBottomK);
    auto hip = HipWeights(ads, k, SketchFlavor::kBottomK, ranks);
    double c = 0.0, w = 0.0;
    for (const HipEntry& e : hip) {
      c += e.weight;
      w += e.weight * beta(e.node);
    }
    card.Add(c);
    weight.Add(w);
  }
  EXPECT_NEAR(card.mean() / n, 1.0, 0.02);
  EXPECT_NEAR(weight.mean() / true_weight, 1.0, 0.02);
}

TEST(HipTest, PriorityRanksKPartitionUnbiased) {
  const uint32_t k = 8;
  const uint64_t n = 300;
  const uint32_t runs = 2000;
  auto beta = [](uint64_t v) { return v % 3 == 0 ? 2.0 : 1.0; };
  RunningStat card;
  for (uint32_t run = 0; run < runs; ++run) {
    auto ranks = RankAssignment::Priority(HashCombine(6161, run), beta);
    Ads ads = StreamAds(n, k, ranks, SketchFlavor::kKPartition);
    auto hip = HipWeights(ads, k, SketchFlavor::kKPartition, ranks);
    card.Add(HipCardinalityAt(hip, static_cast<double>(n)));
  }
  EXPECT_NEAR(card.mean() / n, 1.0, 0.025);
}

TEST(HipTest, ExponentialRanksFavorHeavyNodes) {
  // Heavier beta => higher inclusion probability.
  const uint32_t k = 4;
  const uint64_t n = 400;
  auto beta = [](uint64_t v) { return v % 2 == 0 ? 10.0 : 0.1; };
  uint32_t heavy = 0, light = 0;
  for (uint32_t run = 0; run < 200; ++run) {
    auto ranks = RankAssignment::Exponential(HashCombine(31337, run), beta);
    Ads ads = StreamAds(n, k, ranks, SketchFlavor::kBottomK);
    for (const AdsEntry& e : ads.entries()) {
      (e.node % 2 == 0 ? heavy : light)++;
    }
  }
  EXPECT_GT(heavy, 3 * light);
}

TEST(HipTest, EmptyAdsYieldsNoEntries) {
  Ads empty;
  auto ranks = RankAssignment::Uniform(1);
  EXPECT_TRUE(HipWeights(empty, 4, SketchFlavor::kBottomK, ranks).empty());
}

// --- Owning, scratch and stored weights: one layout, bitwise identical ---

// Field-by-field bitwise equality (memcmp over whole HipEntry records would
// also compare the struct's padding bytes, which are indeterminate).
bool SameHipEntries(std::span<const HipEntry> a, std::span<const HipEntry> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::bit_cast<uint64_t>(a[i].dist) !=
            std::bit_cast<uint64_t>(b[i].dist) ||
        std::bit_cast<uint64_t>(a[i].tau) !=
            std::bit_cast<uint64_t>(b[i].tau) ||
        std::bit_cast<uint64_t>(a[i].weight) !=
            std::bit_cast<uint64_t>(b[i].weight)) {
      return false;
    }
  }
  return true;
}

TEST(HipVariantsTest, OwningAndStoredWalksAreBitwiseEqual) {
  const uint32_t k = 6;
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    for (uint64_t n : {0ull, 3ull, 50ull, 400ull}) {
      auto ranks = RankAssignment::Uniform(HashCombine(71, n));
      Ads ads = StreamAds(n, k, ranks, flavor);
      FlatAdsSet stored;
      stored.flavor = flavor;
      stored.k = k;
      stored.ranks = ranks;
      stored.AppendNode(ads.entries());
      PrecomputeHipWeights(&stored, 2);

      auto owned = HipEstimator(ads, k, flavor, ranks).CopyEntries();
      auto wrapped = HipEstimator(stored.of(0), stored.hip_tau.data(),
                                  stored.hip_weight.data())
                         .CopyEntries();
      EXPECT_EQ(owned.empty(), n == 0);
      EXPECT_TRUE(SameHipEntries(owned, wrapped))
          << "flavor " << static_cast<int>(flavor) << " n " << n;
    }
  }
}

TEST(HipVariantsTest, KMinsWeightSitsAtFirstEntryOfEachRun) {
  // A node sketched under several permutations spans a same-(dist, node)
  // run of entries; its one adjusted weight sits at the run's first entry
  // and the rest of the run holds zeros.
  const uint32_t k = 5;
  auto ranks = RankAssignment::Uniform(17);
  Ads ads = StreamAds(300, k, ranks, SketchFlavor::kKMins);
  std::vector<double> tau(ads.size()), weight(ads.size());
  HipScratch scratch;
  ComputeHipWeightsAligned(ads, k, SketchFlavor::kKMins, ranks, &scratch,
                           tau.data(), weight.data());
  const auto& e = ads.entries();
  size_t runs = 0;
  for (size_t i = 0; i < e.size(); ++i) {
    const bool first =
        i == 0 || e[i].dist != e[i - 1].dist || e[i].node != e[i - 1].node;
    if (first) ++runs;
    EXPECT_EQ(tau[i] != 0.0, first) << "entry " << i;
    EXPECT_EQ(weight[i] != 0.0, first) << "entry " << i;
  }
  // The convention must actually trigger on this stream.
  EXPECT_LT(runs, ads.size());
  EXPECT_EQ(HipWeights(ads, k, SketchFlavor::kKMins, ranks).size(), runs);
}

TEST(HipVariantsTest, OwningEstimatorOutlivesItsSourceAndAds) {
  // The scanning constructor owns its entries and arrays: copies and moves
  // keep answering after the source estimator and the Ads it scanned are
  // gone (a borrowed entry would be a use-after-free, which ASan reports).
  const uint32_t k = 4;
  auto ranks = RankAssignment::Uniform(29);
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    std::vector<HipEntry> expect;
    double reach = 0.0;
    std::optional<HipEstimator> copied, moved;
    {
      std::optional<Ads> ads(StreamAds(200, k, ranks, flavor));
      HipEstimator source(*ads, k, flavor, ranks);
      ads.reset();
      expect = source.CopyEntries();
      reach = source.ReachableCount();
      copied.emplace(source);
      moved.emplace(std::move(source));
    }
    ASSERT_FALSE(expect.empty());
    EXPECT_TRUE(SameHipEntries(copied->CopyEntries(), expect))
        << "flavor " << static_cast<int>(flavor);
    EXPECT_TRUE(SameHipEntries(moved->CopyEntries(), expect))
        << "flavor " << static_cast<int>(flavor);
    EXPECT_EQ(copied->ReachableCount(), reach);
    EXPECT_EQ(moved->ReachableCount(), reach);
  }
}

TEST(HipVariantsTest, PrecomputeMatchesFreshScansForAnyThreadCount) {
  const uint32_t k = 4;
  auto ranks = RankAssignment::Uniform(23);
  for (SketchFlavor flavor : {SketchFlavor::kBottomK, SketchFlavor::kKMins,
                              SketchFlavor::kKPartition}) {
    FlatAdsSet set;
    set.flavor = flavor;
    set.k = k;
    set.ranks = ranks;
    for (uint64_t n : {40ull, 0ull, 120ull, 7ull}) {
      Ads ads = StreamAds(n, k, ranks, flavor);
      set.AppendNode(std::vector<AdsEntry>(ads.entries().begin(),
                                           ads.entries().end()));
    }

    FlatAdsSet single = set, multi = set;
    PrecomputeHipWeights(&single, 1);
    PrecomputeHipWeights(&multi, 4);
    ASSERT_EQ(single.hip_tau.size(), set.entries.size());
    ASSERT_EQ(single.hip_weight.size(), set.entries.size());
    EXPECT_EQ(single.hip_tau, multi.hip_tau);
    EXPECT_EQ(single.hip_weight, multi.hip_weight);

    HipScratch scratch;
    for (NodeId v = 0; v < set.num_nodes(); ++v) {
      const size_t sz = set.of(v).size();
      std::vector<double> tau(sz), weight(sz);
      ComputeHipWeightsAligned(set.of(v), k, flavor, ranks, &scratch,
                               tau.data(), weight.data());
      const uint64_t off = set.offsets[v];
      for (size_t i = 0; i < sz; ++i) {
        EXPECT_EQ(single.hip_tau[off + i], tau[i]) << "node " << v;
        EXPECT_EQ(single.hip_weight[off + i], weight[i]) << "node " << v;
      }
    }
  }
}

// The bottom-k HIP scan as the sketch classes state it: the inclusion
// probability of each entry under the threshold of a BottomKSketch of the
// ranks before it, per rank kind (Lemma 5.1 and Section 9). Returns how
// many entries the sketch did not take.
size_t SketchBottomKHip(std::span<const AdsEntry> entries, uint32_t k,
                        const RankAssignment& ranks, std::vector<double>* tau,
                        std::vector<double>* weight) {
  BottomKSketch closer(k, ranks.sup());
  size_t refused = 0;
  for (const AdsEntry& e : entries) {
    const double threshold = closer.Threshold();
    const double beta = ranks.beta(e.node);
    double p = 1.0;
    switch (ranks.kind()) {
      case RankKind::kUniform:
      case RankKind::kBaseB:
        p = std::min(threshold, 1.0);
        break;
      case RankKind::kExponential:
        p = std::isinf(threshold) ? 1.0 : -std::expm1(-beta * threshold);
        break;
      case RankKind::kPriority:
        p = std::isinf(threshold) ? 1.0 : std::min(1.0, beta * threshold);
        break;
      case RankKind::kPermutation:
        ADD_FAILURE() << "permutation ranks have no HIP scan";
        break;
    }
    tau->push_back(p);
    weight->push_back(1.0 / p);
    if (!closer.Update(e.rank)) ++refused;
  }
  return refused;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i]) != std::bit_cast<uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// The bottom-k scan keeps its k smallest ranks in a local sorted array,
// with one kernel per rank kind. It must write the sketch-class scan's
// tau and weight bit for bit under every rank kind: on a node shorter than
// k, on runs of equal ranks (base-2 ranks, and ranks copied between
// nodes), and on a modified (Appendix A) ADS whose distance groups share
// one rank, so a group keeps copies of the running threshold, which the
// scan refuses.
TEST(HipVariantsTest, BottomKKernelMatchesTheSketchScanBitwise) {
  const uint32_t k = 8;
  auto beta = [](uint64_t v) { return 0.5 + static_cast<double>(v % 4); };
  const std::vector<std::pair<std::string, RankAssignment>> kinds = {
      {"uniform", RankAssignment::Uniform(61)},
      {"base-2", RankAssignment::BaseB(61, 2.0)},
      {"exponential", RankAssignment::Exponential(61, beta)},
      {"priority", RankAssignment::Priority(61, beta)},
  };
  HipScratch scratch;  // shared by every case, long nodes and short
  for (const auto& [kind, ranks] : kinds) {
    std::vector<std::pair<std::string, Ads>> cases;
    cases.emplace_back("stream", StreamAds(400, k, ranks,
                                           SketchFlavor::kBottomK));
    cases.emplace_back("shorter than k",
                       StreamAds(k - 3, k, ranks, SketchFlavor::kBottomK));
    std::vector<AdsEntry> copied;  // every third node takes the rank before
    for (uint32_t i = 0; i < 300; ++i) {
      const double rank = i % 3 == 2 ? copied.back().rank : ranks.rank(i);
      copied.push_back(AdsEntry{i, 0, rank, static_cast<double>(i)});
    }
    cases.emplace_back("copied ranks", Ads(std::move(copied)));
    std::vector<AdsEntry> grouped;  // groups of 6 share a distance and a rank
    for (uint32_t i = 0; i < 600; ++i) {
      grouped.push_back(AdsEntry{i, 0, ranks.rank(i - i % 6),
                                 static_cast<double>(i / 6)});
    }
    cases.emplace_back("modified",
                       Ads::ModifiedBottomK(std::move(grouped), k,
                                            ranks.sup()));
    for (const auto& [name, ads] : cases) {
      const std::string label = kind + " " + name;
      std::vector<double> want_tau, want_weight;
      const size_t refused =
          SketchBottomKHip(ads.entries(), k, ranks, &want_tau, &want_weight);
      if (name == "modified") {
        EXPECT_GT(refused, 0u) << label;
      }
      std::vector<double> tau(ads.size()), weight(ads.size());
      ComputeHipWeightsAligned(ads, k, SketchFlavor::kBottomK, ranks,
                               &scratch, tau.data(), weight.data());
      EXPECT_TRUE(BitwiseEqual(tau, want_tau)) << label;
      EXPECT_TRUE(BitwiseEqual(weight, want_weight)) << label;
    }
  }
}

// --- Appendix A: HIP weights for the modified (no tie breaking) ADS ---

TEST(ModifiedHipTest, KthSmallestMemberCarriesZeroWeight) {
  // One distance group of 6 with k=3: all of the 3 smallest are kept, and
  // the one holding the ball's kth smallest rank is unsampled (weight 0).
  const uint32_t k = 3;
  std::vector<AdsEntry> cands;
  for (uint32_t i = 0; i < 6; ++i) {
    cands.push_back(AdsEntry{i, 0, UnitHash(21, i), 1.0});
  }
  Ads ads = Ads::ModifiedBottomK(cands, k);
  ASSERT_EQ(ads.size(), 3u);
  auto hip = ComputeModifiedHipWeights(ads, k);
  int zero_weights = 0;
  double max_rank = 0.0;
  for (const AdsEntry& e : ads.entries()) max_rank = std::max(max_rank, e.rank);
  for (size_t i = 0; i < hip.size(); ++i) {
    if (hip[i].weight == 0.0) {
      ++zero_weights;
      EXPECT_EQ(ads.entries()[i].rank, max_rank);
    } else {
      EXPECT_DOUBLE_EQ(hip[i].weight, 1.0 / hip[i].tau);
    }
  }
  EXPECT_EQ(zero_weights, 1);
}

TEST(ModifiedHipTest, UnbiasedWithRepeatedDistances) {
  // Stream of n nodes where distances repeat in groups of 7 — the setting
  // the modified ADS is designed for.
  const uint32_t k = 8;
  const uint64_t n = 700;
  const uint32_t runs = 3000;
  RunningStat est;
  for (uint32_t run = 0; run < runs; ++run) {
    std::vector<AdsEntry> cands;
    for (uint64_t i = 0; i < n; ++i) {
      cands.push_back(AdsEntry{static_cast<NodeId>(i), 0,
                               UnitHash(HashCombine(33, run), i),
                               static_cast<double>(i / 7)});
    }
    Ads ads = Ads::ModifiedBottomK(std::move(cands), k);
    double sum = 0.0;
    for (const HipEntry& e : ComputeModifiedHipWeights(ads, k)) {
      sum += e.weight;
    }
    est.Add(sum);
  }
  EXPECT_NEAR(est.mean() / n, 1.0, 0.02);
}

TEST(ModifiedHipTest, CvWithinBasicBound) {
  // Appendix A: the modified-ADS HIP estimator has CV at most 1/sqrt(k-2).
  const uint32_t k = 8;
  const uint64_t n = 1000;
  const uint32_t runs = 2500;
  ErrorStats err;
  for (uint32_t run = 0; run < runs; ++run) {
    std::vector<AdsEntry> cands;
    for (uint64_t i = 0; i < n; ++i) {
      cands.push_back(AdsEntry{static_cast<NodeId>(i), 0,
                               UnitHash(HashCombine(44, run), i),
                               static_cast<double>(i / 5)});
    }
    Ads ads = Ads::ModifiedBottomK(std::move(cands), k);
    double sum = 0.0;
    for (const HipEntry& e : ComputeModifiedHipWeights(ads, k)) {
      sum += e.weight;
    }
    err.Add(sum, static_cast<double>(n));
  }
  EXPECT_LT(err.nrmse(), BasicCv(k) * 1.08);
}

TEST(ModifiedHipTest, SmallerSketchThanTieBroken) {
  // The point of the modified ADS: fewer entries when distances repeat.
  const uint32_t k = 4;
  std::vector<AdsEntry> cands;
  for (uint64_t i = 0; i < 500; ++i) {
    cands.push_back(AdsEntry{static_cast<NodeId>(i), 0, UnitHash(55, i),
                             static_cast<double>(i / 25)});
  }
  Ads modified = Ads::ModifiedBottomK(cands, k);
  Ads full = Ads::CanonicalBottomK(cands, k);
  EXPECT_LT(modified.size(), full.size());
}

}  // namespace
}  // namespace hipads
