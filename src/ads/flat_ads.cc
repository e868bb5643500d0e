#include "ads/flat_ads.h"

#include <algorithm>

#include "util/parallel.h"

namespace hipads {

namespace {

// Arena bytes per flatten thread: below two of these the copy runs on the
// calling thread, the width v2 loads use for the same reason.
constexpr uint64_t kFlattenBytesPerThread = uint64_t{1} << 18;

}  // namespace

FlatAdsSet FlatAdsSet::FromAdsSet(const AdsSet& set) {
  FlatAdsSet flat;
  flat.flavor = set.flavor;
  flat.k = set.k;
  flat.ranks = set.ranks;
  const size_t n = set.ads.size();
  flat.offsets.resize(n + 1);
  for (size_t v = 0; v < n; ++v) {
    flat.offsets[v + 1] = flat.offsets[v] + set.ads[v].size();
  }
  flat.entries.resize(flat.offsets[n]);
  ThreadPool pool(ThreadsForWork(flat.offsets[n] * sizeof(AdsEntry),
                                 kFlattenBytesPerThread));
  pool.ParallelFor(n, [&](size_t begin, size_t end, uint32_t) {
    for (size_t v = begin; v < end; ++v) {
      std::copy(set.ads[v].entries().begin(), set.ads[v].entries().end(),
                flat.entries.begin() + flat.offsets[v]);
    }
  });
  return flat;
}

std::vector<size_t> EntryBalancedRanges(const uint64_t* offsets,
                                        size_t num_nodes, uint32_t parts) {
  parts = std::max<uint32_t>(parts, 1);
  std::vector<size_t> bounds(parts + 1, num_nodes);
  bounds[0] = 0;
  // The work before node v is offsets[v] - offsets[0] + v, increasing in
  // v; bound t is the first node at which it reaches t/parts of the total.
  auto work_before = [offsets](size_t v) {
    return offsets[v] - offsets[0] + v;
  };
  const uint64_t total = work_before(num_nodes);
  for (uint32_t t = 1; t < parts; ++t) {
    const uint64_t target = total / parts * t + total % parts * t / parts;
    size_t lo = bounds[t - 1];
    size_t hi = num_nodes;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (work_before(mid) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bounds[t] = lo;
  }
  return bounds;
}

}  // namespace hipads
