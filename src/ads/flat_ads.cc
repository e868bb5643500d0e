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

}  // namespace hipads
