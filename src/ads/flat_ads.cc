#include "ads/flat_ads.h"

namespace hipads {

FlatAdsSet FlatAdsSet::FromAdsSet(const AdsSet& set) {
  FlatAdsSet flat;
  flat.flavor = set.flavor;
  flat.k = set.k;
  flat.ranks = set.ranks;
  flat.offsets.reserve(set.ads.size() + 1);
  flat.entries.reserve(set.TotalEntries());
  for (const Ads& ads : set.ads) {
    flat.entries.insert(flat.entries.end(), ads.entries().begin(),
                        ads.entries().end());
    flat.offsets.push_back(flat.entries.size());
  }
  return flat;
}

}  // namespace hipads
