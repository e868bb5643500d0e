// Test helper: runs one hipads-ads-v2 image through every reader — the
// in-memory parser, the file reader (into a fresh set and into a recycled
// one) and the zero-copy mmap open — and checks that they agree. The four
// share one validator but not one source of bytes, so the hostile-input
// corpora run through all of them.

#ifndef HIPADS_TESTS_V2_READERS_H_
#define HIPADS_TESTS_V2_READERS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "ads/backend.h"
#include "ads/serialize.h"

namespace hipads {

/// Bitwise equality of two loaded sets' arenas and HIP arrays: the HIP
/// weights are derived on load, so a -0.0 or NaN must match bit for bit,
/// not only compare equal.
inline void ExpectSameLoad(const FlatAdsSet& got, const FlatAdsSet& want,
                           const std::string& what) {
  EXPECT_EQ(got.offsets, want.offsets) << what;
  auto same_bytes = [&](const auto& a, const auto& b, const char* array) {
    ASSERT_EQ(a.size(), b.size()) << what << ": " << array;
    if (a.empty()) return;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])), 0)
        << what << ": " << array;
  };
  same_bytes(got.entries, want.entries, "entries");
  same_bytes(got.hip_tau, want.hip_tau, "hip_tau");
  same_bytes(got.hip_weight, want.hip_weight, "hip_weight");
}

/// Parses `bytes` with ParseFlatAdsSetBinary, then writes them to a temp
/// file read back by ReadFlatAdsSetFile, by ReadFlatAdsSetFileInto over a
/// set whose storage holds stale values, and by MmapAdsSet::Open. Expects
/// all four to agree on acceptance and Status code — and with
/// `same_message`, on the failure message too — and, when they accept, on
/// the loaded nodes, entries, tau and derived HIP weights, bit for bit.
/// Returns the parser's result.
inline StatusOr<FlatAdsSet> ParseWithEveryReader(const std::string& bytes,
                                                 const std::string& what,
                                                 bool same_message = false) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hipads_v2_readers_" + std::to_string(::getpid()) + ".ads2"))
          .string();
  {
    std::ofstream f(path, std::ios::binary);
    f << bytes;
  }
  // Storage a previous load left behind: every array big enough for this
  // image and full of a value no reader writes, so a load that skips an
  // element shows.
  FlatAdsSet recycled;
  const size_t stale = bytes.size() / sizeof(double) + 1;
  recycled.offsets.assign(stale, ~uint64_t{0});
  recycled.entries.assign(stale, AdsEntry{7, 7, -7.0, -7.0});
  recycled.hip_tau.assign(stale, -7.0);
  recycled.hip_weight.assign(stale, -7.0);

  auto parsed = ParseFlatAdsSetBinary(bytes);
  auto read = ReadFlatAdsSetFile(path);
  Status into = ReadFlatAdsSetFileInto(path, nullptr, &recycled);
  auto mapped = MmapAdsSet::Open(path);
  std::remove(path.c_str());

  EXPECT_EQ(read.ok(), parsed.ok()) << what << ": file reader";
  EXPECT_EQ(into.ok(), parsed.ok()) << what << ": recycled file reader";
  EXPECT_EQ(mapped.ok(), parsed.ok()) << what << ": mmap open";
  if (!parsed.ok()) {
    const Status& want = parsed.status();
    for (const Status& st : {read.status(), into, mapped.status()}) {
      if (st.ok()) continue;
      EXPECT_EQ(st.code(), want.code()) << what << ": " << st.ToString();
      if (same_message) {
        EXPECT_EQ(st.message(), want.message()) << what;
      }
    }
    return parsed;
  }
  const FlatAdsSet& p = parsed.value();
  if (read.ok()) ExpectSameLoad(read.value(), p, what + " (file reader)");
  if (into.ok()) ExpectSameLoad(recycled, p, what + " (recycled reader)");
  if (mapped.ok()) {
    const MmapAdsSet& m = mapped.value();
    EXPECT_EQ(m.num_nodes(), p.num_nodes()) << what;
    EXPECT_EQ(m.TotalEntries(), p.TotalEntries()) << what;
    EXPECT_EQ(m.HipResident(), p.has_hip()) << what;
    auto range = m.Range(0);
    EXPECT_TRUE(range.ok()) << what;
    if (range.ok() && m.TotalEntries() == p.TotalEntries() &&
        !p.entries.empty()) {
      const AdsArenaView& arena = range.value();
      const size_t n = p.entries.size();
      EXPECT_EQ(std::memcmp(arena.entries, p.entries.data(),
                            n * sizeof(AdsEntry)),
                0)
          << what;
      if (arena.has_hip() && p.has_hip()) {
        EXPECT_EQ(std::memcmp(arena.hip_tau, p.hip_tau.data(),
                              n * sizeof(double)),
                  0)
            << what << ": mapped tau";
        EXPECT_EQ(std::memcmp(arena.hip_weight, p.hip_weight.data(),
                              n * sizeof(double)),
                  0)
            << what << ": derived weights (mmap)";
      }
    }
  }
  return parsed;
}

}  // namespace hipads

#endif  // HIPADS_TESTS_V2_READERS_H_
