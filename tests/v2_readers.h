// Test helper: runs one hipads-ads-v2 image through every reader — the
// in-memory parser, the file reader and the zero-copy mmap open — and
// checks that they agree. The three share one validator but not one
// source of bytes, so the hostile-input corpora run through all of them.

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

/// Parses `bytes` with ParseFlatAdsSetBinary, then writes them to a temp
/// file read back by ReadFlatAdsSetFile and MmapAdsSet::Open. Expects all
/// three to agree on acceptance and Status code — and with
/// `same_message`, on the failure message too — and, when they accept, on
/// the loaded nodes, entries and HIP weights. Returns the parser's result.
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
  auto parsed = ParseFlatAdsSetBinary(bytes);
  auto read = ReadFlatAdsSetFile(path);
  auto mapped = MmapAdsSet::Open(path);
  std::remove(path.c_str());

  EXPECT_EQ(read.ok(), parsed.ok()) << what << ": file reader";
  EXPECT_EQ(mapped.ok(), parsed.ok()) << what << ": mmap open";
  if (!parsed.ok()) {
    const Status::Code code = parsed.status().code();
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), code)
          << what << ": " << read.status().ToString();
    }
    if (!mapped.ok()) {
      EXPECT_EQ(mapped.status().code(), code)
          << what << ": " << mapped.status().ToString();
    }
    if (same_message) {
      EXPECT_EQ(read.status().message(), parsed.status().message()) << what;
      EXPECT_EQ(mapped.status().message(), parsed.status().message())
          << what;
    }
    return parsed;
  }
  const FlatAdsSet& p = parsed.value();
  if (read.ok()) {
    const FlatAdsSet& r = read.value();
    EXPECT_EQ(r.offsets, p.offsets) << what;
    EXPECT_EQ(r.entries.size(), p.entries.size()) << what;
    if (r.entries.size() == p.entries.size() && !p.entries.empty()) {
      EXPECT_EQ(std::memcmp(r.entries.data(), p.entries.data(),
                            p.entries.size() * sizeof(AdsEntry)),
                0)
          << what;
    }
    EXPECT_EQ(r.hip_tau, p.hip_tau) << what;
    EXPECT_EQ(r.hip_weight, p.hip_weight) << what;
  }
  if (mapped.ok()) {
    const MmapAdsSet& m = mapped.value();
    EXPECT_EQ(m.num_nodes(), p.num_nodes()) << what;
    EXPECT_EQ(m.TotalEntries(), p.TotalEntries()) << what;
    EXPECT_EQ(m.HipResident(), p.has_hip()) << what;
    auto range = m.Range(0);
    EXPECT_TRUE(range.ok()) << what;
    if (range.ok() && m.TotalEntries() == p.TotalEntries() &&
        !p.entries.empty()) {
      EXPECT_EQ(std::memcmp(range.value().entries, p.entries.data(),
                            p.entries.size() * sizeof(AdsEntry)),
                0)
          << what;
    }
  }
  return parsed;
}

}  // namespace hipads

#endif  // HIPADS_TESTS_V2_READERS_H_
