// Every hipads-lint rule is itself under test: each fires on a minimal
// violating fixture and stays silent on the conforming twin, the
// comment/string stripper cannot be fooled by prose or literals, the
// inline allow() escape hatch works, and the whole source tree is clean
// end to end (the same check `ctest -L lint` runs via the binary).

#include "tools/hipads_lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace hipads {
namespace lint {
namespace {

std::vector<Finding> FindingsFor(const std::string& rule,
                                 const std::vector<Finding>& findings) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

std::vector<Finding> LintOne(const std::string& path,
                             const std::string& content) {
  return RunLint({FileInput{path, content}});
}

// ---------------------------------------------------------------------
// HL001 — nondeterminism primitives in deterministic paths.
// ---------------------------------------------------------------------

TEST(LintTest, HL001FiresOnRandomPrimitivesInDeterministicPaths) {
  auto findings = LintOne("src/ads/hip.cc",
                          "#include <random>\n"
                          "int Draw() {\n"
                          "  std::random_device rd;\n"
                          "  return rand() % 7;\n"
                          "}\n"
                          "double Now() {\n"
                          "  return std::chrono::steady_clock::now()\n"
                          "      .time_since_epoch().count();\n"
                          "}\n"
                          "long Stamp() { return time(nullptr); }\n");
  auto hl001 = FindingsFor("HL001", findings);
  ASSERT_EQ(hl001.size(), 4u);
  EXPECT_EQ(hl001[0].line, 3u);  // random_device
  EXPECT_EQ(hl001[1].line, 4u);  // rand()
  EXPECT_EQ(hl001[2].line, 7u);  // steady_clock
  EXPECT_EQ(hl001[3].line, 10u);  // time(
}

TEST(LintTest, HL001SilentOnConformingCodeAndOutsideScope) {
  // Seeded explicit RNG plumbing and similarly-named identifiers are
  // fine; so is a clock read outside the deterministic trees.
  EXPECT_TRUE(LintOne("src/ads/hip.cc",
                      "double RunTime(int t) { return t * 2.0; }\n"
                      "int mtime(int t) { return t; }\n"
                      "struct randish { int v; };\n")
                  .empty());
  EXPECT_TRUE(FindingsFor("HL001",
                          LintOne("src/serve/server.cc",
                                  "auto t = std::chrono::steady_clock::now();\n"))
                  .empty());
}

TEST(LintTest, HL001IgnoresCommentsAndStrings) {
  EXPECT_TRUE(LintOne("src/sketch/rank.cc",
                      "// rand() would break determinism here\n"
                      "/* so would std::random_device */\n"
                      "const char* kMsg = \"do not call time() here\";\n")
                  .empty());
}

// ---------------------------------------------------------------------
// HL002 — unordered-container iteration in order-sensitive code.
// ---------------------------------------------------------------------

TEST(LintTest, HL002FiresOnUnorderedIteration) {
  auto findings = LintOne(
      "src/serve/gather.cc",
      "#include <unordered_map>\n"
      "std::unordered_map<int, double> staged_;\n"
      "double Reduce() {\n"
      "  double total = 0;\n"
      "  for (const auto& [k, v] : staged_) total += v;\n"
      "  return total;\n"
      "}\n"
      "auto First() { return staged_.begin(); }\n");
  auto hl002 = FindingsFor("HL002", findings);
  ASSERT_EQ(hl002.size(), 2u);
  EXPECT_EQ(hl002[0].line, 5u);
  EXPECT_EQ(hl002[1].line, 8u);
}

TEST(LintTest, HL002SilentOnPointLookupsAndOrderedContainers) {
  // find/erase/count on an unordered map are order-free; iterating a
  // std::map is ordered; and unordered iteration outside the
  // order-sensitive paths is not this rule's business.
  EXPECT_TRUE(LintOne("src/serve/cache.cc",
                      "std::unordered_map<int, int> index_;\n"
                      "bool Has(int k) { return index_.find(k) !="
                      " index_.end(); }\n")
                  .empty());
  EXPECT_TRUE(LintOne("src/serve/gather.cc",
                      "std::map<int, double> staged_;\n"
                      "double Reduce() {\n"
                      "  double t = 0;\n"
                      "  for (const auto& [k, v] : staged_) t += v;\n"
                      "  return t;\n"
                      "}\n")
                  .empty());
  EXPECT_TRUE(LintOne("src/graph/io.cc",
                      "std::unordered_set<int> seen_;\n"
                      "void All() { for (int v : seen_) (void)v; }\n")
                  .empty());
}

// ---------------------------------------------------------------------
// HL003 — EncodePartial without AbsorbPartial.
// ---------------------------------------------------------------------

TEST(LintTest, HL003FiresOnHalfOverriddenPartialSeam) {
  auto findings = LintOne(
      "src/ads/extra.h",
      "class BrokenCollector : public SweepCollector {\n"
      " public:\n"
      "  std::string EncodePartial(NodeId b, NodeId e) const override;\n"
      "};\n");
  auto hl003 = FindingsFor("HL003", findings);
  ASSERT_EQ(hl003.size(), 1u);
  EXPECT_EQ(hl003[0].line, 1u);
  EXPECT_NE(hl003[0].message.find("BrokenCollector"), std::string::npos);
}

TEST(LintTest, HL003SilentWhenBothOverriddenOrNeither) {
  EXPECT_TRUE(LintOne("src/ads/extra.h",
                      "class GoodCollector : public SweepCollector {\n"
                      " public:\n"
                      "  std::string EncodePartial(NodeId b, NodeId e)"
                      " const override;\n"
                      "  Status AbsorbPartial(NodeId b, NodeId e,"
                      " std::string_view p) override;\n"
                      "};\n")
                  .empty());
  // The base class declares the pair virtual, without `override`.
  EXPECT_TRUE(LintOne("src/ads/base.h",
                      "class SweepCollector {\n"
                      " public:\n"
                      "  virtual std::string EncodePartial(NodeId, NodeId)"
                      " const;\n"
                      "  virtual Status AbsorbPartial(NodeId, NodeId,"
                      " std::string_view);\n"
                      "};\n")
                  .empty());
}

// ---------------------------------------------------------------------
// HL004 — wire enum coverage across serve sources and fuzz corpus.
// ---------------------------------------------------------------------

TEST(LintTest, HL004FiresOnUncoveredEnumerators) {
  std::vector<FileInput> files = {
      {"src/serve/protocol.h",
       "enum class PetKind : uint32_t {\n"
       "  kCat = 1,\n"
       "  kDog = 2,\n"
       "};\n"},
      {"src/serve/protocol.cc",
       "void Encode(PetKind k) {\n"
       "  if (k == PetKind::kCat) {}\n"  // kDog never encoded
       "}\n"},
      {"tests/serve_fuzz_test.cc",
       "auto a = PetKind::kCat;\n"
       "auto b = PetKind::kDog;\n"},
  };
  auto hl004 = FindingsFor("HL004", RunLint(files));
  ASSERT_EQ(hl004.size(), 1u);
  EXPECT_EQ(hl004[0].file, "src/serve/protocol.h");
  EXPECT_EQ(hl004[0].line, 3u);
  EXPECT_NE(hl004[0].message.find("PetKind::kDog"), std::string::npos);

  // Drop kDog from the fuzz corpus too: now it is missing twice.
  files[2].content = "auto a = PetKind::kCat;\n";
  EXPECT_EQ(FindingsFor("HL004", RunLint(files)).size(), 2u);
}

TEST(LintTest, HL004SilentWhenEveryEnumeratorIsCovered) {
  std::vector<FileInput> files = {
      {"src/serve/protocol.h",
       "enum class PetKind : uint32_t { kCat = 1, kDog = 2 };\n"},
      {"src/serve/server.cc",
       "void Handle() { (void)PetKind::kCat; (void)PetKind::kDog; }\n"},
      {"tests/serve_fuzz_test.cc",
       "auto a = PetKind::kCat; auto b = PetKind::kDog;\n"},
  };
  EXPECT_TRUE(FindingsFor("HL004", RunLint(files)).empty());
}

// ---------------------------------------------------------------------
// HL005 — raw locking primitives outside the wrapper.
// ---------------------------------------------------------------------

TEST(LintTest, HL005FiresOnRawMutexUse) {
  auto findings = LintOne("src/serve/pool.cc",
                          "#include <mutex>\n"
                          "std::mutex mu;\n"
                          "void F() { std::lock_guard<std::mutex> l(mu); }\n"
                          "std::condition_variable cv;\n");
  auto hl005 = FindingsFor("HL005", findings);
  ASSERT_EQ(hl005.size(), 4u);
  EXPECT_EQ(hl005[0].line, 1u);  // the include
  EXPECT_EQ(hl005[1].line, 2u);
  EXPECT_EQ(hl005[2].line, 3u);
  EXPECT_EQ(hl005[3].line, 4u);
}

TEST(LintTest, HL005SilentOnWrapperUseAndOutsideSrc) {
  EXPECT_TRUE(LintOne("src/serve/pool.cc",
                      "#include \"util/mutex.h\"\n"
                      "Mutex mu;\n"
                      "void F() { MutexLock l(mu); }\n")
                  .empty());
  // Tests and tools may use raw primitives (they are not under the
  // thread-safety analysis contract).
  EXPECT_TRUE(LintOne("tests/some_test.cc", "std::mutex mu;\n").empty());
}

// ---------------------------------------------------------------------
// HL006 — wall-clock metric instruments outside the serving layer.
// ---------------------------------------------------------------------

TEST(LintTest, HL006FiresOnHistogramUseInDeterministicTrees) {
  auto findings = LintOne(
      "src/ads/hot_path.cc",
      "#include \"util/metrics.h\"\n"
      "MetricHistogram* h = MetricsRegistry::Get().Histogram(\"x\");\n"
      "void F(MetricHistogram* hist) { ScopedLatencyTimer t(hist); }\n");
  auto hl006 = FindingsFor("HL006", findings);
  ASSERT_EQ(hl006.size(), 2u);
  EXPECT_EQ(hl006[0].line, 2u);
  EXPECT_EQ(hl006[1].line, 3u);
}

TEST(LintTest, HL006SilentOnCountersAndInsideServingLayer) {
  // Counters and gauges are count instruments — allowed anywhere.
  EXPECT_TRUE(
      FindingsFor(
          "HL006",
          LintOne("src/ads/shard.cc",
                  "#include \"util/metrics.h\"\n"
                  "static MetricCounter* loads =\n"
                  "    MetricsRegistry::Get().Counter(\"ads.shard.loads\");\n"
                  "MetricCounter* c = MetricsRegistry::Get().Counter(\"x\");\n"
                  "MetricGauge* g = MetricsRegistry::Get().Gauge(\"y\");\n"))
          .empty());
  // Snapshot plumbing is not an instrument.
  EXPECT_TRUE(
      FindingsFor("HL006", LintOne("src/ads/snap.cc",
                                   "MetricsSnapshot::HistogramValue v;\n"))
          .empty());
  // The serving layer, the metrics implementation itself, and tools /
  // tests are unrestricted.
  EXPECT_TRUE(FindingsFor("HL006", LintOne("src/serve/server.cc",
                                           "ScopedLatencyTimer t(h);\n"))
                  .empty());
  EXPECT_TRUE(FindingsFor("HL006", LintOne("src/util/metrics.h",
                                           "class MetricHistogram {};\n"))
                  .empty());
  EXPECT_TRUE(
      FindingsFor("HL006", LintOne("tools/bench.cc", "MetricHistogram h;\n"))
          .empty());
  // The inline allow works for HL006 like every other rule.
  EXPECT_TRUE(
      FindingsFor(
          "HL006",
          LintOne("src/ads/x.cc",
                  "ScopedLatencyTimer t(h);  // hipads-lint: allow(HL006)\n"))
          .empty());
}

TEST(LintTest, InlineAllowSuppressesExactlyThatRuleOnThatLine) {
  const std::string body =
      "std::mutex mu_;  // hipads-lint: allow(HL005) — wrapped primitive\n"
      "std::mutex other_;\n";
  auto findings = LintOne("src/util/wrapper.h", body);
  auto hl005 = FindingsFor("HL005", findings);
  ASSERT_EQ(hl005.size(), 1u);
  EXPECT_EQ(hl005[0].line, 2u);
  // An allow for a different rule does not suppress HL005.
  EXPECT_EQ(FindingsFor(
                "HL005",
                LintOne("src/util/wrapper.h",
                        "std::mutex mu_;  // hipads-lint: allow(HL001)\n"))
                .size(),
            1u);
}

// ---------------------------------------------------------------------
// Engine pieces.
// ---------------------------------------------------------------------

TEST(LintTest, StripperBlanksCommentsAndStringsButKeepsLineNumbers) {
  const std::string text =
      "int a = 1; // trailing rand()\n"
      "/* block\n"
      "   spanning lines */ int b = 2;\n"
      "const char* s = \"std::mutex \\\" escaped\";\n"
      "char c = '\\'';\n";
  std::string stripped = StripCommentsAndStrings(text);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_EQ(stripped.find("spanning"), std::string::npos);
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int b = 2;"), std::string::npos);
  EXPECT_NE(stripped.find("const char* s = "), std::string::npos);
}

TEST(LintTest, FindingsAreSortedAndFormatted) {
  Finding f{"src/x.cc", 12, "HL001", "message text"};
  EXPECT_EQ(FormatFinding(f), "src/x.cc:12: HL001: message text");
  auto findings = RunLint({
      FileInput{"src/ads/z.cc", "int a = rand();\nint b = rand();\n"},
      FileInput{"src/ads/a.cc", "int c = rand();\n"},
  });
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/ads/a.cc");
  EXPECT_EQ(findings[1].file, "src/ads/z.cc");
  EXPECT_EQ(findings[1].line, 1u);
  EXPECT_EQ(findings[2].line, 2u);
}

// ---------------------------------------------------------------------
// End to end: the tree this test was built from must be clean.
// ---------------------------------------------------------------------

TEST(LintTest, SourceTreeIsClean) {
  std::vector<Finding> findings = LintTree(HIPADS_SOURCE_ROOT);
  for (const Finding& f : findings) {
    ADD_FAILURE() << FormatFinding(f);
  }
}

}  // namespace
}  // namespace lint
}  // namespace hipads
