#include "graph/io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_map>

#include "graph/generators.h"

namespace hipads {
namespace {

// The istringstream parser that ParseEdgeList replaced, kept verbatim as
// the reference for every input both accept. It fails open (a weight that
// does not parse becomes 1, a signed id wraps, text after the weight is
// ignored), so only accepted inputs are compared with it.
StatusOr<Graph> ReferenceParseEdgeList(const std::string& text,
                                       bool undirected) {
  std::vector<Edge> edges;
  std::unordered_map<uint64_t, NodeId> remap;
  auto intern = [&remap](uint64_t raw) {
    auto [it, inserted] = remap.try_emplace(
        raw, static_cast<NodeId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  std::istringstream in(text);
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos) continue;
    if (line[pos] == '#' || line[pos] == '%') continue;
    std::istringstream ls(line);
    uint64_t raw_tail, raw_head;
    if (!(ls >> raw_tail >> raw_head)) {
      return Status::Corruption("malformed edge at line " +
                                std::to_string(lineno));
    }
    double w = 1.0;
    if (!(ls >> w)) w = 1.0;
    if (w < 0.0) {
      return Status::InvalidArgument("negative edge weight at line " +
                                     std::to_string(lineno));
    }
    edges.push_back(Edge{intern(raw_tail), intern(raw_head), w});
  }
  NodeId n = static_cast<NodeId>(remap.size());
  if (n == 0) return Status::InvalidArgument("empty edge list");
  return Graph(n, edges, undirected);
}

// Node count, direction and every node's arcs in order, weights bitwise.
void ExpectSameGraph(const Graph& got, const Graph& want,
                     const std::string& what) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  ASSERT_EQ(got.num_arcs(), want.num_arcs()) << what;
  EXPECT_EQ(got.undirected(), want.undirected()) << what;
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    std::span<const Arc> a = got.OutArcs(v), b = want.OutArcs(v);
    ASSERT_EQ(a.size(), b.size()) << what << " node " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].head, b[i].head) << what << " node " << v;
      ASSERT_EQ(std::bit_cast<uint64_t>(a[i].weight),
                std::bit_cast<uint64_t>(b[i].weight))
          << what << " node " << v;
    }
  }
}

// A per-process temp file path, removed when the test leaves its scope,
// failed assertions included.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              (name + "_" + std::to_string(::getpid())))
                 .string()) {}
  ~TempFile() { std::remove(path.c_str()); }
  const std::string path;
};

std::string ReadText(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::stringstream contents;
  contents << f.rdbuf();
  return contents.str();
}

TEST(IoTest, ParseSimpleEdgeList) {
  auto result = ParseEdgeList("0 1\n1 2\n", /*undirected=*/false);
  ASSERT_TRUE(result.ok());
  const Graph& g = result.value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_arcs(), 2u);
}

TEST(IoTest, ParseSkipsComments) {
  auto result = ParseEdgeList("# SNAP header\n% other comment\n0 1\n", false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_arcs(), 1u);
}

TEST(IoTest, ParseWeights) {
  auto result = ParseEdgeList("0 1 2.5\n1 2\n", false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().OutArcs(0)[0].weight, 2.5);
  EXPECT_EQ(result.value().OutArcs(1)[0].weight, 1.0);
}

TEST(IoTest, ParseRemapsSparseIds) {
  auto result = ParseEdgeList("1000000 42\n42 7\n", false);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_nodes(), 3u);
}

TEST(IoTest, ParseRejectsMalformed) {
  auto result = ParseEdgeList("0 x\n", false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kCorruption);
}

TEST(IoTest, ParseRejectsNegativeWeight) {
  auto result = ParseEdgeList("0 1 -2\n", false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
}

TEST(IoTest, ParseRejectsEmpty) {
  auto result = ParseEdgeList("# only comments\n", false);
  EXPECT_FALSE(result.ok());
}

TEST(IoTest, ReadMissingFileFails) {
  auto result = ReadEdgeListFile("/nonexistent/path/graph.txt", false);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kIOError);
}

TEST(IoTest, WriteReadRoundTrip) {
  Graph g = ErdosRenyi(50, 120, /*undirected=*/true, 9);
  std::string path =
      (std::filesystem::temp_directory_path() / "hipads_io_test.txt")
          .string();
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto back = ReadEdgeListFile(path, /*undirected=*/true);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(back.value().num_arcs(), g.num_arcs());
  std::remove(path.c_str());
}

// A write error that surfaces only when close flushes the last buffer
// still fails the write: /dev/full takes the open and a 10-node list into
// the stream buffer, then fails the final flush.
TEST(IoTest, WriteToAFullDeviceFails) {
  Status s = WriteEdgeListFile(BarabasiAlbert(10, 3, 1), "/dev/full");
  EXPECT_EQ(s.code(), Status::Code::kIOError) << s.ToString();
}

// Every edge comes back with its weight's exact bits: the writer prints
// the shortest form that reads back as the same double. The reader
// renumbers nodes in first-seen order, so the expected graph is `g`'s
// edges, in the order they are written, under that renumbering.
TEST(IoTest, WriteReadWeightedRoundTrip) {
  Graph g = RandomizeWeights(Grid2D(4, 4), 0.5, 2.0, 3);
  TempFile file("hipads_io_wtest.txt");
  ASSERT_TRUE(WriteEdgeListFile(g, file.path).ok());
  auto back = ReadEdgeListFile(file.path, true);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  std::vector<NodeId> renumbered(g.num_nodes(), g.num_nodes());
  NodeId next = 0;
  auto id = [&](NodeId v) {
    if (renumbered[v] == g.num_nodes()) renumbered[v] = next++;
    return renumbered[v];
  };
  std::vector<Edge> written;
  for (const Edge& e : g.ToEdgeList()) {
    if (e.head < e.tail) continue;  // written once, from its lower end
    NodeId tail = id(e.tail);
    written.push_back(Edge{tail, id(e.head), e.weight});
  }
  EXPECT_EQ(written.size(), 24u);
  ExpectSameGraph(back.value(), Graph(next, written, true), "grid weights");
  EXPECT_FALSE(back.value().IsUnitWeight());
}

// Every generator's written edge list reads back as the graph the
// replaced parser built from the same bytes, arc for arc, directed and
// undirected, with unit and real weights.
TEST(IoTest, ParserMatchesTheReferenceParserOnEveryGeneratorsList) {
  const std::vector<std::pair<std::string, std::function<Graph()>>> graphs = {
      {"Rmat(11, 8, 5)", [] { return Rmat(11, 8, 5); }},
      {"Rmat(11, 8, 5, undirected)", [] { return Rmat(11, 8, 5, true); }},
      {"ErdosRenyi directed", [] { return ErdosRenyi(500, 2000, false, 3); }},
      {"ErdosRenyi undirected", [] { return ErdosRenyi(500, 2000, true, 4); }},
      {"BarabasiAlbert", [] { return BarabasiAlbert(800, 3, 5); }},
      {"Grid2D", [] { return Grid2D(20, 30); }},
      {"Path directed", [] { return Path(50, true); }},
      {"Cycle", [] { return Cycle(40); }},
      {"Star", [] { return Star(30); }},
      {"Complete", [] { return Complete(12); }},
      {"BinaryTree", [] { return BinaryTree(63); }},
      {"WattsStrogatz", [] { return WattsStrogatz(300, 3, 0.2, 6); }},
      {"RandomizeWeights undirected",
       [] { return RandomizeWeights(Rmat(10, 8, 7, true), 0.5, 2.0, 8); }},
      {"RandomizeWeights directed",
       [] { return RandomizeWeights(ErdosRenyi(300, 900, false, 9), 0.0,
                                    1e-3, 10); }},
  };
  TempFile file("hipads_io_differential.txt");
  const std::string& path = file.path;
  for (const auto& [name, make] : graphs) {
    Graph g = make();
    ASSERT_TRUE(WriteEdgeListFile(g, path).ok()) << name;
    const std::string text = ReadText(path);
    auto want = ReferenceParseEdgeList(text, g.undirected());
    ASSERT_TRUE(want.ok()) << name << ": " << want.status().ToString();
    auto parsed = ParseEdgeList(text, g.undirected());
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.status().ToString();
    ExpectSameGraph(parsed.value(), want.value(), name + " (parse)");
    auto read = ReadEdgeListFile(path, g.undirected());
    ASSERT_TRUE(read.ok()) << name << ": " << read.status().ToString();
    ExpectSameGraph(read.value(), want.value(), name + " (file)");
    EXPECT_EQ(read.value().num_arcs(), g.num_arcs()) << name;
  }
}

// Inputs both parsers accept, spelled every way the grammar allows:
// comments after blanks, CRLF and a missing final newline, tabs, leading
// zeros, ids past the dense table (up to 2^64 - 1), and weights in every
// from_chars form, -0 included.
TEST(IoTest, ParserMatchesTheReferenceParserOnEveryAcceptedSpelling) {
  const std::vector<std::string> texts = {
      "0 1\n1 2\n",
      "# header\n  # indented comment\n% other\n\n \t\r\n0 1\n",
      "0 1 2.5\r\n1 2 0.25\r\n2 0",
      "\t0\t1\t3\t\n  1   2  \n",
      "007 7 .5\n7 08 5.\n8 0 1e-3\n0 9 1E2\n9 10 0\n10 11 -0\n",
      "5 18446744073709551615\n18446744073709551615 3 4e-320\n3 5 2\n",
      "1000000 42\n42 7\n7 1000000 1.7976931348623157e308\n",
  };
  for (const std::string& text : texts) {
    for (bool undirected : {false, true}) {
      auto want = ReferenceParseEdgeList(text, undirected);
      ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
      auto got = ParseEdgeList(text, undirected);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      ExpectSameGraph(got.value(), want.value(), text);
    }
  }
}

// Every line the grammar refuses, each placed at line 4 behind a comment,
// a good edge and a blank line, through both the string and the file
// reader. Rows the replaced parser loaded (with weight 1, weight 0, a
// wrapped id or a lost tail) come first.
TEST(IoTest, EveryMalformedLineFailsClosedNamingItsLine) {
  const struct {
    const char* line;
    Status::Code code;
  } rows[] = {
      {"0 1 abc", Status::Code::kCorruption},
      {"0 1 nan", Status::Code::kCorruption},
      {"1 2 inf", Status::Code::kCorruption},
      {"0 1 1e400", Status::Code::kCorruption},
      {"0 1 0x10", Status::Code::kCorruption},
      {"-1 2", Status::Code::kCorruption},
      {"0 1 2 junk", Status::Code::kCorruption},
      {"0 1 2 3", Status::Code::kCorruption},
      {"0 1 +1", Status::Code::kCorruption},
      {"0 1 -inf", Status::Code::kCorruption},
      {"0 1 1e-400", Status::Code::kCorruption},
      {"0 1 1e", Status::Code::kCorruption},
      {"0 1 # trailing comment", Status::Code::kCorruption},
      {"+0 1", Status::Code::kCorruption},
      {"0x10 1", Status::Code::kCorruption},
      {"0 1.5", Status::Code::kCorruption},
      {"18446744073709551616 1", Status::Code::kCorruption},
      {"0", Status::Code::kCorruption},
      {"0 x", Status::Code::kCorruption},
      {"0\v1", Status::Code::kCorruption},
      {"0 1 -2", Status::Code::kInvalidArgument},
      {"0 1 -1e-300", Status::Code::kInvalidArgument},
  };
  TempFile file("hipads_io_malformed.txt");
  for (const auto& row : rows) {
    const std::string text =
        std::string("# edges\n0 1\n\n") + row.line + "\n2 3\n";
    auto parsed = ParseEdgeList(text, /*undirected=*/true);
    ASSERT_FALSE(parsed.ok()) << row.line;
    EXPECT_EQ(parsed.status().code(), row.code)
        << row.line << ": " << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("line 4"), std::string::npos)
        << row.line << ": " << parsed.status().ToString();
    {
      std::ofstream f(file.path, std::ios::binary | std::ios::trunc);
      f << text;
    }
    auto read = ReadEdgeListFile(file.path, /*undirected=*/true);
    ASSERT_FALSE(read.ok()) << row.line;
    EXPECT_EQ(read.status().ToString(), parsed.status().ToString());
  }
}

}  // namespace
}  // namespace hipads
