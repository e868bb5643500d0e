#include "graph/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/default_init.h"

namespace hipads {

namespace {

bool IsBlank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

const char* SkipBlanks(const char* p, const char* end) {
  while (p < end && IsBlank(*p)) ++p;
  return p;
}

// The field starting at p, up to the next blank or the end of the line,
// quoted and cut short for an error message.
std::string Quoted(const char* p, const char* end) {
  const char* q = p;
  while (q < end && !IsBlank(*q)) ++q;
  constexpr size_t kMaxShown = 32;
  const size_t length = static_cast<size_t>(q - p);
  std::string quoted = "\"";
  quoted.append(p, std::min(length, kMaxShown));
  quoted.append(length > kMaxShown ? "...\"" : "\"");
  return quoted;
}

// Raw ids to dense node ids in first-seen order. Ids below `dense_limit`
// index a table that grows to the largest such id seen; larger ids go
// through a hash map.
class IdInterner {
 public:
  explicit IdInterner(uint64_t dense_limit) : dense_limit_(dense_limit) {}

  // False when `raw` would be the 2^32-th distinct id: NodeId has no room.
  bool Intern(uint64_t raw, NodeId* out) {
    NodeId* slot = nullptr;
    if (raw < dense_limit_) {
      if (raw >= dense_.size()) {
        dense_.resize(std::min<uint64_t>(
                          dense_limit_,
                          std::max<uint64_t>(raw + 1, 2 * dense_.size())),
                      kUnseen);
      }
      slot = &dense_[raw];
    } else {
      slot = &sparse_.try_emplace(raw, kUnseen).first->second;
    }
    if (*slot == kUnseen) {
      if (count_ == kUnseen) return false;
      *slot = count_++;
    }
    *out = *slot;
    return true;
  }

  NodeId size() const { return count_; }

 private:
  static constexpr NodeId kUnseen = std::numeric_limits<NodeId>::max();

  const uint64_t dense_limit_;
  std::vector<NodeId> dense_;
  std::unordered_map<uint64_t, NodeId> sparse_;
  NodeId count_ = 0;
};

}  // namespace

StatusOr<Graph> ParseEdgeList(std::string_view text, bool undirected) {
  // An edge takes a line of at least 4 bytes ("0 1\n"), so hostile text
  // cannot reserve more than 4 bytes of edges per byte read. The id table
  // covers ids below the text's length, which holds every id of a list
  // numbered from 0 (n distinct ids take at least 2n bytes), also in at
  // most 4 bytes per byte read.
  std::vector<Edge> edges;
  edges.reserve(std::min<size_t>(
      std::count(text.begin(), text.end(), '\n') + 1, text.size() / 4 + 1));
  IdInterner ids(text.size());

  const char* p = text.data();
  const char* const end = p + text.size();
  uint64_t lineno = 0;
  auto malformed = [&lineno](const std::string& what) {
    return Status::Corruption("malformed edge at line " +
                              std::to_string(lineno) + ": " + what);
  };
  // Reads the node id at q, plain decimal digits ending at a blank or at
  // the end of the line, and moves q past it.
  auto parse_id = [&](const char*& q, const char* eol, uint64_t* raw) {
    auto [next, ec] = std::from_chars(q, eol, *raw, 10);
    if (ec == std::errc::result_out_of_range) {
      return malformed("node id " + Quoted(q, eol) + " exceeds 2^64 - 1");
    }
    if (ec != std::errc() || (next < eol && !IsBlank(*next))) {
      return malformed("node id " + Quoted(q, eol) +
                       " is not plain decimal digits");
    }
    q = next;
    return Status::Ok();
  };

  while (p < end) {
    ++lineno;
    const char* eol =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    if (eol == nullptr) eol = end;
    const char* q = SkipBlanks(p, eol);
    p = eol == end ? end : eol + 1;
    if (q == eol || *q == '#' || *q == '%') continue;

    uint64_t raw_tail = 0, raw_head = 0;
    Status s = parse_id(q, eol, &raw_tail);
    if (!s.ok()) return s;
    q = SkipBlanks(q, eol);
    if (q == eol) return malformed("expected two node ids");
    s = parse_id(q, eol, &raw_head);
    if (!s.ok()) return s;
    q = SkipBlanks(q, eol);

    double w = 1.0;
    if (q < eol) {
      auto [next, ec] = std::from_chars(q, eol, w);
      if (ec == std::errc::result_out_of_range) {
        return malformed("weight " + Quoted(q, eol) + " is out of range");
      }
      if (ec != std::errc() || (next < eol && !IsBlank(*next))) {
        return malformed("weight " + Quoted(q, eol) + " is not a number");
      }
      if (!std::isfinite(w)) {
        return malformed("weight " + Quoted(q, eol) + " is not finite");
      }
      if (w < 0.0) {
        return Status::InvalidArgument("negative edge weight at line " +
                                       std::to_string(lineno));
      }
      q = SkipBlanks(next, eol);
      if (q < eol) {
        return malformed("unexpected " + Quoted(q, eol) +
                         " after the weight (a line holds tail, head and "
                         "an optional weight)");
      }
    }

    NodeId tail = 0, head = 0;
    if (!ids.Intern(raw_tail, &tail) || !ids.Intern(raw_head, &head)) {
      return malformed("more than " +
                       std::to_string(std::numeric_limits<NodeId>::max()) +
                       " distinct node ids");
    }
    edges.push_back(Edge{tail, head, w});
  }
  if (ids.size() == 0) return Status::InvalidArgument("empty edge list");
  return Graph(ids.size(), edges, undirected);
}

StatusOr<Graph> ReadEdgeListFile(const std::string& path, bool undirected) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  // Sized to the file, plus a byte so that the read which meets the end
  // need not grow it; pipes and files that grow double it instead.
  struct stat st;
  const size_t size_hint =
      ::fstat(fd, &st) == 0 && st.st_size > 0 ? st.st_size + 1 : 1 << 16;
  DefaultInitVector<char> text(size_hint);
  size_t used = 0;
  for (;;) {
    if (used == text.size()) text.resize(2 * text.size());
    ssize_t got = ::read(fd, text.data() + used, text.size() - used);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) {
      ::close(fd);
      return Status::IOError("read failed for " + path + ": " +
                             std::strerror(errno));
    }
    if (got == 0) break;
    used += static_cast<size_t>(got);
  }
  ::close(fd);
  return ParseEdgeList(std::string_view(text.data(), used), undirected);
}

Status WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream f(path);
  if (!f) return Status::IOError("cannot open " + path + " for writing");
  f << "# hipads edge list: " << g.num_nodes() << " nodes, "
    << (g.undirected() ? g.num_arcs() / 2 : g.num_arcs()) << " edges\n";
  // Lines are formatted with to_chars into a block, written a block at a
  // time. A line is at most two 10-digit ids, a 24-character weight, two
  // tabs and a newline.
  constexpr size_t kBlock = size_t{1} << 16;
  constexpr size_t kMaxLine = 64;
  std::vector<char> block(kBlock);
  char* const begin = block.data();
  char* const end = begin + kBlock;
  char* p = begin;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Arc& a : g.OutArcs(v)) {
      if (g.undirected() && a.head < v) continue;  // emit each edge once
      if (end - p < static_cast<ptrdiff_t>(kMaxLine)) {
        f.write(begin, p - begin);
        p = begin;
      }
      p = std::to_chars(p, end, v).ptr;
      *p++ = '\t';
      p = std::to_chars(p, end, a.head).ptr;
      if (a.weight != 1.0) {
        // The shortest form that reads back as the same double.
        *p++ = '\t';
        p = std::to_chars(p, end, a.weight).ptr;
      }
      *p++ = '\n';
    }
  }
  f.write(begin, p - begin);
  // Close before reporting: a write error can surface only when close
  // flushes the last buffer (a full disk).
  f.close();
  if (!f) return Status::IOError("write failed for " + path);
  return Status::Ok();
}

}  // namespace hipads
