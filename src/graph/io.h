// Plain-text edge-list graph IO (the SNAP dataset format): one
// "tail head [weight]" triple per line, '#' and '%' comment lines ignored.
//
// The reader fails closed. A line is, between optional spaces, tabs and
// CRs separating the fields: two node ids of plain decimal digits (each
// at most 2^64 - 1), then optionally a finite weight in std::from_chars'
// general format (no leading '+', no hex), and nothing else. A negative
// weight is InvalidArgument; every other violation is Corruption naming
// the line. Blank and comment lines (first non-blank character '#' or
// '%') are skipped.

#ifndef HIPADS_GRAPH_IO_H_
#define HIPADS_GRAPH_IO_H_

#include <string>
#include <string_view>

#include "graph/graph.h"
#include "util/status.h"

namespace hipads {

/// Parses an edge list. Node ids may be sparse; they are remapped to a
/// dense [0, n) range in first-appearance order (tail before head).
StatusOr<Graph> ParseEdgeList(std::string_view text, bool undirected);

/// Reads an edge-list file (SNAP format) in one read and parses it.
StatusOr<Graph> ReadEdgeListFile(const std::string& path, bool undirected);

/// Writes `g` as an edge-list file. Undirected graphs emit each edge once.
/// Weights other than 1 are written in the shortest form that reads back
/// as the same double.
Status WriteEdgeListFile(const Graph& g, const std::string& path);

}  // namespace hipads

#endif  // HIPADS_GRAPH_IO_H_
