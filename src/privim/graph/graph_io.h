// Plain-text edge-list I/O so the pipeline can run on real SNAP datasets.
//
// Format: one arc per line, "src dst [weight]", '#'- or '%'-prefixed
// comment lines and blank lines ignored, fields separated by spaces or tabs,
// CRLF line ends accepted. Node ids are arbitrary non-negative integers and
// are densely remapped on load. The weight defaults to 1 and must be a
// finite, non-negative number; weights above 1 are accepted as given.

#ifndef PRIVIM_GRAPH_GRAPH_IO_H_
#define PRIVIM_GRAPH_GRAPH_IO_H_

#include <string>

#include "privim/graph/graph.h"

namespace privim {

/// Loads an edge list. `undirected` symmetrizes every edge. A line that
/// does not parse — a non-integer id, a weight that is not a finite
/// non-negative number, a fourth field — fails the load with IOError
/// "malformed line N in PATH: <reason>".
Result<Graph> LoadEdgeList(const std::string& path, bool undirected);

/// Writes `graph` as "src dst weight" lines.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace privim

#endif  // PRIVIM_GRAPH_GRAPH_IO_H_
