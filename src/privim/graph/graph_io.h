// Plain-text edge-list I/O so the pipeline can run on real SNAP datasets.
//
// Format: one arc per line, "src dst [weight]". Lines end in '\n'; one '\r'
// before it is dropped (CRLF files), and a last line needs no '\n'. A line
// that is empty, starts with '#' or '%', or holds only spaces and tabs is
// skipped. Fields are separated by C-locale whitespace (space, '\t', '\v',
// '\f', '\r'), so a line of only such bytes that the rule above does not
// skip (a '\v', or "\r\r") is a data line with no fields, and malformed.
//
// A node id is an optional '+' and decimal digits that fit an int64; a '-'
// (even "-0") or any other byte, NUL included, makes it malformed. Ids are
// numbered 0, 1, 2, ... in order of first appearance, source before target.
// A self-loop line is dropped before its ids are numbered, so a node named
// only by self-loops is not in the graph. The weight defaults to 1; it is
// read with strtod (exponents, '+', hex floats, underflow) and must be a
// finite, non-negative number; weights above 1 are accepted as given. A
// duplicate arc keeps the first line's weight (undirected: the first line
// that names the pair either way).

#ifndef PRIVIM_GRAPH_GRAPH_IO_H_
#define PRIVIM_GRAPH_GRAPH_IO_H_

#include <string>

#include "privim/graph/graph.h"

namespace privim {

/// Loads an edge list. `undirected` symmetrizes every edge. A line that
/// does not parse — an id that is not a non-negative integer, a weight that
/// is not a finite non-negative number, a fourth field, a NUL byte — fails
/// the load with IOError "malformed line N in PATH: <reason>". A directory
/// and a read that fails are IOErrors too; a FIFO loads as its bytes do
/// from a regular file.
Result<Graph> LoadEdgeList(const std::string& path, bool undirected);

/// Writes `graph` as "src dst weight" lines. Every weight reloads to the
/// same float bits.
Status SaveEdgeList(const Graph& graph, const std::string& path);

}  // namespace privim

#endif  // PRIVIM_GRAPH_GRAPH_IO_H_
