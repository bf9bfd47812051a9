// Random graph generators used to synthesize Table-I-scale social networks.
//
// The paper evaluates on SNAP datasets that cannot be downloaded in this
// environment; DESIGN.md documents the substitution. Barabasi-Albert /
// directed preferential attachment reproduce the heavy-tailed degree
// distributions of social graphs, Watts-Strogatz the high clustering of
// friendship networks, and Erdos-Renyi serves as a homogeneous control.

#ifndef PRIVIM_GRAPH_GENERATORS_H_
#define PRIVIM_GRAPH_GENERATORS_H_

#include "privim/common/rng.h"
#include "privim/graph/graph.h"

namespace privim {

/// Undirected Barabasi-Albert preferential attachment; each arriving node
/// attaches `edges_per_node` edges. Requires edges_per_node >= 1.
Result<Graph> BarabasiAlbert(int64_t num_nodes, int64_t edges_per_node,
                             Rng* rng);

/// Undirected Watts-Strogatz small world: ring lattice of even degree
/// `mean_degree` with rewiring probability `beta`.
Result<Graph> WattsStrogatz(int64_t num_nodes, int64_t mean_degree,
                            double beta, Rng* rng);

/// Directed preferential attachment (Bollobas-style simplification): each
/// arriving node emits `out_edges_per_node` arcs whose targets are chosen
/// proportionally to in-degree + 1. Produces heavy-tailed in-degrees like
/// email/trust networks.
Result<Graph> DirectedPreferentialAttachment(int64_t num_nodes,
                                             int64_t out_edges_per_node,
                                             Rng* rng);

/// Parallel undirected Barabasi-Albert via the copy model: each attachment
/// edge picks a uniform endpoint of the pre-existing edge pool (exactly the
/// repeated-nodes distribution the serial generator samples), generated on
/// the global ThreadPool from one SplitRng stream per edge slot.
/// Bit-identical at every thread count for a given (num_nodes,
/// edges_per_node, seed); note it draws a *different* graph than the serial
/// generator for the same seed, since the two consume randomness
/// differently. This is the generator that reaches 10M+ nodes
/// (bench BM_GenerateBa).
Result<Graph> BarabasiAlbertParallel(int64_t num_nodes, int64_t edges_per_node,
                                     uint64_t seed);

/// Undirected stochastic block model over `num_blocks` contiguous,
/// near-equal node ranges: a pair inside a block is an edge with
/// probability `p_in`, a pair across blocks with probability `p_out`
/// (the planted-partition setting link-prediction papers evaluate on).
/// Geometric skip-sampling over fixed pair-index chunks, each with its own
/// SplitRng stream: parallel, linear in the number of edges drawn, and
/// bit-identical at every thread count.
Result<Graph> StochasticBlockModel(int64_t num_nodes, int64_t num_blocks,
                                   double p_in, double p_out, uint64_t seed);

}  // namespace privim

#endif  // PRIVIM_GRAPH_GENERATORS_H_
