// Adaptive frequency sampling (the FreqSampling routine of Alg. 3).
//
// Random walk where a neighbor v is chosen with probability proportional to
// e_v = 1/(f_v + 1)^mu when f_v < M, and 0 once v has saturated the global
// frequency threshold M (Eq. 9). The frequency vector counts how many
// *completed* subgraphs contain each node, so the sampler enforces the hard
// occurrence bound N_g* = M that Sec. IV's privacy analysis relies on.

#ifndef PRIVIM_SAMPLING_FREQ_SAMPLER_H_
#define PRIVIM_SAMPLING_FREQ_SAMPLER_H_

#include <span>
#include <vector>

#include "privim/common/rng.h"
#include "privim/graph/graph.h"
#include "privim/graph/subgraph.h"

namespace privim {

struct FreqSamplingOptions {
  int64_t subgraph_size = 40;        ///< n
  double restart_probability = 0.3;  ///< tau
  double decay = 1.0;                ///< mu — frequency decay exponent
  double sampling_rate = 0.1;        ///< q
  int64_t walk_length = 200;         ///< L
  int64_t frequency_threshold = 6;   ///< M

  Status Validate() const;
};

/// Runs FreqSampling(f, G, n). `frequency` must have graph.num_nodes()
/// entries, none negative, and is updated in place as subgraphs complete
/// (Alg. 3 line 26). The returned subgraphs carry node ids of `graph`.
Result<std::vector<Subgraph>> FreqSampling(const Graph& graph,
                                           const FreqSamplingOptions& options,
                                           std::vector<int64_t>* frequency,
                                           Rng* rng);

/// FreqSampling on the boundary graph G_re of Alg. 3 (BES), run on `graph`
/// itself. `boundary` lists, ascending, the nodes whose frequency was below
/// M when stage 1 ended; every other node must be saturated. A saturated
/// node has e_v = 0, so each step sees G_re's candidates in G_re's order,
/// and the output is what FreqSampling on G_re would return, remapped to
/// `graph` ids. A node's rank in `boundary` is its G_re id: it keys the
/// node's select, walk and rerun streams and its wave. A start with no
/// neighbour in `boundary` (degree 0 in G_re) is skipped. FreqSampling is
/// this with every node in `boundary`.
Result<std::vector<Subgraph>> BoundaryFreqSampling(
    const Graph& graph, std::span<const NodeId> boundary,
    const FreqSamplingOptions& options, std::vector<int64_t>* frequency,
    Rng* rng);

}  // namespace privim

#endif  // PRIVIM_SAMPLING_FREQ_SAMPLER_H_
