// Model persistence: save a trained GNN's architecture and weights to a
// plain-text file and restore it later. A trained (privatized) model is
// exactly the artifact node-level DP lets you release — this is the format
// the privim_cli tool exchanges between its train / select subcommands.
//
// Format (line-oriented, locale-independent):
//   privim-model v1
//   kind <gcn|sage|gat|grat|gin>
//   input_dim <d>  hidden_dim <h>  num_layers <l>  leaky_slope <s>
//   params <count>
//   <rows> <cols> followed by rows*cols floats (hex float for exactness)

#ifndef PRIVIM_GNN_SERIALIZATION_H_
#define PRIVIM_GNN_SERIALIZATION_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "privim/gnn/models.h"

namespace privim {

/// Writes architecture + parameter values to `out` (the same format
/// SaveGnnModel puts on disk). The checkpoint subsystem embeds this
/// encoding inside its snapshots.
Status WriteGnnModel(const GnnModel& model, std::ostream& out);

/// Reconstructs a model from a stream written by WriteGnnModel. Weight
/// values are restored bit-exactly (hex float encoding). The header must
/// describe a ParamLayout and every tensor must have its shape; a tensor
/// is allocated as its values arrive, so memory is bounded by the bytes
/// read, whatever the header claims. Every failure is IOError.
Result<std::unique_ptr<GnnModel>> ReadGnnModel(std::istream& in);

/// Writes architecture + parameter values to `path`. The write is atomic
/// (temp file + rename), so a crash mid-save cannot leave a truncated
/// model file — at worst the previous content survives.
Status SaveGnnModel(const GnnModel& model, const std::string& path);

/// Reconstructs a model saved by SaveGnnModel. Weight values are restored
/// bit-exactly (hex float encoding).
Result<std::unique_ptr<GnnModel>> LoadGnnModel(const std::string& path);

}  // namespace privim

#endif  // PRIVIM_GNN_SERIALIZATION_H_
