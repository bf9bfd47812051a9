// Compiles a released GnnModel into a tape-free InferProgram.
//
// Compilation is structural: the model's kind (config().kind) selects the
// instruction sequence, and each instruction borrows the parameter that
// ParamLayout (gnn/models.h) places in that role. A GnnModel is built only
// by CreateGnnModel or ReadGnnModel, both of which give it that layout, so
// every model compiles and compilation cannot fail. The tape Forward() is
// the same layout read by the autograd ops; tests/testing/dual_path.h
// checks the two against each other op by op.

#ifndef PRIVIM_NN_INFER_COMPILE_H_
#define PRIVIM_NN_INFER_COMPILE_H_

#include "privim/gnn/models.h"
#include "privim/nn/infer/program.h"

namespace privim {
namespace infer {

/// Builds the fused op sequence for `model`. The returned program borrows
/// the model's parameter tensors — the model must outlive it (the engine
/// holds a shared_ptr for exactly this reason) — and reads their current
/// values on every Execute(), so in-place parameter updates need no
/// recompilation.
InferProgram CompileForInference(const GnnModel& model);

}  // namespace infer
}  // namespace privim

#endif  // PRIVIM_NN_INFER_COMPILE_H_
