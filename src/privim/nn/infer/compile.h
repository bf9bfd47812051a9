// Compiles a released GnnModel into a tape-free InferProgram.
//
// Compilation is structural: the model's kind (config().kind) selects a
// per-architecture emitter that checks the parameter list against the known
// layout of that architecture (count and every shape) and emits the fused
// instruction sequence. A model whose parameters do not match — a blob from
// a newer or unsupported architecture — is rejected with Unimplemented.
// ScoreGraph (engine.h) and TrainDpGnn (core/trainer.h) return that error
// to their callers; the serving layer falls back to the tape path (see
// serve/assets.cpp and the serve.infer.fallbacks counter).
//
// Structural checks cannot see an overridden Forward(), so compilation
// alone is not proof of equivalence; InferEngine::Create (engine.h) runs a
// probe forward through both paths and requires bit-exact agreement before
// the program is ever served.

#ifndef PRIVIM_NN_INFER_COMPILE_H_
#define PRIVIM_NN_INFER_COMPILE_H_

#include "privim/common/status.h"
#include "privim/gnn/models.h"
#include "privim/nn/infer/program.h"

namespace privim {
namespace infer {

/// Builds the fused op sequence for `model`. The returned program borrows
/// the model's parameter tensors — the model must outlive it (the engine
/// holds a shared_ptr for exactly this reason) — and reads their current
/// values on every Execute(), so in-place parameter updates need no
/// recompilation. Unimplemented when the model's kind or parameter layout
/// is not a known architecture.
Result<InferProgram> CompileForInference(const GnnModel& model);

}  // namespace infer
}  // namespace privim

#endif  // PRIVIM_NN_INFER_COMPILE_H_
