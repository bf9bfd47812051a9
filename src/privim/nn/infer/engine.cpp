#include "privim/nn/infer/engine.h"

#include <utility>

#include "privim/gnn/features.h"
#include "privim/nn/arena.h"
#include "privim/nn/infer/compile.h"

namespace privim {
namespace infer {

namespace {

/// Runs `program` over the whole of `graph` on `scratch`, releasing each
/// slot after its last reader: only the context operators the program
/// reads are built, and the features move into slot 0, drawn from the
/// scratch's arena like the slots they join.
Status RunGraph(const InferProgram& program, const Graph& graph,
                const std::vector<NodeId>* global_ids, Scratch* scratch,
                Tensor* out) {
  const GraphContext ctx =
      GraphContext::Build(graph, program.context_parts());
  nn::ArenaScope scope(&scratch->pools);
  return program.Execute(
      ctx, BuildNodeFeatures(graph, program.input_dim(), global_ids), scratch,
      out, /*observer=*/nullptr, SlotPolicy::kRelease);
}

}  // namespace

/// RAII lease around the engine's scratch pool: acquired buffers return to
/// the pool on every exit path, keeping their warmed-up arena classes.
class InferEngine::ScratchLease {
 public:
  explicit ScratchLease(const InferEngine* engine)
      : engine_(engine), scratch_(engine->AcquireScratch()) {}
  ~ScratchLease() { engine_->ReleaseScratch(std::move(scratch_)); }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch* get() const { return scratch_.get(); }

 private:
  const InferEngine* engine_;
  std::unique_ptr<Scratch> scratch_;
};

Result<std::unique_ptr<InferEngine>> InferEngine::Create(
    std::shared_ptr<const GnnModel> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("InferEngine::Create: null model");
  }
  InferProgram program = CompileForInference(*model);
  return std::unique_ptr<InferEngine>(
      new InferEngine(std::move(model), std::move(program)));
}

Status InferEngine::Forward(const GraphContext& ctx, const Tensor& features,
                            Tensor* out) const {
  // No caller differentiates an engine forward, so each slot goes back to
  // the leased scratch's arena after its last reader. Slot 0 is a copy of
  // the caller's matrix, drawn from that arena so that it returns there.
  ScratchLease lease(this);
  nn::ArenaScope scope(&lease.get()->pools);
  return program_.Execute(ctx, features, lease.get(), out,
                          /*observer=*/nullptr, SlotPolicy::kRelease);
}

Status InferEngine::ForwardGraph(const Graph& graph, Tensor* out,
                                 const std::vector<NodeId>* global_ids) const {
  ScratchLease lease(this);
  return RunGraph(program_, graph, global_ids, lease.get(), out);
}

Result<Tensor> ScoreGraph(const GnnModel& model, const Graph& graph) {
  Scratch scratch;
  Tensor scores;
  PRIVIM_RETURN_NOT_OK(RunGraph(CompileForInference(model), graph,
                                /*global_ids=*/nullptr, &scratch, &scores));
  return scores;
}

std::unique_ptr<Scratch> InferEngine::AcquireScratch() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_scratch_.empty()) {
      std::unique_ptr<Scratch> scratch = std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<Scratch>();
}

void InferEngine::ReleaseScratch(std::unique_ptr<Scratch> scratch) const {
  std::lock_guard<std::mutex> lock(mu_);
  free_scratch_.push_back(std::move(scratch));
}

uint64_t InferEngine::pooled_arena_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = 0;
  for (const std::unique_ptr<Scratch>& scratch : free_scratch_) {
    bytes += scratch->pools.tensors.pooled_bytes();
  }
  return bytes;
}

}  // namespace infer
}  // namespace privim
