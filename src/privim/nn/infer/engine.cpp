#include "privim/nn/infer/engine.h"

#include <cstring>
#include <string>
#include <utility>

#include "privim/gnn/features.h"
#include "privim/nn/arena.h"
#include "privim/nn/infer/compile.h"

namespace privim {
namespace infer {

namespace {

/// The fixed probe graph for tape-vs-fused verification: small enough to be
/// free at engine construction, but it exercises every structural case the
/// ops branch on — a node with several in-arcs, a source-only node, an
/// isolated node (degree 0 on both sides) and non-uniform weights.
Result<Graph> BuildProbeGraph() {
  GraphBuilder builder(7);
  struct ProbeArc {
    NodeId src, dst;
    float weight;
  };
  static const ProbeArc kArcs[] = {
      {0, 1, 1.0f}, {0, 2, 0.5f}, {1, 2, 0.75f}, {2, 3, 1.25f},
      {3, 1, 0.3f}, {4, 2, 0.9f}, {5, 4, 1.1f},  {2, 5, 0.6f},
  };
  for (const ProbeArc& arc : kArcs) {
    PRIVIM_RETURN_NOT_OK(builder.AddEdge(arc.src, arc.dst, arc.weight));
  }
  return builder.Build();
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
  Result<InferProgram> program = CompileForInference(*model);
  if (!program.ok()) return program.status();
  std::unique_ptr<InferEngine> engine(
      new InferEngine(std::move(model), std::move(program).value()));
  PRIVIM_RETURN_NOT_OK(engine->VerifyAgainstTape());
  return engine;
}

Status InferEngine::VerifyAgainstTape() const {
  Result<Graph> probe = BuildProbeGraph();
  if (!probe.ok()) return probe.status();
  const GraphContext ctx = GraphContext::Build(probe.value());
  const Tensor features =
      BuildNodeFeatures(probe.value(), program_.input_dim());

  Result<Variable> tape = model_->Run(ctx, features);
  if (!tape.ok()) return tape.status();
  const Tensor& want = tape.value().value();

  Tensor fused;
  PRIVIM_RETURN_NOT_OK(Forward(ctx, features, &fused));

  if (fused.rows() != want.rows() || fused.cols() != want.cols()) {
    return Status::FailedPrecondition(
        "fused probe forward produced a " + std::to_string(fused.rows()) +
        "x" + std::to_string(fused.cols()) + " output, tape produced " +
        std::to_string(want.rows()) + "x" + std::to_string(want.cols()));
  }
  // Bit-exact, not approximate: the compiled program claims to perform the
  // tape's float operations in the tape's order, and any drift here means
  // the model's Forward() does not match its compiled structure (e.g. a
  // subclass overriding Forward with different math).
  if (std::memcmp(fused.data(), want.data(),
                  static_cast<size_t>(want.size()) * sizeof(float)) != 0) {
    int64_t bad = 0;
    for (int64_t i = 0; i < want.size(); ++i) {
      if (std::memcmp(fused.data() + i, want.data() + i, sizeof(float)) !=
          0) {
        bad = i;
        break;
      }
    }
    return Status::FailedPrecondition(
        "fused probe forward diverged from the tape path at node " +
        std::to_string(bad) + " (fused " +
        std::to_string(fused.data()[bad]) + ", tape " +
        std::to_string(want.data()[bad]) +
        "): model Forward() does not match its compiled structure");
  }
  return Status::OK();
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
  const GraphContext ctx =
      GraphContext::Build(graph, program_.context_parts());
  // Nothing else reads the features, so slot 0 takes the matrix itself,
  // built in the leased scratch's arena like the slots it joins.
  ScratchLease lease(this);
  nn::ArenaScope scope(&lease.get()->pools);
  return program_.Execute(
      ctx, BuildNodeFeatures(graph, program_.input_dim(), global_ids),
      lease.get(), out, /*observer=*/nullptr, SlotPolicy::kRelease);
}

Result<Tensor> ScoreGraph(const GnnModel& model, const Graph& graph) {
  // The engine lives only for this call, so it borrows the model through a
  // non-owning pointer instead of sharing ownership.
  Result<std::unique_ptr<InferEngine>> engine = InferEngine::Create(
      std::shared_ptr<const GnnModel>(std::shared_ptr<const GnnModel>(),
                                      &model));
  if (!engine.ok()) return engine.status();
  Tensor scores;
  PRIVIM_RETURN_NOT_OK(engine.value()->ForwardGraph(graph, &scores));
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
