// Checker harness for the fused inference engine (tests/testing/dual_path.h):
// seeded randomized model/graph configurations driven down the compiled and
// tape paths with per-op comparison, the reverse pass's gradients against a
// tape Backward() for every objective DP-SGD trains, thread-count
// invariance for the engine's forward passes, and the engine's rejection
// of models it cannot prove equivalent (exotic Forward overrides, unknown
// parameter layouts).

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/core/combinatorial.h"
#include "privim/core/loss.h"
#include "privim/core/node_classification.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/models.h"
#include "privim/gnn/serialization.h"
#include "privim/graph/generators.h"
#include "privim/graph/subgraph.h"
#include "privim/nn/infer/compile.h"
#include "privim/nn/infer/engine.h"
#include "privim/nn/ops.h"
#include "testing/dual_path.h"

namespace privim {
namespace {

const GnnKind kAllKinds[] = {GnnKind::kGcn, GnnKind::kSage, GnnKind::kGat,
                             GnnKind::kGrat, GnnKind::kGin};

/// A different generator family per seed so the checker sees rings, hubs,
/// small-world rewirings and heavy-tailed in-degree distributions —
/// including nodes with zero in-arcs, the attention edge case.
Graph RandomGraph(uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  switch (seed % 4) {
    case 0:
      return ErdosRenyi(40, 120, /*directed=*/true, &rng).value();
    case 1:
      return BarabasiAlbert(40, 3, &rng).value();
    case 2:
      return WattsStrogatz(40, 4, 0.2, &rng).value();
    default:
      return DirectedPreferentialAttachment(40, 3, &rng).value();
  }
}

std::shared_ptr<const GnnModel> RandomModel(GnnKind kind, int64_t layers,
                                            uint64_t seed) {
  GnnConfig config;
  config.kind = kind;
  config.input_dim = 5;
  config.hidden_dim = 7;
  config.num_layers = layers;
  Rng rng(seed);
  return std::shared_ptr<const GnnModel>(
      CreateGnnModel(config, &rng).value().release());
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// --- The randomized dual-path sweep: 5 kinds x 3 depths x 4 graphs = 60
// configurations, every op and every end-to-end output bit-exact, with
// the slots retained (the trainer's forward) and released after their
// last reader (the engine's). ---------------------------------------------

void ExpectSixtyRandomizedConfigsExact(infer::SlotPolicy policy) {
  int configs = 0;
  for (const GnnKind kind : kAllKinds) {
    for (int64_t layers = 1; layers <= 3; ++layers) {
      for (uint64_t graph_seed = 0; graph_seed < 4; ++graph_seed) {
        const uint64_t model_seed =
            static_cast<uint64_t>(kind) * 100 +
            static_cast<uint64_t>(layers) * 10 + graph_seed;
        const std::shared_ptr<const GnnModel> model =
            RandomModel(kind, layers, model_seed);
        const Graph graph = RandomGraph(graph_seed);
        Result<testing::DualPathReport> report =
            testing::RunDualPath(*model, graph, policy);
        ASSERT_TRUE(report.ok()) << report.status().message();
        EXPECT_TRUE(report->AllExact())
            << "kind=" << GnnKindToString(kind) << " layers=" << layers
            << " graph_seed=" << graph_seed << "\n"
            << report->ToString();
        ++configs;
      }
    }
  }
  EXPECT_GE(configs, 50);
}

TEST(InferCheckerTest, SixtyRandomizedConfigsAreExactDownBothPaths) {
  ExpectSixtyRandomizedConfigsExact(infer::SlotPolicy::kRetain);
}

TEST(InferCheckerTest, SixtyRandomizedConfigsAreExactWithSlotsReleased) {
  ExpectSixtyRandomizedConfigsExact(infer::SlotPolicy::kRelease);
}

// The tolerance-mode half of the harness: the report quantifies per-op
// divergence rather than only flagging it, so a regression names the
// instruction AND the magnitude. With shared kernels every magnitude is 0.
TEST(InferCheckerTest, PerOpReportCoversEveryInstructionWithZeroDiff) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGrat, 2, 99);
  const Graph graph = RandomGraph(1);
  Result<testing::DualPathReport> report =
      testing::RunDualPath(*model, graph);
  ASSERT_TRUE(report.ok()) << report.status().message();

  const Result<infer::InferProgram> program =
      infer::CompileForInference(*model);
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(report->ops.size(), program.value().instructions().size());
  for (const testing::OpCheck& check : report->ops) {
    EXPECT_NE(check.op, "?");
    EXPECT_EQ(check.max_abs_diff, 0.0f)
        << "step " << check.step << " (" << check.op << ")";
  }
  EXPECT_EQ(report->MaxAbsDiff(), 0.0f) << report->ToString();
  EXPECT_NE(report->ToString().find("end-to-end"), std::string::npos);
}

// --- The reverse pass: per-subgraph DP-SGD gradients through the program
// are the tape's bytes for every kind, depth, graph and objective. --------

testing::ScoreObjective InfluenceObjective(
    const InfluenceLossOptions& options) {
  return [options](const Variable& scores, const GraphContext& ctx) {
    return InfluenceLoss(scores, ctx, options);
  };
}

TEST(InferCheckerTest, SixtyRandomizedConfigsHaveTheTapesGradients) {
  int configs = 0;
  for (const GnnKind kind : kAllKinds) {
    for (int64_t layers = 1; layers <= 3; ++layers) {
      for (uint64_t graph_seed = 0; graph_seed < 4; ++graph_seed) {
        const uint64_t model_seed =
            static_cast<uint64_t>(kind) * 100 +
            static_cast<uint64_t>(layers) * 10 + graph_seed;
        const std::shared_ptr<const GnnModel> model =
            RandomModel(kind, layers, model_seed);
        Result<testing::GradientReport> report = testing::RunGradientDualPath(
            *model, RandomGraph(graph_seed),
            InfluenceObjective(InfluenceLossOptions()));
        ASSERT_TRUE(report.ok()) << report.status().message();
        EXPECT_TRUE(report->exact && report->loss_exact)
            << "kind=" << GnnKindToString(kind) << " layers=" << layers
            << " graph_seed=" << graph_seed << "\n"
            << report->ToString();
        ++configs;
      }
    }
  }
  EXPECT_EQ(configs, 60);
}

TEST(InferCheckerTest, EveryObjectiveHasTheTapesGradients) {
  struct Objective {
    std::string name;
    testing::ScoreObjective fn;
  };
  std::vector<Objective> objectives;
  for (const int64_t steps : {int64_t{1}, int64_t{3}}) {
    for (const PhiKind phi : {PhiKind::kOneMinusExpNeg, PhiKind::kClamp}) {
      InfluenceLossOptions options;
      options.diffusion_steps = steps;
      options.phi = phi;
      objectives.push_back(
          {"eq5 j=" + std::to_string(steps) +
               (phi == PhiKind::kClamp ? " clamp" : " 1-exp"),
           InfluenceObjective(options)});
    }
  }
  objectives.push_back(
      {"bce", [](const Variable& scores, const GraphContext& ctx) {
         Subgraph identity;
         std::vector<uint8_t> labels;
         for (NodeId v = 0; v < ctx.num_nodes; ++v) {
           identity.global_ids.push_back(v);
           labels.push_back(static_cast<uint8_t>(v % 3 == 0));
         }
         return BinaryCrossEntropyLoss(scores, ctx, identity, labels);
       }});
  objectives.push_back(
      {"max-cut", [](const Variable& scores, const GraphContext& ctx) {
         return MaxCutLoss(scores, ctx);
       }});

  GraphBuilder arcless_builder(9);
  const Graph arcless = arcless_builder.Build().value();
  const Graph graphs[] = {RandomGraph(1), RandomGraph(2), arcless};
  for (const GnnKind kind : kAllKinds) {
    for (size_t g = 0; g < 3; ++g) {
      const std::shared_ptr<const GnnModel> model =
          RandomModel(kind, 3, 900 + static_cast<uint64_t>(kind) * 10 + g);
      for (const Objective& objective : objectives) {
        Result<testing::GradientReport> report =
            testing::RunGradientDualPath(*model, graphs[g], objective.fn);
        ASSERT_TRUE(report.ok()) << report.status().message();
        EXPECT_TRUE(report->exact && report->loss_exact)
            << "kind=" << GnnKindToString(kind) << " graph=" << g
            << " objective=" << objective.name << "\n"
            << report->ToString();
      }
    }
  }
}

// Backward() differentiates the forward its scratch holds; a scratch from
// another graph (or none), a score gradient of the wrong shape and a context
// without the program's operators are Status errors, not out-of-bounds
// reads.
TEST(InferCheckerTest, BackwardRejectsInputsThatDoNotMatchItsForward) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGat, 2, 31);
  const Result<infer::InferProgram> program =
      infer::CompileForInference(*model);
  ASSERT_TRUE(program.ok()) << program.status().message();
  const Graph graph = RandomGraph(1);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, model->config().input_dim);
  const Tensor dscores = Tensor::Ones(graph.num_nodes(), 1);
  std::vector<float> grad;

  infer::Scratch fresh;
  EXPECT_EQ(program.value().Backward(ctx, dscores, &fresh, &grad).code(),
            StatusCode::kFailedPrecondition);

  infer::Scratch scratch;
  Tensor out;
  ASSERT_TRUE(program.value().Execute(ctx, features, &scratch, &out).ok());
  const GraphContext other = GraphContext::Build(RandomGraph(2));
  EXPECT_EQ(program.value().Backward(other, dscores, &scratch, &grad).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(program.value()
                .Backward(ctx, Tensor::Ones(graph.num_nodes(), 2), &scratch,
                          &grad)
                .code(),
            StatusCode::kInvalidArgument);
  const GraphContext lacking =
      GraphContext::Build(graph, GraphContext::kGcnAdj);
  EXPECT_EQ(program.value().Backward(lacking, dscores, &scratch, &grad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(program.value().Backward(ctx, dscores, &scratch, &grad).ok());
  EXPECT_EQ(static_cast<int64_t>(grad.size()),
            program.value().parameter_count());
}

// A releasing Execute() recycles the slots Backward() reads, so Backward()
// on its scratch is refused; a retaining Execute() on the same scratch
// brings back the tape's gradient.
TEST(InferCheckerTest, BackwardNeedsTheSlotsOfARetainingExecute) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGrat, 2, 32);
  const Result<infer::InferProgram> program =
      infer::CompileForInference(*model);
  ASSERT_TRUE(program.ok()) << program.status().message();
  const Graph graph = RandomGraph(1);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, model->config().input_dim);
  const Tensor dscores = Tensor::Ones(graph.num_nodes(), 1);

  infer::Scratch scratch;
  Tensor out;
  std::vector<float> grad;
  ASSERT_TRUE(program.value()
                  .Execute(ctx, features, &scratch, &out, nullptr,
                           infer::SlotPolicy::kRelease)
                  .ok());
  EXPECT_EQ(program.value().Backward(ctx, dscores, &scratch, &grad).code(),
            StatusCode::kFailedPrecondition);

  Result<testing::GradientReport> report = testing::RunGradientDualPath(
      *model, graph, InfluenceObjective(InfluenceLossOptions()), &scratch);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->exact && report->loss_exact) << report->ToString();
}

// --- Footprint: the releasing forward's arena holds a fixed set of
// buffers whatever the depth, and fewer bytes than the retaining one (at
// 3 layers, release vs retain: GCN 2.69 vs 5.83 MB, SAGE 5.31 vs 10.55,
// GAT/GRAT 2.69 vs 11.53, GIN 4.00 vs 11.34). ------------------------------

uint64_t ForwardArenaBytes(GnnKind kind, int64_t layers, const Graph& graph,
                           infer::SlotPolicy policy) {
  GnnConfig config;
  config.kind = kind;
  config.num_layers = layers;
  Rng rng(17);
  const std::unique_ptr<GnnModel> model =
      CreateGnnModel(config, &rng).value();
  const infer::InferProgram program =
      infer::CompileForInference(*model).value();
  const GraphContext ctx =
      GraphContext::Build(graph, program.context_parts());
  const Tensor features = BuildNodeFeatures(graph, config.input_dim);
  infer::Scratch scratch;  // fresh: its arena counts this forward alone
  Tensor out;
  EXPECT_TRUE(
      program.Execute(ctx, features, &scratch, &out, nullptr, policy).ok());
  return scratch.pools.tensors.bytes_allocated();
}

TEST(InferCheckerTest, ReleasingForwardFootprintDoesNotGrowWithDepth) {
  Rng rng(2024);
  const Graph graph = BarabasiAlbert(5000, 5, &rng).value();
  for (const GnnKind kind : kAllKinds) {
    SCOPED_TRACE(GnnKindToString(kind));
    const uint64_t released =
        ForwardArenaBytes(kind, 3, graph, infer::SlotPolicy::kRelease);
    const uint64_t retained =
        ForwardArenaBytes(kind, 3, graph, infer::SlotPolicy::kRetain);
    EXPECT_EQ(ForwardArenaBytes(kind, 2, graph, infer::SlotPolicy::kRelease),
              ForwardArenaBytes(kind, 5, graph, infer::SlotPolicy::kRelease));
    EXPECT_LT(released, retained);
    if (kind == GnnKind::kGat || kind == GnnKind::kGrat) {
      EXPECT_LE(2 * released, retained);
    }
  }
}

// --- Program shape: the compiled program never holds a per-edge buffer
// wider than one column, and it names exactly the context operators it
// reads. ------------------------------------------------------------------

TEST(InferCheckerTest, NoProgramAllocatesAnEdgeByHiddenBuffer) {
  for (const GnnKind kind : kAllKinds) {
    const std::shared_ptr<const GnnModel> model = RandomModel(kind, 3, 5);
    const Result<infer::InferProgram> program =
        infer::CompileForInference(*model);
    ASSERT_TRUE(program.ok()) << program.status().message();
    for (const infer::BufferSpec& buffer : program.value().buffers()) {
      if (buffer.domain == infer::RowDomain::kEdges) {
        EXPECT_EQ(buffer.cols, 1) << GnnKindToString(kind);
      }
    }
  }
}

TEST(InferCheckerTest, ContextPartsAreExactlyWhatTheProgramReads) {
  const struct {
    GnnKind kind;
    uint32_t parts;
  } kCases[] = {
      {GnnKind::kGcn, GraphContext::kGcnAdj},
      {GnnKind::kSage, GraphContext::kMeanInAdj},
      {GnnKind::kGat, GraphContext::kAttentionLists},
      {GnnKind::kGrat, GraphContext::kAttentionLists},
      {GnnKind::kGin, GraphContext::kSumInAdj},
  };
  const Graph graph = RandomGraph(3);
  const GraphContext full = GraphContext::Build(graph);
  for (const auto& c : kCases) {
    SCOPED_TRACE(GnnKindToString(c.kind));
    const std::shared_ptr<const GnnModel> model = RandomModel(c.kind, 2, 6);
    const Result<infer::InferProgram> program =
        infer::CompileForInference(*model);
    ASSERT_TRUE(program.ok()) << program.status().message();
    ASSERT_EQ(program.value().context_parts(), c.parts);

    const Tensor features =
        BuildNodeFeatures(graph, model->config().input_dim);
    infer::Scratch scratch;
    Tensor want, got;
    ASSERT_TRUE(program.value().Execute(full, features, &scratch, &want).ok());
    const GraphContext minimal = GraphContext::Build(graph, c.parts);
    ASSERT_TRUE(
        program.value().Execute(minimal, features, &scratch, &got).ok());
    EXPECT_TRUE(BitEqual(got, want));

    const GraphContext lacking =
        GraphContext::Build(graph, GraphContext::kAllParts & ~c.parts);
    EXPECT_EQ(program.value().Execute(lacking, features, &scratch, &got).code(),
              StatusCode::kInvalidArgument);
  }
}

// --- Thread invariance: engine outputs are bitwise identical at 1/4/8
// worker threads, sequentially and under concurrent callers. -------------

TEST(InferCheckerTest, EngineForwardIsBitIdenticalAtOneFourEightThreads) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGin, 2, 4242);
  const Graph graph = RandomGraph(2);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features =
      BuildNodeFeatures(graph, model->config().input_dim);
  const Result<std::unique_ptr<infer::InferEngine>> engine =
      infer::InferEngine::Create(model);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  Tensor reference;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SetGlobalThreadPoolSize(threads);
    Tensor out;
    ASSERT_TRUE(engine.value()->Forward(ctx, features, &out).ok());
    if (reference.size() == 0) {
      reference = out;
    } else {
      EXPECT_TRUE(BitEqual(out, reference)) << threads << " threads";
    }
    // Concurrent callers share the engine (each leases its own scratch);
    // all must observe the reference bytes.
    std::vector<Tensor> concurrent(8);
    std::vector<std::thread> workers;
    for (size_t i = 0; i < concurrent.size(); ++i) {
      workers.emplace_back([&, i] {
        Tensor mine;
        EXPECT_TRUE(engine.value()->Forward(ctx, features, &mine).ok());
        concurrent[i] = std::move(mine);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (const Tensor& out_i : concurrent) {
      EXPECT_TRUE(BitEqual(out_i, reference));
    }
  }
  SetGlobalThreadPoolSize(0);
}

// --- Served subgraphs: ForwardGraph on a subgraph, with features salted by
// the parent's ids, is the tape forward on the full context. -------------

TEST(InferCheckerTest, SubgraphForwardGraphMatchesTapeBitExactly) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGrat, 2, 31337);
  const Graph base = RandomGraph(3);
  const Result<std::unique_ptr<infer::InferEngine>> engine =
      infer::InferEngine::Create(model);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  Rng rng(5);
  for (int i = 0; i < 9; ++i) {
    std::vector<NodeId> nodes;
    const int64_t count = 5 + static_cast<int64_t>(rng.NextBounded(20));
    for (int64_t j = 0; j < count; ++j) {
      nodes.push_back(static_cast<NodeId>(
          rng.NextBounded(static_cast<uint64_t>(base.num_nodes()))));
    }
    const Subgraph sub = InducedSubgraph(base, nodes).value();
    const Tensor features = BuildNodeFeatures(
        sub.local, model->config().input_dim, &sub.global_ids);
    const Result<Variable> want =
        model->Run(GraphContext::Build(sub.local), features);
    ASSERT_TRUE(want.ok());
    Tensor got;
    ASSERT_TRUE(
        engine.value()->ForwardGraph(sub.local, &got, &sub.global_ids).ok());
    EXPECT_TRUE(BitEqual(got, want.value().value())) << "subgraph " << i;
  }
}

// --- Serialization: every released kind round-trips through the model
// format and still compiles, probes and matches the tape. ----------------

TEST(InferCheckerTest, AllKindsCompileAfterSerializationRoundTrip) {
  const Graph graph = RandomGraph(0);
  for (const GnnKind kind : kAllKinds) {
    const std::shared_ptr<const GnnModel> original =
        RandomModel(kind, 2, static_cast<uint64_t>(kind) + 1);
    std::stringstream stream;
    ASSERT_TRUE(WriteGnnModel(*original, stream).ok());
    Result<std::unique_ptr<GnnModel>> restored = ReadGnnModel(stream);
    ASSERT_TRUE(restored.ok()) << restored.status().message();

    Result<testing::DualPathReport> report =
        testing::RunDualPath(*restored.value(), graph);
    ASSERT_TRUE(report.ok()) << GnnKindToString(kind) << ": "
                             << report.status().message();
    EXPECT_TRUE(report->AllExact())
        << GnnKindToString(kind) << "\n" << report->ToString();
  }
}

// --- Rejection paths: the engine refuses models it cannot prove. --------

/// Parameter layout of a GCN, but the head is tanh instead of sigmoid —
/// structurally compilable, semantically different. Only the probe forward
/// can catch this.
class TanhHeadGcn : public GnnModel {
 public:
  explicit TanhHeadGcn(const GnnModel& base) : GnnModel(base.config()) {
    for (const Variable& parameter : base.parameters()) {
      params_.push_back(Variable(parameter.value()));
    }
  }
  /// Takes `params` as its parameters (e.g. trainable copies).
  TanhHeadGcn(const GnnModel& base, std::vector<Variable> params)
      : GnnModel(base.config()) {
    params_ = std::move(params);
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    Variable h = features;
    for (int64_t l = 0; l < config_.num_layers; ++l) {
      const Variable agg = SpMM(ctx.gcn_adj, h);
      h = Relu(AddRowBroadcast(MatMul(agg, params_[2 + 2 * l]),
                               params_[2 + 2 * l + 1]));
    }
    return Tanh(AddRowBroadcast(MatMul(h, params_[0]), params_[1]));
  }
};

/// A blob from "a newer architecture": one parameter the known layouts
/// don't have. Compilation itself must reject it.
class ExtraParamGcn : public GnnModel {
 public:
  explicit ExtraParamGcn(const GnnModel& base) : GnnModel(base.config()) {
    for (const Variable& parameter : base.parameters()) {
      params_.push_back(Variable(parameter.value()));
    }
    params_.push_back(Variable(Tensor::Ones(3, 3)));
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    return SpMM(ctx.gcn_adj, features);
  }
};

TEST(InferCheckerTest, ProbeRejectsStructurallyValidButDivergentForward) {
  const std::shared_ptr<const GnnModel> base =
      RandomModel(GnnKind::kGcn, 2, 77);
  const auto exotic = std::make_shared<const TanhHeadGcn>(*base);
  const Result<std::unique_ptr<infer::InferEngine>> engine =
      infer::InferEngine::Create(exotic);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(engine.status().message().find("diverged"), std::string::npos)
      << engine.status().message();
}

// The gradient harness names where the two paths part: with a tanh head
// the tape's gradient differs from the program's (sigmoid) one first in
// the head weight, parameter 0.
TEST(InferCheckerTest, GradientReportNamesTheFirstDifferingParameter) {
  const std::shared_ptr<const GnnModel> base =
      RandomModel(GnnKind::kGcn, 2, 77);
  std::vector<Variable> trainable;
  for (const Variable& p : base->parameters()) {
    trainable.emplace_back(p.value(), /*requires_grad=*/true);
  }
  const TanhHeadGcn exotic(*base, trainable);
  Result<testing::GradientReport> report = testing::RunGradientDualPath(
      exotic, RandomGraph(1), InfluenceObjective(InfluenceLossOptions()));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report->exact);
  EXPECT_EQ(report->first_difference.rfind("parameter 0 (7x1) index ", 0), 0u)
      << report->ToString();
}

TEST(InferCheckerTest, CompileRejectsUnknownParameterLayout) {
  const std::shared_ptr<const GnnModel> base =
      RandomModel(GnnKind::kGcn, 1, 78);
  const auto exotic = std::make_shared<const ExtraParamGcn>(*base);
  const Result<std::unique_ptr<infer::InferEngine>> engine =
      infer::InferEngine::Create(exotic);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnimplemented);
}

/// A GCN's parameters under a config that claims two more inputs than its
/// first weight has rows: the tape would trip MatMul's shape assert.
class MisshapenGcn : public GnnModel {
 public:
  explicit MisshapenGcn(const GnnModel& base) : GnnModel(base.config()) {
    for (const Variable& parameter : base.parameters()) {
      params_.push_back(Variable(parameter.value()));
    }
    config_.input_dim = base.config().input_dim + 2;
  }

  Variable Forward(const GraphContext& ctx,
                   const Variable& features) const override {
    return SpMM(ctx.gcn_adj, features);
  }
};

// --- ScoreGraph: the one-shot scorer is the tape's bytes, and reports
// every model it cannot run as a Status. ----------------------------------

TEST(InferCheckerTest, ScoreGraphMatchesTapeForwardForEveryKind) {
  for (const GnnKind kind : kAllKinds) {
    for (uint64_t graph_seed = 0; graph_seed < 4; ++graph_seed) {
      const std::shared_ptr<const GnnModel> model =
          RandomModel(kind, 3, 500 + graph_seed);
      const Graph graph = RandomGraph(graph_seed);
      const Result<Tensor> scores = infer::ScoreGraph(*model, graph);
      ASSERT_TRUE(scores.ok()) << scores.status().message();
      const GraphContext ctx = GraphContext::Build(graph);
      const Tensor features =
          BuildNodeFeatures(graph, model->config().input_dim);
      const Tensor want = model->Forward(ctx, Variable(features)).value();
      EXPECT_TRUE(BitEqual(scores.value(), want))
          << GnnKindToString(kind) << " graph_seed=" << graph_seed;
    }
  }
}

TEST(InferCheckerTest, ScoreGraphRejectsDivergentForward) {
  const std::shared_ptr<const GnnModel> base =
      RandomModel(GnnKind::kGcn, 2, 77);
  const TanhHeadGcn exotic(*base);
  const Result<Tensor> scores = infer::ScoreGraph(exotic, RandomGraph(0));
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(scores.status().message().find("diverged"), std::string::npos)
      << scores.status().message();
}

TEST(InferCheckerTest, ScoreGraphRejectsUnknownParameterLayout) {
  const std::shared_ptr<const GnnModel> base =
      RandomModel(GnnKind::kGcn, 1, 78);
  const ExtraParamGcn exotic(*base);
  EXPECT_EQ(infer::ScoreGraph(exotic, RandomGraph(1)).status().code(),
            StatusCode::kUnimplemented);
}

TEST(InferCheckerTest, ScoreGraphReportsMisshapenModelAsStatus) {
  const std::shared_ptr<const GnnModel> base =
      RandomModel(GnnKind::kGcn, 2, 79);
  const MisshapenGcn misshapen(*base);
  const Result<Tensor> scores = infer::ScoreGraph(misshapen, RandomGraph(2));
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(scores.status().message().find("expected"), std::string::npos)
      << scores.status().message();
}

TEST(InferCheckerTest, CreateRejectsNullModel) {
  EXPECT_EQ(infer::InferEngine::Create(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InferCheckerTest, ExecuteValidatesFeatureShape) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGcn, 1, 9);
  const Graph graph = RandomGraph(1);
  const GraphContext ctx = GraphContext::Build(graph);
  const Result<std::unique_ptr<infer::InferEngine>> engine =
      infer::InferEngine::Create(model);
  ASSERT_TRUE(engine.ok());
  Tensor out;
  // Wrong column count.
  EXPECT_EQ(engine.value()
                ->Forward(ctx, Tensor::Zeros(graph.num_nodes(), 3), &out)
                .code(),
            StatusCode::kInvalidArgument);
  // Wrong row count.
  EXPECT_EQ(engine.value()
                ->Forward(ctx, Tensor::Zeros(2, model->config().input_dim),
                          &out)
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace privim
