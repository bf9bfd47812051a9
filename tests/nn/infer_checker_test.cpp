// Checker harness for the fused inference engine (tests/testing/dual_path.h):
// seeded randomized model/graph configurations driven down the compiled and
// tape paths with per-op comparison, the reverse pass's gradients against a
// tape Backward() for every objective DP-SGD trains, thread-count
// invariance for the engine's forward passes, and the harness's own
// report when handed a tape forward that is not the model's.

#include <malloc.h>

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
#include "testing/reference_oracles.h"

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
      return testing::ErdosRenyi(40, 120, /*directed=*/true, &rng).value();
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

  const infer::InferProgram program =
      infer::CompileForInference(*model);
  ASSERT_EQ(report->ops.size(), program.instructions().size());
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

// --- The production width: the sweeps above build hidden_dim = 7 models,
// which never fill an eight-lane block. GAT and GRAT at train_sgd's 3 x 32
// (input 8) and at hidden 33 (a ragged eight-column tail), on graphs of 29
// and 33 nodes (a ragged eight-row tail), must still be exact down both
// paths, forward and reverse. ---------------------------------------------

struct WideConfig {
  GnnKind kind;
  int64_t input_dim;
  int64_t hidden_dim;
  int64_t nodes;
};

std::vector<WideConfig> ProductionWidthConfigs() {
  std::vector<WideConfig> configs;
  for (const GnnKind kind : {GnnKind::kGat, GnnKind::kGrat}) {
    for (const int64_t hidden : {int64_t{32}, int64_t{33}}) {
      for (const int64_t nodes : {int64_t{29}, int64_t{33}}) {
        configs.push_back({kind, hidden == 32 ? 8 : 5, hidden, nodes});
      }
    }
  }
  return configs;
}

std::shared_ptr<const GnnModel> WideModel(const WideConfig& c) {
  GnnConfig config;
  config.kind = c.kind;
  config.input_dim = c.input_dim;
  config.hidden_dim = c.hidden_dim;
  config.num_layers = 3;
  Rng rng(static_cast<uint64_t>(c.hidden_dim * 100 + c.nodes));
  return std::shared_ptr<const GnnModel>(
      CreateGnnModel(config, &rng).value().release());
}

Graph WideGraph(int64_t nodes) {
  Rng rng(static_cast<uint64_t>(nodes) * 31 + 7);
  return nodes < 32 ? BarabasiAlbert(nodes, 3, &rng).value()
                    : testing::ErdosRenyi(nodes, 3 * nodes, /*directed=*/true,
                                          &rng)
                          .value();
}

std::string Describe(const WideConfig& c) {
  return std::string("kind=") + GnnKindToString(c.kind) + " input=" +
         std::to_string(c.input_dim) + " hidden=" +
         std::to_string(c.hidden_dim) + " nodes=" + std::to_string(c.nodes);
}

TEST(InferCheckerTest, ProductionWidthAttentionIsExactDownBothPaths) {
  for (const WideConfig& c : ProductionWidthConfigs()) {
    const std::shared_ptr<const GnnModel> model = WideModel(c);
    const Graph graph = WideGraph(c.nodes);
    for (const infer::SlotPolicy policy :
         {infer::SlotPolicy::kRetain, infer::SlotPolicy::kRelease}) {
      Result<testing::DualPathReport> report =
          testing::RunDualPath(*model, graph, policy);
      ASSERT_TRUE(report.ok()) << report.status().message();
      EXPECT_TRUE(report->AllExact()) << Describe(c) << "\n"
                                      << report->ToString();
    }
  }
}

TEST(InferCheckerTest, ProductionWidthAttentionHasTheTapesGradients) {
  for (const WideConfig& c : ProductionWidthConfigs()) {
    Result<testing::GradientReport> report = testing::RunGradientDualPath(
        *WideModel(c), WideGraph(c.nodes),
        InfluenceObjective(InfluenceLossOptions()));
    ASSERT_TRUE(report.ok()) << report.status().message();
    EXPECT_TRUE(report->exact && report->loss_exact) << Describe(c) << "\n"
                                                     << report->ToString();
  }
}

// Whole-graph attention reads the in-CSR in place. On a directed graph the
// in-CSR is its own arrays, not the out-CSR; on a graph with isolated
// nodes a node's segment holds its self-loop alone, and a node that only
// sends has an empty in-row. GAT and GRAT at production width give the
// tape's bytes there: per op under both slot policies, through ScoreGraph,
// and in the reverse pass.
TEST(InferCheckerTest, WholeGraphAttentionMatchesTheTapeOnDirectedGraphs) {
  Rng rng(97);
  std::vector<Graph> graphs;
  graphs.push_back(
      testing::ErdosRenyi(600, 2400, /*directed=*/true, &rng).value());
  graphs.push_back(
      testing::ErdosRenyi(400, 150, /*directed=*/true, &rng).value());
  bool isolated = false;
  for (NodeId v = 0; v < graphs.back().num_nodes(); ++v) {
    isolated |= graphs.back().InDegree(v) == 0 &&
                graphs.back().OutDegree(v) == 0;
  }
  ASSERT_TRUE(isolated);
  for (const GnnKind kind : {GnnKind::kGat, GnnKind::kGrat}) {
    GnnConfig config;
    config.kind = kind;
    Rng model_rng(static_cast<uint64_t>(kind) + 300);
    const std::shared_ptr<const GnnModel> model(
        CreateGnnModel(config, &model_rng).value().release());
    for (size_t g = 0; g < graphs.size(); ++g) {
      SCOPED_TRACE(std::string(GnnKindToString(kind)) + " graph " +
                   std::to_string(g));
      const Graph& graph = graphs[g];
      ASSERT_FALSE(graph.undirected());
      for (const infer::SlotPolicy policy :
           {infer::SlotPolicy::kRetain, infer::SlotPolicy::kRelease}) {
        Result<testing::DualPathReport> report =
            testing::RunDualPath(*model, graph, policy);
        ASSERT_TRUE(report.ok()) << report.status().message();
        EXPECT_TRUE(report->AllExact()) << report->ToString();
      }
      const Result<Tensor> scores = infer::ScoreGraph(*model, graph);
      ASSERT_TRUE(scores.ok()) << scores.status().message();
      const GraphContext ctx = GraphContext::Build(graph);
      const Tensor features = BuildNodeFeatures(graph, config.input_dim);
      EXPECT_TRUE(BitEqual(scores.value(),
                           model->Run(ctx, features).value().value()));
      Result<testing::GradientReport> gradient = testing::RunGradientDualPath(
          *model, graph, InfluenceObjective(InfluenceLossOptions()));
      ASSERT_TRUE(gradient.ok()) << gradient.status().message();
      EXPECT_TRUE(gradient->exact && gradient->loss_exact)
          << gradient->ToString();
    }
  }
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
  const infer::InferProgram program =
      infer::CompileForInference(*model);
  const Graph graph = RandomGraph(1);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, model->config().input_dim);
  const Tensor dscores = Tensor::Ones(graph.num_nodes(), 1);
  std::vector<float> grad;

  infer::Scratch fresh;
  EXPECT_EQ(program.Backward(ctx, dscores, &fresh, &grad).code(),
            StatusCode::kFailedPrecondition);

  infer::Scratch scratch;
  Tensor out;
  ASSERT_TRUE(program.Execute(ctx, features, &scratch, &out).ok());
  const Graph other_graph = RandomGraph(2);
  const GraphContext other = GraphContext::Build(other_graph);
  EXPECT_EQ(program.Backward(other, dscores, &scratch, &grad).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(program
                .Backward(ctx, Tensor::Ones(graph.num_nodes(), 2), &scratch,
                          &grad)
                .code(),
            StatusCode::kInvalidArgument);
  // Attention reads the in-CSR of the context's graph: a context that
  // borrows none lacks it.
  GraphContext lacking = GraphContext::Build(graph, GraphContext::kGcnAdj);
  lacking.graph = nullptr;
  EXPECT_EQ(program.Backward(lacking, dscores, &scratch, &grad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(program.Backward(ctx, dscores, &scratch, &grad).ok());
  EXPECT_EQ(static_cast<int64_t>(grad.size()),
            program.parameter_count());
}

// A releasing Execute() recycles the slots Backward() reads, so Backward()
// on its scratch is refused; a retaining Execute() on the same scratch
// brings back the tape's gradient.
TEST(InferCheckerTest, BackwardNeedsTheSlotsOfARetainingExecute) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGrat, 2, 32);
  const infer::InferProgram program =
      infer::CompileForInference(*model);
  const Graph graph = RandomGraph(1);
  const GraphContext ctx = GraphContext::Build(graph);
  const Tensor features = BuildNodeFeatures(graph, model->config().input_dim);
  const Tensor dscores = Tensor::Ones(graph.num_nodes(), 1);

  infer::Scratch scratch;
  Tensor out;
  std::vector<float> grad;
  ASSERT_TRUE(program
                  .Execute(ctx, features, &scratch, &out, nullptr,
                           infer::SlotPolicy::kRelease)
                  .ok());
  EXPECT_EQ(program.Backward(ctx, dscores, &scratch, &grad).code(),
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
      infer::CompileForInference(*model);
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
    const infer::InferProgram program =
        infer::CompileForInference(*model);
    for (const infer::BufferSpec& buffer : program.buffers()) {
      if (buffer.domain == infer::RowDomain::kEdges) {
        EXPECT_EQ(buffer.cols, 1) << GnnKindToString(kind);
      }
    }
  }
}

// Scores and weights share a slot: kAttnSoftmax softmaxes its LeakyReLU
// scores in place, so an attention layer holds one (edges x 1) buffer,
// which its edge aggregate alone reads, and every other kind holds none.
TEST(InferCheckerTest, EveryAttentionLayerHoldsExactlyOneEdgeBuffer) {
  for (const GnnKind kind : kAllKinds) {
    const bool attention = kind == GnnKind::kGat || kind == GnnKind::kGrat;
    for (int64_t layers = 1; layers <= 3; ++layers) {
      SCOPED_TRACE(std::string(GnnKindToString(kind)) +
                   " layers=" + std::to_string(layers));
      const infer::InferProgram program =
          infer::CompileForInference(*RandomModel(kind, layers, 5));
      const std::vector<infer::BufferSpec>& buffers =
          program.buffers();
      int64_t edge_buffers = 0;
      for (const infer::BufferSpec& buffer : buffers) {
        edge_buffers += buffer.domain == infer::RowDomain::kEdges ? 1 : 0;
      }
      EXPECT_EQ(edge_buffers, attention ? layers : 0);
      for (const infer::Instr& in : program.instructions()) {
        const bool edge_out =
            buffers[static_cast<size_t>(in.dst)].domain ==
            infer::RowDomain::kEdges;
        EXPECT_EQ(edge_out, in.op == infer::OpCode::kAttnSoftmax)
            << infer::OpCodeName(in.op);
        if (in.op != infer::OpCode::kAttnSoftmax) continue;
        int readers = 0;
        for (const infer::Instr& reader : program.instructions()) {
          if (reader.src0 == in.dst || reader.src1 == in.dst) {
            ++readers;
            EXPECT_EQ(reader.op, infer::OpCode::kEdgeAggregate);
          }
        }
        EXPECT_EQ(readers, 1);
      }
    }
  }
}

// Slot 0 adopts the matrix Execute() is given. A matrix moved in must
// give the bytes of a copied one, forward and (from retained slots)
// reverse, on a fresh scratch and on a warm one, under both policies.
TEST(InferCheckerTest, MovedFeaturesGiveTheBytesOfCopiedOnes) {
  const Graph graph = RandomGraph(2);
  for (const GnnKind kind : kAllKinds) {
    SCOPED_TRACE(GnnKindToString(kind));
    const std::shared_ptr<const GnnModel> model = RandomModel(kind, 2, 41);
    const infer::InferProgram program =
        infer::CompileForInference(*model);
    const GraphContext ctx =
        GraphContext::Build(graph, program.context_parts());
    const Tensor features =
        BuildNodeFeatures(graph, model->config().input_dim);
    const Tensor dscores = Tensor::Ones(graph.num_nodes(), 1);
    for (const infer::SlotPolicy policy :
         {infer::SlotPolicy::kRetain, infer::SlotPolicy::kRelease}) {
      infer::Scratch copied_scratch;
      Tensor copied;
      ASSERT_TRUE(program
                      .Execute(ctx, features, &copied_scratch, &copied,
                               nullptr, policy)
                      .ok());
      infer::Scratch moved_scratch;
      for (int pass = 0; pass < 2; ++pass) {
        Tensor handed_over = features;
        Tensor moved;
        ASSERT_TRUE(program
                        .Execute(ctx, std::move(handed_over), &moved_scratch,
                                 &moved, nullptr, policy)
                        .ok());
        EXPECT_TRUE(BitEqual(moved, copied)) << "pass " << pass;
        if (policy == infer::SlotPolicy::kRelease) continue;
        EXPECT_TRUE(BitEqual(moved_scratch.slots[0], features));
        std::vector<float> want, got;
        ASSERT_TRUE(
            program.Backward(ctx, dscores, &copied_scratch, &want).ok());
        ASSERT_TRUE(
            program.Backward(ctx, dscores, &moved_scratch, &got).ok());
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "pass " << pass;
      }
    }
  }
}

// Attention reads no operator but the in-CSR of the graph the context
// borrows; every other kind reads one operator and no graph.
TEST(InferCheckerTest, ContextPartsAreExactlyWhatTheProgramReads) {
  const struct {
    GnnKind kind;
    uint32_t parts;
    bool reads_graph;
  } kCases[] = {
      {GnnKind::kGcn, GraphContext::kGcnAdj, false},
      {GnnKind::kSage, GraphContext::kMeanInAdj, false},
      {GnnKind::kGat, 0, true},
      {GnnKind::kGrat, 0, true},
      {GnnKind::kGin, GraphContext::kSumInAdj, false},
  };
  const Graph graph = RandomGraph(3);
  const GraphContext full = GraphContext::Build(graph);
  for (const auto& c : kCases) {
    SCOPED_TRACE(GnnKindToString(c.kind));
    const std::shared_ptr<const GnnModel> model = RandomModel(c.kind, 2, 6);
    const infer::InferProgram program =
        infer::CompileForInference(*model);
    ASSERT_EQ(program.context_parts(), c.parts);

    const Tensor features =
        BuildNodeFeatures(graph, model->config().input_dim);
    infer::Scratch scratch;
    Tensor want, got;
    ASSERT_TRUE(program.Execute(full, features, &scratch, &want).ok());
    const GraphContext minimal = GraphContext::Build(graph, c.parts);
    ASSERT_TRUE(
        program.Execute(minimal, features, &scratch, &got).ok());
    EXPECT_TRUE(BitEqual(got, want));

    GraphContext graphless = minimal;
    graphless.graph = nullptr;
    if (c.reads_graph) {
      EXPECT_EQ(
          program.Execute(graphless, features, &scratch, &got).code(),
          StatusCode::kInvalidArgument);
      Rng rng(8);
      const Graph smaller =
          testing::ErdosRenyi(12, 30, /*directed=*/true, &rng).value();
      GraphContext mismatched = minimal;
      mismatched.graph = &smaller;
      EXPECT_EQ(
          program.Execute(mismatched, features, &scratch, &got).code(),
          StatusCode::kInvalidArgument);
    } else {
      ASSERT_TRUE(
          program.Execute(graphless, features, &scratch, &got).ok());
      EXPECT_TRUE(BitEqual(got, want));
    }

    GraphContext lacking =
        GraphContext::Build(graph, GraphContext::kAllParts & ~c.parts);
    if (c.reads_graph) lacking.graph = nullptr;
    EXPECT_EQ(program.Execute(lacking, features, &scratch, &got).code(),
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
// format and still compiles and matches the tape. ------------------------

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

// --- The harness's report: handed a tape forward that is not the model's,
// it names where the two paths part. ---------------------------------------

// With a tanh head on the tape side, the tape's gradient differs from the
// program's (sigmoid) one first in the head weight, parameter 0.
TEST(InferCheckerTest, GradientReportNamesTheFirstDifferingParameter) {
  const std::shared_ptr<const GnnModel> model =
      RandomModel(GnnKind::kGcn, 2, 77);
  const auto param = [&model](int64_t layer, ParamRole role) {
    return model->param(layer, role);
  };
  const testing::TapeForward tanh_head = [&](const GraphContext& ctx,
                                             const Tensor& features) {
    Variable h(features);
    for (int64_t l = 0; l < model->config().num_layers; ++l) {
      h = Relu(AddRowBroadcast(
          MatMul(SpMM(ctx.gcn_adj, h), param(l, ParamRole::kWeight)),
          param(l, ParamRole::kBias)));
    }
    return Result<Variable>(Tanh(AddRowBroadcast(
        MatMul(h, param(ParamLayout::kHead, ParamRole::kWeight)),
        param(ParamLayout::kHead, ParamRole::kBias))));
  };
  Result<testing::GradientReport> report = testing::RunGradientDualPath(
      *model, RandomGraph(1), InfluenceObjective(InfluenceLossOptions()),
      /*scratch=*/nullptr, tanh_head);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_FALSE(report->exact);
  EXPECT_EQ(report->first_difference.rfind("parameter 0 (7x1) index ", 0), 0u)
      << report->ToString();
}

// --- ScoreGraph: the one-shot scorer is the tape's bytes. ------------------

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

// The whole-graph forward keeps nothing after it returns: its scratch and
// every per-node table the attention softmax draws die with the call.
// Measured on a thread that has scored only a small graph before, so a
// table kept per thread — 1.2 MB for the per-node max and sum at 100k
// nodes — would show as growth. glibc counts the small
// freed chunks its per-thread cache keeps (at most seven of each size up
// to 1 KiB) as in use, so the heap returns to its pre-call value within
// those few hundred bytes; the bound allows 16 KiB.
size_t HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(InferCheckerTest, ScoreGraphLeavesTheHeapAsItFoundIt) {
  const Graph graph = BarabasiAlbertParallel(100000, 5, /*seed=*/3).value();
  const Graph small = RandomGraph(1);
  for (const GnnKind kind : {GnnKind::kGat, GnnKind::kGrat}) {
    SCOPED_TRACE(GnnKindToString(kind));
    GnnConfig config;
    config.kind = kind;
    Rng rng(61);
    const std::unique_ptr<GnnModel> model =
        CreateGnnModel(config, &rng).value();
    size_t before = 0;
    size_t after = 0;
    std::thread([&] {
      ASSERT_TRUE(infer::ScoreGraph(*model, small).ok());
      before = HeapInUse();
      ASSERT_TRUE(infer::ScoreGraph(*model, graph).ok());
      after = HeapInUse();
    }).join();
    EXPECT_LE(after, before + (16 << 10));
  }
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
