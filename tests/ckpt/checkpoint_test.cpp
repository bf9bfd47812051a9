#include "privim/ckpt/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "privim/ckpt/io.h"
#include "privim/common/fault_injection.h"
#include "privim/gnn/models.h"
#include "privim/graph/subgraph.h"
#include "privim/nn/autograd.h"
#include "privim/nn/optimizer.h"
#include "testing/graph_fixtures.h"
#include "testing/temp_dir.h"

namespace privim {
namespace ckpt {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = privim::testing::ProcessTempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

GnnConfig SmallConfig() {
  GnnConfig config;
  config.input_dim = 4;
  config.hidden_dim = 6;
  config.num_layers = 2;
  return config;
}

// A self-consistent training state: model + stepped optimizer + container
// of two induced subgraphs + mid-stream RNG with a cached Gaussian.
struct TrainingState {
  std::unique_ptr<GnnModel> model;
  std::unique_ptr<AdamOptimizer> optimizer;
  SubgraphContainer container;
  AccountingState accounting;
  SamplerState sampler;
  Rng rng{123};
};

TrainingState MakeState() {
  TrainingState state;
  Rng init(7);
  auto model = CreateGnnModel(SmallConfig(), &init);
  EXPECT_TRUE(model.ok());
  state.model = std::move(model).value();

  state.optimizer =
      std::make_unique<AdamOptimizer>(state.model->parameters(), 0.01f);
  const size_t params =
      static_cast<size_t>(ParameterCount(state.model->parameters()));
  std::vector<float> grad(params, 0.25f);
  state.optimizer->Step(grad);
  state.optimizer->Step(grad);

  const Graph parent = testing::MakeGraph(
      8, {{0, 1, 0.5f}, {1, 2, 0.25f}, {2, 3, 1.0f}, {4, 5, 0.75f},
          {5, 6, 0.5f}, {6, 7, 0.125f}, {3, 4, 0.0625f}});
  auto sub1 = InducedSubgraph(parent, {0, 1, 2, 3});
  auto sub2 = InducedSubgraph(parent, {4, 5, 6, 7, 3});
  EXPECT_TRUE(sub1.ok());
  EXPECT_TRUE(sub2.ok());
  state.container.Add(std::move(sub1).value());
  state.container.Add(std::move(sub2).value());

  state.accounting.is_private = true;
  state.accounting.noise_multiplier = 1.375;
  state.accounting.achieved_epsilon = 3.99;
  state.accounting.delta = 1e-4;
  state.accounting.occurrence_bound = 6;
  state.accounting.epsilon_trajectory = {0.5, 1.1, 2.0, 3.99};

  state.sampler.frequency = {6, 6, 3, 1, 0, 2, 2, 1};
  state.sampler.empirical_max_occurrence = 6;

  for (int i = 0; i < 5; ++i) state.rng.Next();
  state.rng.NextGaussian();  // leave a cached Box-Muller value behind
  return state;
}

SnapshotRefs MakeRefs(const TrainingState& state) {
  SnapshotRefs refs;
  refs.config_fingerprint = 0x1234567890ABCDEFULL;
  refs.next_iteration = 17;
  refs.total_iterations = 40;
  refs.mean_loss_first = 0.91;
  refs.mean_loss_last = 0.87;
  refs.rng = state.rng.SaveState();
  refs.model = state.model.get();
  refs.optimizer = state.optimizer.get();
  refs.accounting = &state.accounting;
  refs.sampler = &state.sampler;
  refs.container = &state.container;
  refs.train_iterations_counter = 17;
  refs.grads_clipped_counter = 9;
  return refs;
}

std::vector<float> FlattenWeights(const GnnModel& model) {
  std::vector<float> flat;
  for (const Variable& p : model.parameters()) {
    const Tensor& t = p.value();
    flat.insert(flat.end(), t.data(), t.data() + t.size());
  }
  return flat;
}

TEST(CheckpointCodecTest, RoundTripRestoresEveryField) {
  const TrainingState state = MakeState();
  Result<std::string> bytes = EncodeSnapshot(MakeRefs(state));
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  Result<LoadedSnapshot> loaded = DecodeSnapshot(bytes.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedSnapshot& snap = loaded.value();

  EXPECT_EQ(snap.config_fingerprint, 0x1234567890ABCDEFULL);
  EXPECT_EQ(snap.next_iteration, 17);
  EXPECT_EQ(snap.total_iterations, 40);
  EXPECT_EQ(snap.mean_loss_first, 0.91);
  EXPECT_EQ(snap.mean_loss_last, 0.87);
  EXPECT_EQ(snap.rng, state.rng.SaveState());
  EXPECT_TRUE(snap.rng.has_cached_gaussian);

  // Weights are bit-exact.
  ASSERT_NE(snap.model, nullptr);
  EXPECT_EQ(FlattenWeights(*snap.model), FlattenWeights(*state.model));

  // Optimizer moments are bit-exact.
  const OptimizerState original = state.optimizer->SaveState();
  EXPECT_EQ(snap.optimizer.step_count, original.step_count);
  EXPECT_EQ(snap.optimizer.slots, original.slots);

  EXPECT_TRUE(snap.accounting.is_private);
  EXPECT_EQ(snap.accounting.noise_multiplier, 1.375);
  EXPECT_EQ(snap.accounting.achieved_epsilon, 3.99);
  EXPECT_EQ(snap.accounting.delta, 1e-4);
  EXPECT_EQ(snap.accounting.occurrence_bound, 6);
  EXPECT_EQ(snap.accounting.epsilon_trajectory,
            state.accounting.epsilon_trajectory);

  EXPECT_EQ(snap.sampler.frequency, state.sampler.frequency);
  EXPECT_EQ(snap.sampler.empirical_max_occurrence, 6);

  // The container round-trips with identical CSR structure and weights.
  ASSERT_EQ(snap.container.size(), state.container.size());
  for (int64_t i = 0; i < snap.container.size(); ++i) {
    const Subgraph& a = state.container.at(i);
    const Subgraph& b = snap.container.at(i);
    EXPECT_EQ(a.global_ids, b.global_ids);
    EXPECT_EQ(FingerprintGraph(a.local), FingerprintGraph(b.local));
  }

  EXPECT_EQ(snap.train_iterations_counter, 17u);
  EXPECT_EQ(snap.grads_clipped_counter, 9u);
}

TEST(CheckpointCodecTest, EveryFlippedByteIsDetected) {
  const TrainingState state = MakeState();
  Result<std::string> bytes = EncodeSnapshot(MakeRefs(state));
  ASSERT_TRUE(bytes.ok());
  // Flipping any payload byte must be caught by the CRC; flipping header
  // bytes must be caught by the magic/version/size checks.
  for (size_t i = 0; i < bytes.value().size(); i += 97) {
    std::string corrupt = bytes.value();
    corrupt[i] ^= 0x40;
    EXPECT_FALSE(DecodeSnapshot(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST(CheckpointCodecTest, TruncationAtAnyPointFails) {
  const TrainingState state = MakeState();
  Result<std::string> bytes = EncodeSnapshot(MakeRefs(state));
  ASSERT_TRUE(bytes.ok());
  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const size_t keep =
        static_cast<size_t>(fraction * static_cast<double>(bytes->size()));
    EXPECT_FALSE(DecodeSnapshot(bytes->substr(0, keep)).ok())
        << "truncated to " << keep << " bytes";
  }
}

TEST(CheckpointCodecTest, WrongMagicAndVersionGiveClearErrors) {
  const TrainingState state = MakeState();
  Result<std::string> bytes = EncodeSnapshot(MakeRefs(state));
  ASSERT_TRUE(bytes.ok());

  std::string wrong_magic = bytes.value();
  wrong_magic[0] = 'X';
  const Status magic_status = DecodeSnapshot(wrong_magic).status();
  EXPECT_EQ(magic_status.code(), StatusCode::kIOError);
  EXPECT_NE(magic_status.message().find("magic"), std::string::npos);

  std::string wrong_version = bytes.value();
  wrong_version[8] = static_cast<char>(kFormatVersion + 1);
  const Status version_status = DecodeSnapshot(wrong_version).status();
  EXPECT_EQ(version_status.code(), StatusCode::kIOError);
  EXPECT_NE(version_status.message().find("version"), std::string::npos);
}

TEST(CheckpointCodecTest, TrailingGarbageFails) {
  const TrainingState state = MakeState();
  Result<std::string> bytes = EncodeSnapshot(MakeRefs(state));
  ASSERT_TRUE(bytes.ok());
  EXPECT_FALSE(DecodeSnapshot(bytes.value() + "extra").ok());
}

// The snapshot with one edit to the encoding of its second subgraph (nodes
// 4, 5, 6, 7, 3 of MakeState's parent: arcs (0, 1), (1, 2), (2, 3), (4, 0)),
// framed again so the CRC holds and only the decoder's own checks remain.
std::string ReframedWithSubgraphEdit(
    const std::function<void(std::string* subgraph)>& edit) {
  const TrainingState state = MakeState();
  Result<std::string> bytes = EncodeSnapshot(MakeRefs(state));
  EXPECT_TRUE(bytes.ok());
  Result<std::string_view> body =
      Unframe(bytes.value(), "PRIVIMCK", kFormatVersion, "checkpoint");
  EXPECT_TRUE(body.ok()) << body.status().ToString();
  std::string payload(body.value());
  ByteWriter header;
  header.WriteI64(5);
  header.WriteU64(5);
  for (const uint32_t id : {4u, 5u, 6u, 7u, 3u}) header.WriteU32(id);
  header.WriteU64(4);
  const size_t at = payload.find(header.bytes());
  EXPECT_NE(at, std::string::npos);
  std::string subgraph = payload.substr(at, header.bytes().size() + 4 * 12);
  edit(&subgraph);
  payload.replace(at, header.bytes().size() + 4 * 12, subgraph);
  return Frame("PRIVIMCK", kFormatVersion, payload);
}

TEST(CheckpointCodecTest, ImplausibleSubgraphCountsFailCleanly) {
  // A node count of 2^40 (read as the size and the id count), then an arc
  // count of 2^40: each must fail as corrupt before anything is sized by it.
  ByteWriter huge;
  huge.WriteU64(uint64_t{1} << 40);
  const std::string nodes = ReframedWithSubgraphEdit([&](std::string* sub) {
    sub->replace(0, 8, huge.bytes());
    sub->replace(8, 8, huge.bytes());
  });
  const Status node_status = DecodeSnapshot(nodes).status();
  EXPECT_EQ(node_status.code(), StatusCode::kIOError);
  EXPECT_NE(node_status.message().find("implausible"), std::string::npos)
      << node_status.ToString();

  const std::string arcs = ReframedWithSubgraphEdit(
      [&](std::string* sub) { sub->replace(36, 8, huge.bytes()); });
  const Status arc_status = DecodeSnapshot(arcs).status();
  EXPECT_EQ(arc_status.code(), StatusCode::kIOError);
  EXPECT_NE(arc_status.message().find("implausible"), std::string::npos)
      << arc_status.ToString();
}

TEST(CheckpointCodecTest, OutOfOrderSubgraphArcFails) {
  // Swapping the first two arcs makes the source decrease; the old decoder
  // sorted it away, the CSR fill rejects it.
  const std::string swapped = ReframedWithSubgraphEdit([](std::string* sub) {
    const std::string first = sub->substr(44, 12);
    sub->replace(44, 12, sub->substr(56, 12));
    sub->replace(56, 12, first);
  });
  const Status status = DecodeSnapshot(swapped).status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("out of order"), std::string::npos)
      << status.ToString();

  // Unedited, the same re-framing decodes.
  EXPECT_TRUE(DecodeSnapshot(ReframedWithSubgraphEdit([](std::string*) {}))
                  .ok());
}

TEST(CheckpointCodecTest, IncompleteRefsRejected) {
  const TrainingState state = MakeState();
  SnapshotRefs refs = MakeRefs(state);
  refs.model = nullptr;
  EXPECT_EQ(EncodeSnapshot(refs).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointConfigTest, Validation) {
  CheckpointConfig config;
  config.directory = "somewhere";
  EXPECT_TRUE(config.Validate().ok());
  config.every = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.every = 1;
  config.keep = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.keep = 1;
  config.directory = "";
  EXPECT_FALSE(config.Validate().ok());
}

TEST(CheckpointManagerTest, SnapshotFilenameIsZeroPadded) {
  EXPECT_EQ(SnapshotFilename(42), "ckpt-00000042.privim");
  EXPECT_EQ(SnapshotFilename(1), "ckpt-00000001.privim");
}

TEST(CheckpointManagerTest, ShouldCheckpointHonorsCadenceAndFinal) {
  CheckpointConfig config;
  config.directory = "unused";
  config.every = 5;
  CheckpointManager manager(config);
  EXPECT_FALSE(manager.ShouldCheckpoint(1, 12));
  EXPECT_TRUE(manager.ShouldCheckpoint(5, 12));
  EXPECT_FALSE(manager.ShouldCheckpoint(6, 12));
  EXPECT_TRUE(manager.ShouldCheckpoint(10, 12));
  // Always snapshot after the final iteration.
  EXPECT_TRUE(manager.ShouldCheckpoint(12, 12));
}

TEST(CheckpointManagerTest, WriteListLoadAndPrune) {
  const std::string dir = FreshDir("ckpt_manager");
  CheckpointConfig config;
  config.directory = dir;
  config.keep = 2;
  CheckpointManager manager(config);
  ASSERT_TRUE(manager.Initialize().ok());

  EXPECT_EQ(CheckpointManager::LatestSnapshotPath(dir).status().code(),
            StatusCode::kNotFound);

  const TrainingState state = MakeState();
  for (const int64_t iteration : {3, 6, 9}) {
    SnapshotRefs refs = MakeRefs(state);
    refs.next_iteration = iteration;
    ASSERT_TRUE(manager.Write(refs).ok());
  }

  // Pruned to keep=2: iterations 6 and 9 remain, sorted ascending.
  Result<std::vector<std::string>> listed =
      CheckpointManager::ListSnapshots(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed.value().size(), 2u);
  EXPECT_NE(listed.value()[0].find("ckpt-00000006"), std::string::npos);
  EXPECT_NE(listed.value()[1].find("ckpt-00000009"), std::string::npos);

  Result<std::string> latest = CheckpointManager::LatestSnapshotPath(dir);
  ASSERT_TRUE(latest.ok());
  Result<LoadedSnapshot> loaded = CheckpointManager::Load(latest.value());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().next_iteration, 9);

  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, DiscoveryIgnoresTempArtifactsAndStrangers) {
  const std::string dir = FreshDir("ckpt_discovery");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"ckpt-00000005.privim.tmp.1234", "ckpt-abc.privim", "notes.txt",
        "ckpt-.privim"}) {
    std::ofstream(dir + "/" + name) << "debris";
  }
  Result<std::vector<std::string>> listed =
      CheckpointManager::ListSnapshots(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed.value().empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointManagerTest, MissingDirectoryHasNoSnapshots) {
  const std::string dir = FreshDir("ckpt_missing");
  Result<std::vector<std::string>> listed =
      CheckpointManager::ListSnapshots(dir);
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed.value().empty());
  EXPECT_EQ(CheckpointManager::LatestSnapshotPath(dir).status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointManagerTest, LoadRejectsCorruptFileWithPathInError) {
  const std::string dir = FreshDir("ckpt_corrupt");
  CheckpointConfig config;
  config.directory = dir;
  CheckpointManager manager(config);
  ASSERT_TRUE(manager.Initialize().ok());
  const TrainingState state = MakeState();
  ASSERT_TRUE(manager.Write(MakeRefs(state)).ok());

  Result<std::string> latest = CheckpointManager::LatestSnapshotPath(dir);
  ASSERT_TRUE(latest.ok());
  {
    std::fstream file(latest.value(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(64);
    file.put('\xff');
  }
  const Status status = CheckpointManager::Load(latest.value()).status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find(latest.value()), std::string::npos);
  std::filesystem::remove_all(dir);
}

// In-process fault injection: a crash in the middle of the write protocol
// must never leave a half-written snapshot visible to discovery.
TEST(CheckpointManagerTest, MidWriteFaultLeavesNoVisibleSnapshot) {
  const std::string dir = FreshDir("ckpt_midwrite");
  CheckpointConfig config;
  config.directory = dir;
  CheckpointManager manager(config);
  ASSERT_TRUE(manager.Initialize().ok());
  const TrainingState state = MakeState();

  for (const char* point :
       {"atomic_write.mid_write", "atomic_write.pre_rename"}) {
    fault::ArmPointFault(point, fault::Mode::kStatus);
    const Status status = manager.Write(MakeRefs(state));
    fault::ClearFaults();
    EXPECT_EQ(status.code(), StatusCode::kInternal) << point;
    Result<std::vector<std::string>> listed =
        CheckpointManager::ListSnapshots(dir);
    ASSERT_TRUE(listed.ok());
    EXPECT_TRUE(listed.value().empty()) << point;
  }

  // A fault after the rename (e.g. during pruning) leaves a fully valid
  // snapshot behind.
  fault::ArmPointFault("ckpt.pre_prune", fault::Mode::kStatus);
  const Status status = manager.Write(MakeRefs(state));
  fault::ClearFaults();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  Result<std::string> latest = CheckpointManager::LatestSnapshotPath(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_TRUE(CheckpointManager::Load(latest.value()).ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ckpt
}  // namespace privim
