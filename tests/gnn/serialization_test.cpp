#include "privim/gnn/serialization.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "privim/common/atomic_file.h"
#include "privim/gnn/features.h"
#include "privim/graph/generators.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

std::string TempPath(const std::string& name) {
  return privim::testing::ProcessTempDir() + "/" + name;
}

GnnConfig SmallConfig(GnnKind kind) {
  GnnConfig config;
  config.kind = kind;
  config.input_dim = 4;
  config.hidden_dim = 6;
  config.num_layers = 2;
  return config;
}

class SerializationSweepTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(SerializationSweepTest, RoundTripIsBitExact) {
  Rng rng(1);
  auto original = CreateGnnModel(SmallConfig(GetParam()), &rng);
  ASSERT_TRUE(original.ok());
  // Perturb weights so we are not round-tripping an all-fresh init.
  for (const Variable& p : original.value()->parameters()) {
    Tensor& t = const_cast<Variable&>(p).mutable_value();
    for (int64_t i = 0; i < t.size(); ++i) t.data()[i] *= 1.37f;
  }

  const std::string path =
      TempPath(std::string("model_") + GnnKindToString(GetParam()) + ".txt");
  ASSERT_TRUE(SaveGnnModel(*original.value(), path).ok());
  Result<std::unique_ptr<GnnModel>> loaded = LoadGnnModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Architecture matches.
  EXPECT_EQ(loaded.value()->config().kind, GetParam());
  EXPECT_EQ(loaded.value()->config().hidden_dim, 6);
  // Weights match bit-exactly.
  const auto& orig_params = original.value()->parameters();
  const auto& load_params = loaded.value()->parameters();
  ASSERT_EQ(orig_params.size(), load_params.size());
  for (size_t i = 0; i < orig_params.size(); ++i) {
    const Tensor& a = orig_params[i].value();
    const Tensor& b = load_params[i].value();
    ASSERT_TRUE(a.SameShape(b));
    for (int64_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a.data()[j], b.data()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST_P(SerializationSweepTest, LoadedModelProducesIdenticalForward) {
  Rng graph_rng(2);
  Result<Graph> graph = BarabasiAlbert(25, 3, &graph_rng);
  ASSERT_TRUE(graph.ok());
  const GraphContext ctx = GraphContext::Build(graph.value());
  const Tensor features = BuildNodeFeatures(graph.value(), 4);

  Rng rng(3);
  auto original = CreateGnnModel(SmallConfig(GetParam()), &rng);
  ASSERT_TRUE(original.ok());
  const std::string path =
      TempPath(std::string("fwd_") + GnnKindToString(GetParam()) + ".txt");
  ASSERT_TRUE(SaveGnnModel(*original.value(), path).ok());
  Result<std::unique_ptr<GnnModel>> loaded = LoadGnnModel(path);
  ASSERT_TRUE(loaded.ok());

  const Tensor a = original.value()->Forward(ctx, Variable(features)).value();
  const Tensor b = loaded.value()->Forward(ctx, Variable(features)).value();
  for (int64_t v = 0; v < a.rows(); ++v) {
    EXPECT_EQ(a.at(v, 0), b.at(v, 0));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SerializationSweepTest,
                         ::testing::Values(GnnKind::kGcn, GnnKind::kSage,
                                           GnnKind::kGat, GnnKind::kGrat,
                                           GnnKind::kGin),
                         [](const ::testing::TestParamInfo<GnnKind>& info) {
                           return GnnKindToString(info.param);
                         });

TEST(SerializationTest, MissingFileFails) {
  EXPECT_EQ(LoadGnnModel("/nonexistent/model.txt").status().code(),
            StatusCode::kIOError);
}

TEST(SerializationTest, GarbageFileFails) {
  const std::string path = TempPath("garbage_model.txt");
  {
    std::ofstream file(path);
    file << "not a model\n";
  }
  EXPECT_FALSE(LoadGnnModel(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileFails) {
  Rng rng(4);
  auto model = CreateGnnModel(SmallConfig(GnnKind::kGcn), &rng);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("truncated_model.txt");
  ASSERT_TRUE(SaveGnnModel(*model.value(), path).ok());
  // Chop off the tail.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path);
    out << contents.substr(0, contents.size() / 2);
  }
  EXPECT_FALSE(LoadGnnModel(path).ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, SavePathUnwritableFails) {
  Rng rng(5);
  auto model = CreateGnnModel(SmallConfig(GnnKind::kGcn), &rng);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(SaveGnnModel(*model.value(), "/nonexistent_dir/m.txt").code(),
            StatusCode::kIOError);
}

TEST(SerializationTest, StreamRoundTripMatchesFileRoundTrip) {
  // The checkpoint subsystem embeds WriteGnnModel's encoding inside its
  // snapshots; it must decode to the same weights as the on-disk path.
  Rng rng(6);
  auto model = CreateGnnModel(SmallConfig(GnnKind::kSage), &rng);
  ASSERT_TRUE(model.ok());

  std::ostringstream out;
  ASSERT_TRUE(WriteGnnModel(*model.value(), out).ok());
  std::istringstream in(out.str());
  Result<std::unique_ptr<GnnModel>> loaded = ReadGnnModel(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto& orig_params = model.value()->parameters();
  const auto& load_params = loaded.value()->parameters();
  ASSERT_EQ(orig_params.size(), load_params.size());
  for (size_t i = 0; i < orig_params.size(); ++i) {
    const Tensor& a = orig_params[i].value();
    const Tensor& b = load_params[i].value();
    for (int64_t j = 0; j < a.size(); ++j) EXPECT_EQ(a.data()[j], b.data()[j]);
  }
}

TEST(SerializationTest, WrongVersionHeaderFails) {
  Rng rng(7);
  auto model = CreateGnnModel(SmallConfig(GnnKind::kGcn), &rng);
  ASSERT_TRUE(model.ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteGnnModel(*model.value(), out).ok());
  std::string text = out.str();
  const size_t pos = text.find("v1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 2, "v9");
  std::istringstream in(text);
  EXPECT_FALSE(ReadGnnModel(in).ok());
}

TEST(SerializationTest, AtomicSaveLeavesNoTempArtifact) {
  // A successful save must leave exactly the model file: the temp file the
  // atomic-write protocol stages through is renamed away, never abandoned.
  Rng rng(8);
  auto model = CreateGnnModel(SmallConfig(GnnKind::kGin), &rng);
  ASSERT_TRUE(model.ok());
  const std::string dir = TempPath("atomic_save_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveGnnModel(*model.value(), dir + "/m.txt").ok());

  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "m.txt");
    EXPECT_FALSE(IsTempArtifact(entry.path().filename().string()));
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(SerializationTest, SaveOverExistingFileReplacesItAtomically) {
  Rng rng(9);
  auto first = CreateGnnModel(SmallConfig(GnnKind::kGcn), &rng);
  auto second = CreateGnnModel(SmallConfig(GnnKind::kGcn), &rng);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const std::string path = TempPath("replace_model.txt");
  ASSERT_TRUE(SaveGnnModel(*first.value(), path).ok());
  ASSERT_TRUE(SaveGnnModel(*second.value(), path).ok());

  Result<std::unique_ptr<GnnModel>> loaded = LoadGnnModel(path);
  ASSERT_TRUE(loaded.ok());
  const auto& want = second.value()->parameters();
  const auto& got = loaded.value()->parameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    for (int64_t j = 0; j < want[i].value().size(); ++j) {
      EXPECT_EQ(got[i].value().data()[j], want[i].value().data()[j]);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace privim
