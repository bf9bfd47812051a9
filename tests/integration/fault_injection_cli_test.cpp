// Real-crash coverage: privim_cli is killed by an injected _Exit (via the
// PRIVIM_FAULT_* environment variables) at every phase of the checkpoint
// protocol — mid training, mid snapshot write, just before and just after
// the atomic rename — and resumed. The resumed run must write a model file
// byte-identical to an uninterrupted run's, and corrupt snapshots must be
// refused with a non-zero exit.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "privim/common/atomic_file.h"
#include "privim/common/fault_injection.h"
#include "testing/fault_injection.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

using testing::PrivimCliBinary;
using testing::RunSubprocess;
using testing::SubprocessResult;

class FaultInjectionCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = PrivimCliBinary();
    if (cli_.empty() || !std::filesystem::exists(cli_)) {
      GTEST_SKIP() << "privim_cli binary not available";
    }
    // Per-test directory: ctest -j runs these cases concurrently.
    dir_ = privim::testing::ProcessTempDir() + "/fault_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    WriteGraphFile();
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A small deterministic graph: two interleaved cycles over 90 nodes.
  void WriteGraphFile() {
    graph_path_ = dir_ + "/graph.txt";
    std::ofstream file(graph_path_);
    const int n = 90;
    for (int v = 0; v < n; ++v) {
      file << v << " " << (v + 1) % n << "\n";
      file << v << " " << (v + 7) % n << "\n";
    }
  }

  std::string TrainCommand(const std::string& ckpt_dir,
                           const std::string& model, bool resume,
                           int threads) const {
    std::string cmd = cli_ + " train --graph " + graph_path_ +
                      " --iterations 8 --subgraph-size 15 --batch-size 6" +
                      " --k 5 --checkpoint-dir " + ckpt_dir + " --model " +
                      model + " --threads " + std::to_string(threads);
    if (resume) cmd += " --resume";
    return cmd;
  }

  std::string ReadFile(const std::string& path) const {
    std::string contents;
    EXPECT_TRUE(ReadFileToString(path, &contents).ok()) << path;
    return contents;
  }

  std::string cli_;
  std::string dir_;
  std::string graph_path_;
};

TEST_F(FaultInjectionCliTest, CrashAfterIterationThenResumeBitIdentical) {
  // Uninterrupted reference run.
  const std::string ref_model = dir_ + "/ref.model";
  SubprocessResult ref =
      RunSubprocess(TrainCommand(dir_ + "/ck_ref", ref_model, false, 2));
  ASSERT_EQ(ref.exit_code, 0) << ref.output;

  // Kill after iteration 3 (0-based) completed and checkpointed.
  const std::string model = dir_ + "/crash.model";
  SubprocessResult crash =
      RunSubprocess(TrainCommand(dir_ + "/ck", model, false, 2),
                    {{"PRIVIM_FAULT_EXIT_AT_ITER", "3"}});
  EXPECT_EQ(crash.exit_code, fault::kFaultExitCode) << crash.output;
  EXPECT_FALSE(std::filesystem::exists(model));

  // Resume at a different thread count; the model must match byte-for-byte.
  SubprocessResult resume =
      RunSubprocess(TrainCommand(dir_ + "/ck", model, true, 4));
  ASSERT_EQ(resume.exit_code, 0) << resume.output;
  EXPECT_NE(resume.output.find("resumed at iteration 4 of 8"),
            std::string::npos)
      << resume.output;
  EXPECT_EQ(ReadFile(model), ReadFile(ref_model));
}

TEST_F(FaultInjectionCliTest, CrashInsideSnapshotWriteIsRecoverable) {
  const std::string ref_model = dir_ + "/ref.model";
  SubprocessResult ref =
      RunSubprocess(TrainCommand(dir_ + "/ck_ref", ref_model, false, 2));
  ASSERT_EQ(ref.exit_code, 0) << ref.output;

  // Crash at each phase of the write protocol: half-written temp file,
  // after the temp is durable but not yet renamed, and right after the
  // rename. The 3rd occurrence means two snapshots already landed.
  for (const char* point :
       {"atomic_write.mid_write@3", "atomic_write.pre_rename@3",
        "atomic_write.post_rename@3"}) {
    const std::string tag = std::string(point).substr(13, 3);
    const std::string ckpt_dir = dir_ + "/ck_" + tag;
    const std::string model = dir_ + "/m_" + tag + ".model";
    SubprocessResult crash =
        RunSubprocess(TrainCommand(ckpt_dir, model, false, 2),
                      {{"PRIVIM_FAULT_CRASH_AT", point}});
    EXPECT_EQ(crash.exit_code, fault::kFaultExitCode)
        << point << ": " << crash.output;

    SubprocessResult resume =
        RunSubprocess(TrainCommand(ckpt_dir, model, true, 2));
    ASSERT_EQ(resume.exit_code, 0) << point << ": " << resume.output;
    EXPECT_EQ(ReadFile(model), ReadFile(ref_model)) << point;

    // Any temp debris the crash left behind must have been ignored, and
    // the completed resume leaves only valid snapshots plus debris.
    for (const auto& entry :
         std::filesystem::directory_iterator(ckpt_dir)) {
      const std::string name = entry.path().filename().string();
      if (!IsTempArtifact(name)) {
        EXPECT_TRUE(name.starts_with("ckpt-")) << name;
        EXPECT_TRUE(name.ends_with(".privim")) << name;
      }
    }
  }
}

TEST_F(FaultInjectionCliTest, CorruptLatestSnapshotIsRefused) {
  const std::string model = dir_ + "/m.model";
  const std::string ckpt_dir = dir_ + "/ck";
  SubprocessResult crash =
      RunSubprocess(TrainCommand(ckpt_dir, model, false, 2),
                    {{"PRIVIM_FAULT_EXIT_AT_ITER", "5"}});
  ASSERT_EQ(crash.exit_code, fault::kFaultExitCode) << crash.output;

  // Flip one byte in the middle of the newest snapshot.
  std::string latest;
  for (const auto& entry : std::filesystem::directory_iterator(ckpt_dir)) {
    const std::string path = entry.path().string();
    if (!IsTempArtifact(path) && path > latest) latest = path;
  }
  ASSERT_FALSE(latest.empty());
  {
    std::fstream file(latest,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(latest) / 2));
    file.put('\x7f');
  }

  SubprocessResult resume =
      RunSubprocess(TrainCommand(ckpt_dir, model, true, 2));
  EXPECT_NE(resume.exit_code, 0);
  EXPECT_NE(resume.output.find("corrupt"), std::string::npos)
      << resume.output;

  // Truncation is refused as well.
  std::filesystem::resize_file(latest,
                               std::filesystem::file_size(latest) / 3);
  SubprocessResult truncated =
      RunSubprocess(TrainCommand(ckpt_dir, model, true, 2));
  EXPECT_NE(truncated.exit_code, 0);
  EXPECT_NE(truncated.output.find("truncated"), std::string::npos)
      << truncated.output;
}

TEST_F(FaultInjectionCliTest, ResumeWithDifferentSeedIsRefused) {
  const std::string model = dir_ + "/m.model";
  const std::string ckpt_dir = dir_ + "/ck";
  SubprocessResult crash =
      RunSubprocess(TrainCommand(ckpt_dir, model, false, 2),
                    {{"PRIVIM_FAULT_EXIT_AT_ITER", "2"}});
  ASSERT_EQ(crash.exit_code, fault::kFaultExitCode) << crash.output;

  SubprocessResult resume = RunSubprocess(
      TrainCommand(ckpt_dir, model, true, 2) + " --seed 1234");
  EXPECT_NE(resume.exit_code, 0);
  EXPECT_NE(resume.output.find("refusing to resume"), std::string::npos)
      << resume.output;
}

TEST_F(FaultInjectionCliTest, ResumeWithoutCheckpointDirIsAnError) {
  SubprocessResult result = RunSubprocess(
      cli_ + " train --graph " + graph_path_ + " --resume");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("--resume requires --checkpoint-dir"),
            std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace privim
