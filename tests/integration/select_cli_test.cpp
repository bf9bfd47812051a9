// privim_cli select ranks a graph with a saved model through the compiled
// program (infer::ScoreGraph). For every GNN kind it must print the seeds
// `train` released for the same graph, and a model file whose shapes do not
// fit must end in one "error:" line and exit status 1, never an assertion
// or a signal.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/atomic_file.h"
#include "testing/fault_injection.h"

namespace privim {
namespace {

using testing::PrivimCliBinary;
using testing::RunSubprocess;
using testing::SubprocessResult;

class SelectCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = PrivimCliBinary();
    if (cli_.empty() || !std::filesystem::exists(cli_)) {
      GTEST_SKIP() << "privim_cli binary not available";
    }
    // Per-test directory: ctest -j runs these cases concurrently.
    dir_ = ::testing::TempDir() + "/select_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // Two interleaved cycles plus a chord fan over 90 nodes.
    graph_path_ = dir_ + "/graph.txt";
    std::ofstream file(graph_path_);
    const int n = 90;
    for (int v = 0; v < n; ++v) {
      file << v << " " << (v + 1) % n << "\n";
      file << v << " " << (v + 7) % n << "\n";
      if (v % 9 == 0) file << v << " " << (v + 31) % n << "\n";
    }
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Trains a `kind` model into `model` and returns the seeds train printed.
  std::vector<std::string> Train(const std::string& kind,
                                 const std::string& model) const {
    const SubprocessResult run = RunSubprocess(
        cli_ + " train --graph " + graph_path_ + " --gnn " + kind +
        " --iterations 4 --subgraph-size 15 --batch-size 6 --k 5 --threads 1" +
        " --model " + model);
    EXPECT_EQ(run.exit_code, 0) << run.output;
    const std::string marker = "top-5 seeds:";
    const size_t at = run.output.find(marker);
    EXPECT_NE(at, std::string::npos) << run.output;
    if (at == std::string::npos) return {};
    std::istringstream line(run.output.substr(
        at + marker.size(), run.output.find('\n', at) - at - marker.size()));
    std::vector<std::string> seeds;
    for (std::string seed; line >> seed;) seeds.push_back(seed);
    return seeds;
  }

  SubprocessResult Select(const std::string& model) const {
    return RunSubprocess(cli_ + " select --graph " + graph_path_ +
                         " --model " + model + " --k 5");
  }

  std::string cli_;
  std::string dir_;
  std::string graph_path_;
};

TEST_F(SelectCliTest, SelectPrintsTheSeedsTrainReleasedForEveryKind) {
  for (const std::string kind : {"gcn", "sage", "gat", "grat", "gin"}) {
    SCOPED_TRACE(kind);
    const std::string model = dir_ + "/" + kind + ".model";
    const std::vector<std::string> released = Train(kind, model);
    ASSERT_EQ(released.size(), 5u);

    const SubprocessResult select = Select(model);
    ASSERT_EQ(select.exit_code, 0) << select.output;
    std::istringstream lines(select.output);
    std::vector<std::string> selected;
    for (std::string seed; lines >> seed;) selected.push_back(seed);
    EXPECT_EQ(selected, released) << select.output;
  }
}

TEST_F(SelectCliTest, MisshapenModelFileFailsWithACleanError) {
  const std::string model = dir_ + "/grat.model";
  ASSERT_EQ(Train("grat", model).size(), 5u);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(model, &contents).ok());

  // The header claims one more input than the first weight has rows, and
  // separately a kind whose parameter layout the file does not carry.
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"input_dim 8\n", "input_dim 9\n"},
      {"kind grat\n", "kind gin\n"},
  };
  for (const auto& [from, to] : edits) {
    SCOPED_TRACE(to);
    std::string edited = contents;
    const size_t at = edited.find(from);
    ASSERT_NE(at, std::string::npos) << contents.substr(0, 200);
    edited.replace(at, from.size(), to);
    const std::string path = dir_ + "/edited.model";
    ASSERT_TRUE(AtomicWriteFile(path, edited).ok());

    const SubprocessResult select = Select(path);
    EXPECT_FALSE(select.signalled) << select.output;
    EXPECT_EQ(select.exit_code, 1) << select.output;
    EXPECT_EQ(select.output.rfind("error: ", 0), 0u) << select.output;
    EXPECT_EQ(select.output.find("Assertion"), std::string::npos)
        << select.output;
  }
}

}  // namespace
}  // namespace privim
