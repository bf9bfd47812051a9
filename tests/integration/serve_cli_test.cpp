// End-to-end coverage of privim_serve: drives the real binary over a
// JSON-lines request stream and checks input-order responses, bit-identical
// output at 1/4/8 worker threads, graceful per-line error handling, the
// unknown-flag surface and the serve.* metrics export. A
// concurrent-producers case runs several server processes over the same
// inputs at once — their outputs must still be byte-identical.

#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/gnn/models.h"
#include "privim/gnn/serialization.h"
#include "testing/fault_injection.h"

namespace privim {
namespace {

using testing::RunSubprocess;
using testing::SubprocessResult;

std::string PrivimServeBinary() {
#ifdef PRIVIM_SERVE_BINARY
  return PRIVIM_SERVE_BINARY;
#else
  return "";
#endif
}

class ServeCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve_ = PrivimServeBinary();
    if (serve_.empty() || !std::filesystem::exists(serve_)) {
      GTEST_SKIP() << "privim_serve binary not available";
    }
    // One directory per test: ctest -j runs these cases as separate
    // processes concurrently, so a shared directory would be wiped from
    // under a sibling's live server.
    dir_ = ::testing::TempDir() + "/serve_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    graph_path_ = dir_ + "/graph.txt";
    std::ofstream graph(graph_path_);
    const int n = 40;
    for (int v = 0; v < n; ++v) {
      graph << v << " " << (v + 1) % n << "\n";
      graph << v << " " << (v + 9) % n << "\n";
    }
    graph.close();

    // A freshly initialized (untrained) model is enough for serving: the
    // engine only needs consistent weights, not good ones.
    model_path_ = dir_ + "/m.model";
    GnnConfig config;
    config.kind = GnnKind::kGcn;
    config.input_dim = 4;
    config.hidden_dim = 6;
    config.num_layers = 2;
    Rng rng(11);
    ASSERT_TRUE(
        SaveGnnModel(*CreateGnnModel(config, &rng).value(), model_path_)
            .ok());

    requests_path_ = dir_ + "/requests.jsonl";
    std::ofstream requests(requests_path_);
    // > 64 requests so the submit-everything-first front end holds a
    // large in-flight window against the engine.
    for (int i = 0; i < 72; ++i) {
      switch (i % 6) {
        case 0:
          requests << R"({"id":"r)" << i << R"(","op":"influence","nodes":[)"
                   << (i % 40) << "]}\n";
          break;
        case 1:
          requests << R"({"id":"r)" << i << R"(","op":"topk","k":5})"
                   << "\n";
          break;
        case 2:
          requests << R"({"id":"r)" << i
                   << R"(","op":"topk","k":4,"method":"celf"})"
                   << "\n";
          break;
        case 3:
          requests << R"({"id":"r)" << i
                   << R"(","op":"topk","k":3,"method":"ris","rr_sets":200,)"
                   << R"("seed":)" << (i % 5) << "}\n";
          break;
        case 4:
          requests << R"({"id":"r)" << i << R"(","op":"spread","seeds":[)"
                   << (i % 40) << R"(],"simulations":40,"seed":)" << (i % 3)
                   << "}\n";
          break;
        case 5:
          requests << R"({"id":"r)" << i << R"(","op":"spread","seeds":[)"
                   << (i % 40) << R"(],"simulations":0})"
                   << "\n";
          break;
      }
    }
    // Per-line failures must not kill the stream.
    requests << R"({"id":"bad-op","op":"frobnicate"})" << "\n";
    requests << R"({"id":"bad-node","op":"spread","seeds":[4096],)"
             << R"("simulations":0})"
             << "\n";
    requests << "not json at all\n";
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Command(int threads, const std::string& out,
                      const std::string& extra = "") const {
    return serve_ + " --graph " + graph_path_ + " --undirected --model " +
           model_path_ + " --requests " + requests_path_ + " --out " + out +
           " --threads " + std::to_string(threads) + " " + extra;
  }

  std::string ReadFile(const std::string& path) const {
    std::ifstream file(path);
    std::stringstream buffer;
    buffer << file.rdbuf();
    return buffer.str();
  }

  std::string serve_;
  std::string dir_;
  std::string graph_path_;
  std::string model_path_;
  std::string requests_path_;
};

TEST_F(ServeCliTest, AnswersInInputOrderWithPerLineErrors) {
  const std::string out = dir_ + "/out.jsonl";
  const SubprocessResult result = RunSubprocess(Command(2, out));
  ASSERT_EQ(result.exit_code, 0) << result.output;

  std::ifstream file(out);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 75u);
  for (int i = 0; i < 72; ++i) {
    const std::string id = "\"id\":\"r" + std::to_string(i) + "\"";
    EXPECT_NE(lines[i].find(id), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos) << lines[i];
  }
  // The three failure modes: unknown op (id recovered), out-of-range node
  // (request reached the engine), unparseable line (no id to echo).
  EXPECT_NE(lines[72].find("\"id\":\"bad-op\""), std::string::npos);
  EXPECT_NE(lines[72].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[73].find("\"id\":\"bad-node\""), std::string::npos);
  EXPECT_NE(lines[73].find("\"code\":\"OutOfRange\""), std::string::npos);
  EXPECT_NE(lines[74].find("\"ok\":false"), std::string::npos);
}

TEST_F(ServeCliTest, OutputIsBitIdenticalAtOneFourAndEightThreads) {
  const std::string out1 = dir_ + "/t1.jsonl";
  ASSERT_EQ(RunSubprocess(Command(1, out1)).exit_code, 0);
  const std::string reference = ReadFile(out1);
  ASSERT_FALSE(reference.empty());
  for (int threads : {4, 8}) {
    const std::string out = dir_ + "/t" + std::to_string(threads) + ".jsonl";
    ASSERT_EQ(RunSubprocess(Command(threads, out)).exit_code, 0);
    EXPECT_EQ(ReadFile(out), reference) << threads << " threads diverged";
  }
}

TEST_F(ServeCliTest, ConcurrentServerProcessesProduceIdenticalOutput) {
  // Three servers hammering the same graph/model concurrently — the
  // determinism guarantee must survive real scheduling noise.
  std::vector<std::future<SubprocessResult>> runs;
  for (int i = 0; i < 3; ++i) {
    const std::string out = dir_ + "/conc" + std::to_string(i) + ".jsonl";
    runs.push_back(std::async(std::launch::async, [this, i, out] {
      return RunSubprocess(Command(2 + i, out));
    }));
  }
  for (auto& run : runs) {
    ASSERT_EQ(run.get().exit_code, 0);
  }
  const std::string reference = ReadFile(dir_ + "/conc0.jsonl");
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(ReadFile(dir_ + "/conc1.jsonl"), reference);
  EXPECT_EQ(ReadFile(dir_ + "/conc2.jsonl"), reference);
}

TEST_F(ServeCliTest, ExportsServeMetrics) {
  const std::string out = dir_ + "/metrics_run.jsonl";
  const std::string metrics = dir_ + "/metrics.json";
  const SubprocessResult result =
      RunSubprocess(Command(2, out, "--metrics-out " + metrics));
  ASSERT_EQ(result.exit_code, 0) << result.output;
  const std::string exported = ReadFile(metrics);
  EXPECT_NE(exported.find("serve.batch.size"), std::string::npos);
  EXPECT_NE(exported.find("serve.latency.seconds"), std::string::npos);
  EXPECT_NE(exported.find("serve.cache.misses"), std::string::npos);
  EXPECT_NE(exported.find("serve.queue.depth"), std::string::npos);
}

TEST_F(ServeCliTest, CacheHitsAreReportedForRepeatedRequests) {
  // Duplicate the whole stream: the second half must hit the cache.
  const std::string doubled = dir_ + "/doubled.jsonl";
  {
    const std::string original = ReadFile(requests_path_);
    std::ofstream file(doubled);
    file << original << original;
  }
  const std::string out = dir_ + "/doubled_out.jsonl";
  const SubprocessResult result = RunSubprocess(
      serve_ + " --graph " + graph_path_ + " --undirected --model " +
      model_path_ + " --requests " + doubled + " --out " + out +
      " --threads 2");
  ASSERT_EQ(result.exit_code, 0) << result.output;
  // The stats line reports cache hits on stderr (combined output here).
  EXPECT_NE(result.output.find("cache"), std::string::npos);
  // Both halves produced identical response blocks.
  std::ifstream file(out);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 150u);
  for (size_t i = 0; i < 75; ++i) {
    EXPECT_EQ(lines[i], lines[i + 75]) << "line " << i;
  }
}

TEST_F(ServeCliTest, SketchIndexBuildLoadAndServe) {
  // A sketch-vs-celf pair per k: on this unit-weight graph the answers
  // must agree exactly, whichever path produced them.
  const std::string requests = dir_ + "/sketch_requests.jsonl";
  {
    std::ofstream file(requests);
    for (int k = 1; k <= 5; ++k) {
      file << R"({"id":"s)" << k << R"(","op":"topk","k":)" << k
           << R"(,"method":"sketch"})" << "\n";
      file << R"({"id":"c)" << k << R"(","op":"topk","k":)" << k
           << R"(,"method":"celf"})" << "\n";
    }
  }
  const std::string index = dir_ + "/index.privimsx";
  const std::string base = serve_ + " --graph " + graph_path_ +
                           " --undirected --requests " + requests +
                           " --threads 2 --assets-sketch-index " + index;

  // First run builds and persists the index, then serves from it.
  const std::string built_out = dir_ + "/sketch_built.jsonl";
  const SubprocessResult built = RunSubprocess(
      base + " --assets-build-sketch-index --out " + built_out);
  ASSERT_EQ(built.exit_code, 0) << built.output;
  EXPECT_NE(built.output.find("sketch index built"), std::string::npos)
      << built.output;
  EXPECT_NE(built.output.find("5 served, 0 fallbacks (index attached)"),
            std::string::npos)
      << built.output;
  ASSERT_TRUE(std::filesystem::exists(index));

  // Second run loads the persisted index and answers identically.
  const std::string loaded_out = dir_ + "/sketch_loaded.jsonl";
  const SubprocessResult loaded =
      RunSubprocess(base + " --out " + loaded_out);
  ASSERT_EQ(loaded.exit_code, 0) << loaded.output;
  EXPECT_EQ(loaded.output.find("sketch index built"), std::string::npos);
  EXPECT_EQ(ReadFile(loaded_out), ReadFile(built_out));

  // Each sketch line carries the exact seed set its celf twin computed
  // (celf lines additionally report "evaluations", so compare the seeds).
  std::ifstream file(built_out);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(file, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 10u);
  const auto seeds_of = [](const std::string& l) {
    const size_t from = l.find("\"seeds\":[");
    EXPECT_NE(from, std::string::npos) << l;
    return l.substr(from, l.find(']', from) - from + 1);
  };
  for (int k = 0; k < 5; ++k) {
    EXPECT_EQ(seeds_of(lines[2 * k]), seeds_of(lines[2 * k + 1]))
        << "k = " << k + 1;
    EXPECT_NE(lines[2 * k].find("\"ok\":true"), std::string::npos)
        << lines[2 * k];
  }

  // A mismatched index is refused outright, not silently ignored.
  const std::string other_graph = dir_ + "/other.txt";
  {
    std::ofstream g(other_graph);
    g << "0 1\n1 2\n";
  }
  const SubprocessResult mismatch = RunSubprocess(
      serve_ + " --graph " + other_graph + " --requests " + requests +
      " --out " + dir_ + "/mismatch.jsonl --assets-sketch-index " + index);
  EXPECT_NE(mismatch.exit_code, 0);
  EXPECT_NE(mismatch.output.find("different graph"), std::string::npos)
      << mismatch.output;

  // --assets-build-sketch-index without a path to write is a flag error.
  EXPECT_NE(RunSubprocess(Command(2, dir_ + "/y.jsonl",
                                  "--assets-build-sketch-index"))
                .exit_code,
            0);
}

TEST_F(ServeCliTest, HelpDocumentsTheAssetsFlagsAndTheirAliases) {
  const SubprocessResult help = RunSubprocess(serve_ + " --help");
  ASSERT_EQ(help.exit_code, 0);
  EXPECT_NE(help.output.find("--assets-sketch-index"), std::string::npos)
      << help.output;
  EXPECT_NE(help.output.find("--net-loops"), std::string::npos)
      << help.output;
}

TEST_F(ServeCliTest, BadFlagsFailFast) {
  EXPECT_NE(RunSubprocess(serve_ + " --graph " + graph_path_ +
                          " --bogus-flag 1")
                .exit_code,
            0);
  EXPECT_NE(RunSubprocess(serve_ + " --requests " + requests_path_)
                .exit_code,
            0)
      << "--graph should be required";
  EXPECT_NE(RunSubprocess(Command(2, dir_ + "/x.jsonl",
                                  "--queue-capacity 0"))
                .exit_code,
            0);
  // A retired spelling is an unknown flag like any other.
  const SubprocessResult retired =
      RunSubprocess(Command(2, dir_ + "/z.jsonl", "--sketch-index x"));
  EXPECT_NE(retired.exit_code, 0);
  EXPECT_NE(retired.output.find("unknown flag --sketch-index (see --help)"),
            std::string::npos)
      << retired.output;
}

}  // namespace
}  // namespace privim
