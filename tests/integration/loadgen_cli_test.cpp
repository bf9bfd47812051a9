// Drives the real privim_loadgen binary against a live privim_serve
// --listen process and validates the JSON report: every request answered,
// percentiles ordered, QPS consistent with the request count, and the
// seeded workload deterministic in shape.

#include <filesystem>
#include <fstream>
#include <string>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/gnn/models.h"
#include "privim/gnn/serialization.h"
#include "privim/serve/json.h"
#include "testing/fault_injection.h"
#include "testing/subprocess_server.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

using testing::ReadServerLog;
using testing::RunSubprocess;
using testing::ServerProcess;
using testing::SignalServer;
using testing::SpawnServer;
using testing::SubprocessResult;
using testing::WaitForPortFile;
using testing::WaitServer;

std::string ServeBinary() {
#ifdef PRIVIM_SERVE_BINARY
  return PRIVIM_SERVE_BINARY;
#else
  return "";
#endif
}

std::string LoadgenBinary() {
#ifdef PRIVIM_LOADGEN_BINARY
  return PRIVIM_LOADGEN_BINARY;
#else
  return "";
#endif
}

class LoadgenCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve_ = ServeBinary();
    loadgen_ = LoadgenBinary();
    if (serve_.empty() || loadgen_.empty() ||
        !std::filesystem::exists(serve_) ||
        !std::filesystem::exists(loadgen_)) {
      GTEST_SKIP() << "privim_serve / privim_loadgen not available";
    }
    dir_ = privim::testing::ProcessTempDir() + "/loadgen_cli_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);

    graph_path_ = dir_ + "/graph.txt";
    std::ofstream graph(graph_path_);
    const int n = 32;
    for (int v = 0; v < n; ++v) {
      graph << v << " " << (v + 1) % n << "\n";
      graph << v << " " << (v + 7) % n << "\n";
    }
    graph.close();

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
  }

  std::string serve_;
  std::string loadgen_;
  std::string dir_;
  std::string graph_path_;
  std::string model_path_;
};

TEST_F(LoadgenCliTest, ReportsConsistentCountsAndPercentiles) {
  const std::string port_file = dir_ + "/port.txt";
  ServerProcess server = SpawnServer(
      serve_ + " --graph " + graph_path_ + " --model " + model_path_ +
          " --listen 127.0.0.1:0 --port-file " + port_file + " --threads 2",
      dir_ + "/server.log");
  ASSERT_GT(server.pid, 0);
  const std::string address = WaitForPortFile(port_file);
  ASSERT_NE(address, "") << ReadServerLog(server);

  const std::string report_path = dir_ + "/loadgen.json";
  const SubprocessResult result = RunSubprocess(
      loadgen_ + " --target " + address +
      " --connections 3 --duration-s 0.5 --seed 7 --max-node 31 --out " +
      report_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;

  std::ifstream in(report_path);
  ASSERT_TRUE(in.is_open());
  std::string json;
  std::getline(in, json);
  Result<serve::JsonValue> report = serve::JsonValue::Parse(json);
  ASSERT_TRUE(report.ok()) << json;

  const int64_t requests = report->GetInt("requests", -1).value();
  const int64_t ok = report->GetInt("ok", -1).value();
  const int64_t errors = report->GetInt("errors", -1).value();
  EXPECT_GT(requests, 0);
  EXPECT_EQ(ok, requests) << json;  // no shed/deadline at this load
  EXPECT_EQ(errors, 0) << json;

  const double p50 = report->GetDouble("p50_ms", -1).value();
  const double p95 = report->GetDouble("p95_ms", -1).value();
  const double p99 = report->GetDouble("p99_ms", -1).value();
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GT(report->GetDouble("qps", -1).value(), 0.0);
  EXPECT_EQ(report->GetInt("connections", -1).value(), 3);
  // Without --rate / --http the report labels itself closed-loop JSONL,
  // which is what bench_compare keys its Loadgen_* row prefix on.
  EXPECT_EQ(report->GetString("mode", "").value(), "closed") << json;
  EXPECT_EQ(report->GetString("framing", "").value(), "jsonl") << json;

  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  // The server served exactly what the loadgen sent.
  const std::string log = ReadServerLog(server);
  EXPECT_NE(log.find("served " + std::to_string(requests) + " requests"),
            std::string::npos)
      << log;
}

TEST_F(LoadgenCliTest, OpenLoopHttpRunReportsModeRateAndFraming) {
  const std::string port_file = dir_ + "/port.txt";
  ServerProcess server = SpawnServer(
      serve_ + " --graph " + graph_path_ + " --model " + model_path_ +
          " --listen 127.0.0.1:0 --port-file " + port_file + " --threads 2",
      dir_ + "/server.log");
  ASSERT_GT(server.pid, 0);
  const std::string address = WaitForPortFile(port_file);
  ASSERT_NE(address, "") << ReadServerLog(server);

  // A modest scheduled rate the tiny ring graph can absorb: open-loop
  // sends on a fixed grid, so an overloaded server would inflate the
  // percentiles (coordinated-omission correction) instead of thinning
  // the load.
  const std::string report_path = dir_ + "/open.json";
  const SubprocessResult result = RunSubprocess(
      loadgen_ + " --target " + address +
      " --rate 200 --http --graph-only --max-node 31"
      " --connections 2 --duration-s 1 --warmup-s 0.2 --seed 9 --out " +
      report_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;

  std::ifstream in(report_path);
  ASSERT_TRUE(in.is_open());
  std::string json;
  std::getline(in, json);
  Result<serve::JsonValue> report = serve::JsonValue::Parse(json);
  ASSERT_TRUE(report.ok()) << json;

  EXPECT_EQ(report->GetString("mode", "").value(), "open") << json;
  EXPECT_EQ(report->GetString("framing", "").value(), "http") << json;
  EXPECT_EQ(report->GetDouble("rate_qps", -1).value(), 200.0) << json;
  const int64_t requests = report->GetInt("requests", -1).value();
  EXPECT_GT(requests, 0);
  EXPECT_EQ(report->GetInt("ok", -1).value(), requests) << json;
  EXPECT_EQ(report->GetInt("errors", -1).value(), 0) << json;
  const double p50 = report->GetDouble("p50_ms", -1).value();
  const double p99 = report->GetDouble("p99_ms", -1).value();
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);

  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  // The HTTP framing reached the same engine (warmup requests hit the
  // server too, so its served count exceeds the report's measured one —
  // the stats line just has to show real traffic with nothing dropped).
  const std::string log = ReadServerLog(server);
  EXPECT_NE(log.find("served "), std::string::npos) << log;
  EXPECT_NE(log.find("0 deadline-exceeded, 0 bad lines"),
            std::string::npos)
      << log;
}

TEST_F(LoadgenCliTest, FailsCleanlyWithoutAServer) {
  const SubprocessResult result = RunSubprocess(
      loadgen_ +
      " --target 127.0.0.1:1 --connections 1 --duration-s 0.1");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos)
      << result.output;
}

TEST_F(LoadgenCliTest, RejectsBadFlags) {
  EXPECT_NE(RunSubprocess(loadgen_).exit_code, 0);  // missing --target
  EXPECT_NE(RunSubprocess(loadgen_ +
                          " --target 127.0.0.1:1 --connections 0")
                .exit_code,
            0);
  EXPECT_NE(RunSubprocess(loadgen_ +
                          " --target 127.0.0.1:1 --duration-s 0")
                .exit_code,
            0);
  EXPECT_NE(RunSubprocess(loadgen_ + " --target 127.0.0.1:1 --rate -1")
                .exit_code,
            0);
}

}  // namespace
}  // namespace privim
