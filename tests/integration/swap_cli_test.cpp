// Hot swap under real load: spawns privim_serve --listen, drives it with
// the real privim_loadgen binary, and swaps the serving snapshot twice
// mid-run — once over HTTP POST /v1/admin/swap, once over the JSONL
// framing. The loadgen report must show zero dropped requests (no shed,
// no deadline misses, no transport errors), probe responses must change
// when the model changes and come back byte-identical when the original
// content is restored (the response cache keys on the content-derived
// snapshot fingerprint, so a stale hit would show up as stale bytes),
// and the server's exit stats must account for both swaps.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/gnn/models.h"
#include "privim/gnn/serialization.h"
#include "privim/serve/json.h"
#include "privim/serve/net/client.h"
#include "privim/serve/net/socket.h"
#include "testing/fault_injection.h"
#include "testing/http_client.h"
#include "testing/subprocess_server.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

using testing::HttpPostBytes;
using testing::HttpReply;
using testing::ReadHttpReply;
using testing::ReadServerLog;
using testing::ServerProcess;
using testing::SignalServer;
using testing::SpawnServer;
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

class SwapCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve_ = ServeBinary();
    loadgen_ = LoadgenBinary();
    if (serve_.empty() || loadgen_.empty() ||
        !std::filesystem::exists(serve_) ||
        !std::filesystem::exists(loadgen_)) {
      GTEST_SKIP() << "privim_serve / privim_loadgen not available";
    }
    dir_ = privim::testing::ProcessTempDir() + "/swap_cli_" +
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

    model_a_ = WriteModel(dir_ + "/a.model", /*seed=*/11);
    model_b_ = WriteModel(dir_ + "/b.model", /*seed=*/23);
  }

  std::string WriteModel(const std::string& path, uint64_t seed) {
    GnnConfig config;
    config.kind = GnnKind::kGcn;
    config.input_dim = 4;
    config.hidden_dim = 6;
    config.num_layers = 2;
    Rng rng(seed);
    EXPECT_TRUE(
        SaveGnnModel(*CreateGnnModel(config, &rng).value(), path).ok());
    return path;
  }

  /// One JSONL exchange on `client`.
  std::string Exchange(serve::net::BlockingClient* client,
                       const std::string& line) {
    EXPECT_TRUE(client->SendLine(line).ok());
    Result<std::string> response = client->ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response.value() : "";
  }

  /// Extracts the value of a `"key":"..."` string field from a JSON line.
  std::string StringField(const std::string& line, const std::string& key) {
    const std::string needle = "\"" + key + "\":\"";
    const size_t from = line.find(needle);
    if (from == std::string::npos) return "";
    const size_t start = from + needle.size();
    return line.substr(start, line.find('"', start) - start);
  }

  std::string serve_;
  std::string loadgen_;
  std::string dir_;
  std::string graph_path_;
  std::string model_a_;
  std::string model_b_;
};

TEST_F(SwapCliTest, SwapTwiceUnderLoadDropsNothingAndRestoresBytes) {
  const std::string port_file = dir_ + "/port.txt";
  ServerProcess server = SpawnServer(
      serve_ + " --graph " + graph_path_ + " --model " + model_a_ +
          " --listen 127.0.0.1:0 --port-file " + port_file +
          " --threads 2 --deadline-ms 5000",
      dir_ + "/server.log");
  ASSERT_GT(server.pid, 0);
  const std::string address = WaitForPortFile(port_file);
  ASSERT_NE(address, "") << ReadServerLog(server);
  const serve::net::HostPort bound =
      serve::net::ParseHostPort(address).value();

  serve::net::BlockingClient probe;
  ASSERT_TRUE(probe.Connect(bound).ok());

  // Snapshot identity and a model-dependent response before any swap.
  const std::string info_a =
      Exchange(&probe, R"({"id":"i0","op":"info"})");
  const std::string fp_a = StringField(info_a, "fingerprint");
  ASSERT_NE(fp_a, "") << info_a;
  const std::string query =
      R"({"id":"q","op":"topk","k":3,"method":"model"})";
  const std::string topk_a = Exchange(&probe, query);
  EXPECT_NE(topk_a.find("\"ok\":true"), std::string::npos) << topk_a;

  // Open-loop load for the whole swap window; --graph-only keeps the mix
  // independent of which model is installed, so every request must
  // succeed across both swaps.
  const std::string report_path = dir_ + "/loadgen.json";
  ServerProcess load = SpawnServer(
      loadgen_ + " --target " + address +
          " --graph-only --max-node 31 --connections 2 --duration-s 4"
          " --warmup-s 0.5 --seed 5 --out " +
          report_path,
      dir_ + "/loadgen.log");
  ASSERT_GT(load.pid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));

  // Swap 1, over HTTP: model A -> model B.
  serve::net::BlockingClient http;
  ASSERT_TRUE(http.Connect(bound).ok());
  ASSERT_TRUE(http.SendBytes(HttpPostBytes(
                       "/v1/admin/swap",
                       R"({"id":"s1","op":"admin","action":"swap",)"
                       R"("model":")" +
                           model_b_ + "\"}"))
                  .ok());
  Result<HttpReply> swap1 = ReadHttpReply(&http);
  ASSERT_TRUE(swap1.ok()) << swap1.status().ToString();
  EXPECT_EQ(swap1->status_code, 200) << swap1->body;
  EXPECT_NE(swap1->body.find("\"ok\":true"), std::string::npos)
      << swap1->body;
  EXPECT_EQ(StringField(swap1->body, "old_fingerprint"), fp_a)
      << swap1->body;

  // The snapshot changed: new fingerprint, new model answers.
  const std::string info_b =
      Exchange(&probe, R"({"id":"i1","op":"info"})");
  const std::string fp_b = StringField(info_b, "fingerprint");
  EXPECT_NE(fp_b, "");
  EXPECT_NE(fp_b, fp_a);
  const std::string topk_b = Exchange(&probe, query);
  EXPECT_NE(topk_b, topk_a)
      << "model swap did not change the model-ranked top-k";

  std::this_thread::sleep_for(std::chrono::milliseconds(800));

  // Swap 2, over JSONL: back to model A's content. The fingerprint is
  // content-derived, so it must equal the original one, and the probe
  // query must produce the exact original bytes — whether recomputed or
  // served from the fingerprint-keyed cache.
  const std::string swap2 = Exchange(
      &probe, R"({"id":"s2","op":"admin","action":"swap","model":")" +
                  model_a_ + "\"}");
  EXPECT_NE(swap2.find("\"ok\":true"), std::string::npos) << swap2;
  EXPECT_EQ(StringField(swap2, "old_fingerprint"), fp_b) << swap2;
  EXPECT_EQ(StringField(swap2, "fingerprint"), fp_a) << swap2;
  EXPECT_EQ(Exchange(&probe, query), topk_a)
      << "restored snapshot did not reproduce the original bytes";

  // The load generator must have seen a clean run end to end: nothing
  // shed, nothing timed out, nothing dropped mid-connection.
  EXPECT_EQ(WaitServer(&load), 0) << ReadServerLog(load);
  std::ifstream in(report_path);
  ASSERT_TRUE(in.is_open());
  std::string json;
  std::getline(in, json);
  Result<serve::JsonValue> report = serve::JsonValue::Parse(json);
  ASSERT_TRUE(report.ok()) << json;
  const int64_t requests = report->GetInt("requests", -1).value();
  EXPECT_GT(requests, 0);
  EXPECT_EQ(report->GetInt("ok", -1).value(), requests) << json;
  EXPECT_EQ(report->GetInt("errors", -1).value(), 0) << json;
  EXPECT_EQ(report->GetInt("shed", -1).value(), 0) << json;
  EXPECT_EQ(report->GetInt("deadline_exceeded", -1).value(), 0) << json;

  probe.Close();
  http.Close();
  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  const std::string log = ReadServerLog(server);
  EXPECT_NE(log.find("swaps: 2 applied, 0 refused"), std::string::npos)
      << log;
  // The server ends the run serving the restored snapshot.
  EXPECT_NE(log.find("(serving " + fp_a + ")"), std::string::npos) << log;
}

TEST_F(SwapCliTest, SwapToAMissingFileIsRefusedAndKeepsServing) {
  const std::string port_file = dir_ + "/port.txt";
  ServerProcess server = SpawnServer(
      serve_ + " --graph " + graph_path_ + " --model " + model_a_ +
          " --listen 127.0.0.1:0 --port-file " + port_file + " --threads 2",
      dir_ + "/server.log");
  ASSERT_GT(server.pid, 0);
  const std::string address = WaitForPortFile(port_file);
  ASSERT_NE(address, "") << ReadServerLog(server);
  const serve::net::HostPort bound =
      serve::net::ParseHostPort(address).value();

  serve::net::BlockingClient probe;
  ASSERT_TRUE(probe.Connect(bound).ok());
  const std::string fp_before =
      StringField(Exchange(&probe, R"({"id":"i0","op":"info"})"),
                  "fingerprint");

  const std::string refusal = Exchange(
      &probe, R"({"id":"s1","op":"admin","action":"swap","model":")" +
                  dir_ + "/no-such.model\"}");
  EXPECT_NE(refusal.find("\"ok\":false"), std::string::npos) << refusal;

  // The old snapshot survived the failed swap and still answers.
  const std::string info =
      Exchange(&probe, R"({"id":"i1","op":"info"})");
  EXPECT_EQ(StringField(info, "fingerprint"), fp_before) << info;
  EXPECT_NE(Exchange(&probe, R"({"id":"q","op":"topk","k":2})")
                .find("\"ok\":true"),
            std::string::npos);

  probe.Close();
  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  EXPECT_NE(ReadServerLog(server).find("swaps: 0 applied, 1 refused"),
            std::string::npos)
      << ReadServerLog(server);
}

// A model file whose header declares hidden_dim 4e9 used to abort the
// server with std::bad_alloc under a 4 GB address-space limit when an
// admin swap named it. The swap must be refused with an IOError while the
// old snapshot keeps serving.
TEST_F(SwapCliTest, SwapToAHostileModelIsRefusedAndKeepsServing) {
  const std::string hostile = dir_ + "/hostile.model";
  {
    std::ofstream file(hostile);
    file << "privim-model v1\nkind grat\ninput_dim 8\n"
            "hidden_dim 4000000000\nnum_layers 3\n"
            "leaky_slope 0x1.99999ap-3\nparams 14\n"
            "4000000000 1\n0x1p-1 0x1p-2 0x1p-3\n";
  }
  const std::string port_file = dir_ + "/port.txt";
  ServerProcess server = SpawnServer(
      testing::AddressSpaceLimitPrefix() + serve_ + " --graph " +
          graph_path_ + " --model " + model_a_ +
          " --listen 127.0.0.1:0 --port-file " + port_file + " --threads 2",
      dir_ + "/server.log");
  ASSERT_GT(server.pid, 0);
  const std::string address = WaitForPortFile(port_file);
  ASSERT_NE(address, "") << ReadServerLog(server);
  const serve::net::HostPort bound =
      serve::net::ParseHostPort(address).value();

  serve::net::BlockingClient probe;
  ASSERT_TRUE(probe.Connect(bound).ok());
  const std::string fp_before =
      StringField(Exchange(&probe, R"({"id":"i0","op":"info"})"),
                  "fingerprint");
  const std::string topk_before =
      Exchange(&probe, R"({"id":"q","op":"topk","k":2})");

  const std::string refusal = Exchange(
      &probe, R"({"id":"s1","op":"admin","action":"swap","model":")" +
                  hostile + "\"}");
  EXPECT_NE(refusal.find("\"ok\":false"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("IOError"), std::string::npos) << refusal;

  EXPECT_EQ(StringField(Exchange(&probe, R"({"id":"i1","op":"info"})"),
                        "fingerprint"),
            fp_before);
  EXPECT_EQ(Exchange(&probe, R"({"id":"q","op":"topk","k":2})"),
            topk_before);

  probe.Close();
  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  EXPECT_NE(ReadServerLog(server).find("swaps: 0 applied, 1 refused"),
            std::string::npos)
      << ReadServerLog(server);
}

}  // namespace
}  // namespace privim
