// End-to-end coverage of privim_serve --listen: spawns the real binary as
// a TCP server and checks (a) socket responses are byte-identical to the
// stdin front end for the same request stream — with 3 concurrent client
// threads, at 1/4/8 service threads — (b) SIGTERM triggers a graceful
// drain that answers every in-flight request, exits 0, and still prints
// the stderr stats line, (c) the HTTP framing returns bodies that are
// byte-identical to the JSONL lines for the same requests, and (d)
// --net-loops N serves correct responses from every SO_REUSEPORT event
// loop with both framings in play.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/gnn/models.h"
#include "privim/gnn/serialization.h"
#include "privim/serve/net/client.h"
#include "privim/serve/net/socket.h"
#include "testing/fault_injection.h"
#include "testing/http_client.h"
#include "testing/subprocess_server.h"
#include "testing/temp_dir.h"

namespace privim {
namespace {

using testing::HttpGetBytes;
using testing::HttpPostBytes;
using testing::HttpReply;
using testing::ReadHttpReply;
using testing::ReadServerLog;
using testing::RunSubprocess;
using testing::ServerProcess;
using testing::SignalServer;
using testing::SpawnServer;
using testing::SubprocessResult;
using testing::WaitForPortFile;
using testing::WaitServer;

std::string PrivimServeBinary() {
#ifdef PRIVIM_SERVE_BINARY
  return PRIVIM_SERVE_BINARY;
#else
  return "";
#endif
}

class ServeNetCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve_ = PrivimServeBinary();
    if (serve_.empty() || !std::filesystem::exists(serve_)) {
      GTEST_SKIP() << "privim_serve binary not available";
    }
    // One directory per test: ctest -j runs these cases as separate
    // processes concurrently, so a shared directory would be wiped from
    // under a sibling's live server.
    dir_ = privim::testing::ProcessTempDir() + "/serve_net_cli_" +
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

  /// Deterministic mixed request stream for client `c` (all seeds fixed
  /// in the JSON, so responses are reproducible by contract).
  std::vector<std::string> RequestStream(int c, int count) const {
    std::vector<std::string> lines;
    for (int i = 0; i < count; ++i) {
      const std::string id =
          "c" + std::to_string(c) + "-" + std::to_string(i);
      switch (i % 4) {
        case 0:
          lines.push_back("{\"id\":\"" + id +
                          "\",\"op\":\"influence\",\"nodes\":[" +
                          std::to_string((c * 7 + i) % 40) + "," +
                          std::to_string((c * 3 + 2 * i) % 40) + "]}");
          break;
        case 1:
          lines.push_back("{\"id\":\"" + id +
                          "\",\"op\":\"topk\",\"k\":" +
                          std::to_string(1 + i % 4) +
                          ",\"method\":\"model\"}");
          break;
        case 2:
          lines.push_back(
              "{\"id\":\"" + id + "\",\"op\":\"spread\",\"seeds\":[" +
              std::to_string((c + i) % 40) +
              "],\"steps\":2,\"simulations\":40,\"seed\":" +
              std::to_string(100 * c + i) + "}");
          break;
        default:
          // One malformed line per cycle: error responses must be
          // byte-identical across front ends too.
          lines.push_back("{\"id\":\"" + id + "\",\"op\":\"warp\"}");
          break;
      }
    }
    return lines;
  }

  /// Runs the stdin front end over `stream` and returns its response
  /// lines — the byte-identity reference for the socket path.
  std::vector<std::string> StdinResponses(
      const std::vector<std::string>& stream, int tag) {
    const std::string requests_path =
        dir_ + "/req" + std::to_string(tag) + ".jsonl";
    const std::string out_path =
        dir_ + "/out" + std::to_string(tag) + ".jsonl";
    std::ofstream requests(requests_path);
    for (const std::string& line : stream) requests << line << "\n";
    requests.close();

    const SubprocessResult result = RunSubprocess(
        serve_ + " --graph " + graph_path_ + " --model " + model_path_ +
        " --requests " + requests_path + " --out " + out_path +
        " --threads 1");
    EXPECT_EQ(result.exit_code, 0) << result.output;

    std::vector<std::string> responses;
    std::ifstream out(out_path);
    std::string line;
    while (std::getline(out, line)) responses.push_back(line);
    return responses;
  }

  /// Spawns `privim_serve --listen` and resolves its ephemeral port.
  ServerProcess StartServer(const std::string& extra_flags,
                            serve::net::HostPort* bound) {
    const std::string port_file =
        dir_ + "/port" + std::to_string(server_index_) + ".txt";
    const std::string log_file =
        dir_ + "/server" + std::to_string(server_index_) + ".log";
    ++server_index_;
    std::filesystem::remove(port_file);
    ServerProcess server = SpawnServer(
        serve_ + " --graph " + graph_path_ + " --model " + model_path_ +
            " --listen 127.0.0.1:0 --port-file " + port_file + " " +
            extra_flags,
        log_file);
    EXPECT_GT(server.pid, 0);
    const std::string address = WaitForPortFile(port_file);
    EXPECT_NE(address, "") << "server never wrote " << port_file << ": "
                           << ReadServerLog(server);
    if (!address.empty()) {
      *bound = serve::net::ParseHostPort(address).value();
    }
    return server;
  }

  std::string serve_;
  std::string dir_;
  std::string graph_path_;
  std::string model_path_;
  int server_index_ = 0;
};

TEST_F(ServeNetCliTest, SocketMatchesStdinByteForByteAcrossThreadCounts) {
  constexpr int kClients = 3;
  constexpr int kRequests = 24;

  std::vector<std::vector<std::string>> streams;
  std::vector<std::vector<std::string>> expected;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(RequestStream(c, kRequests));
    expected.push_back(StdinResponses(streams.back(), c));
    ASSERT_EQ(expected.back().size(), streams.back().size());
  }

  for (const int threads : {1, 4, 8}) {
    serve::net::HostPort bound;
    ServerProcess server =
        StartServer("--threads " + std::to_string(threads), &bound);
    ASSERT_GT(bound.port, 0);

    std::vector<std::vector<std::string>> via_socket(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::net::BlockingClient client;
        if (!client.Connect(bound).ok()) return;
        for (const std::string& line : streams[c]) {
          if (!client.SendLine(line).ok()) return;
        }
        if (!client.ShutdownWrite().ok()) return;
        while (true) {
          Result<std::string> line = client.ReadLine();
          if (!line.ok()) break;
          via_socket[c].push_back(line.value());
        }
      });
    }
    for (std::thread& client : clients) client.join();

    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(via_socket[c], expected[c])
          << "socket responses diverge from the stdin front end for "
          << "client " << c << " at --threads " << threads;
    }

    SignalServer(server, SIGTERM);
    EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  }
}

TEST_F(ServeNetCliTest, SigtermDrainAnswersInFlightAndPrintsStats) {
  serve::net::HostPort bound;
  ServerProcess server = StartServer("--threads 2", &bound);
  ASSERT_GT(bound.port, 0);

  // Pipeline a window of slow-ish requests, then SIGTERM the server with
  // most of them still unanswered.
  constexpr int kInFlight = 16;
  serve::net::BlockingClient client;
  ASSERT_TRUE(client.Connect(bound).ok());
  for (int i = 0; i < kInFlight; ++i) {
    const std::string request =
        "{\"id\":\"w" + std::to_string(i) +
        "\",\"op\":\"spread\",\"seeds\":[" + std::to_string(i % 40) +
        "," + std::to_string((i + 13) % 40) +
        "],\"steps\":-1,\"simulations\":4000,\"seed\":" +
        std::to_string(9000 + i) + "}";
    ASSERT_TRUE(client.SendLine(request).ok());
  }
  // Ensure the server has started answering before the signal lands, so
  // the drain genuinely has in-flight work.
  Result<std::string> first = client.ReadLine();
  ASSERT_TRUE(first.ok());
  EXPECT_NE(first->find("\"id\":\"w0\""), std::string::npos);

  SignalServer(server, SIGTERM);
  ASSERT_TRUE(client.ShutdownWrite().ok());

  int received = 1;
  while (true) {
    Result<std::string> line = client.ReadLine();
    if (!line.ok()) break;
    EXPECT_NE(line->find("\"id\":\"w" + std::to_string(received) + "\""),
              std::string::npos)
        << line.value();
    ++received;
  }
  EXPECT_EQ(received, kInFlight)
      << "graceful drain dropped in-flight requests";

  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  const std::string log = ReadServerLog(server);
  // The stats line must appear on the SIGTERM path, not only clean EOF.
  EXPECT_NE(log.find("served "), std::string::npos) << log;
  EXPECT_NE(log.find("shed "), std::string::npos) << log;
  EXPECT_NE(log.find("listener: "), std::string::npos) << log;
}

TEST_F(ServeNetCliTest, HttpBodiesAreByteIdenticalToTheJsonlFrontEnds) {
  const std::vector<std::string> stream = RequestStream(0, 24);
  const std::vector<std::string> expected = StdinResponses(stream, 0);
  ASSERT_EQ(expected.size(), stream.size());

  serve::net::HostPort bound;
  ServerProcess server = StartServer("--threads 2", &bound);
  ASSERT_GT(bound.port, 0);

  serve::net::BlockingClient client;
  ASSERT_TRUE(client.Connect(bound).ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(
        client.SendBytes(HttpPostBytes("/v1/query", stream[i])).ok());
    Result<HttpReply> reply = ReadHttpReply(&client);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    // The body IS the JSONL response line plus its newline — nothing
    // reformatted, nothing re-escaped.
    EXPECT_EQ(reply->body, expected[i] + "\n") << "request " << i;
    const bool ok_line =
        expected[i].find("\"ok\":true") != std::string::npos;
    EXPECT_EQ(reply->status_code, ok_line ? 200 : 400)
        << "request " << i << ": " << reply->body;
  }

  // The built-in endpoints answer on the same keep-alive connection.
  ASSERT_TRUE(client.SendBytes(HttpGetBytes("/v1/healthz")).ok());
  Result<HttpReply> healthz = ReadHttpReply(&client);
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status_code, 200);
  EXPECT_EQ(healthz->body, "{\"ok\":true}\n");
  ASSERT_TRUE(client.SendBytes(HttpGetBytes("/v1/metrics")).ok());
  Result<HttpReply> metrics = ReadHttpReply(&client);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status_code, 200);
  EXPECT_NE(metrics->body.find("serve.net.accepted"), std::string::npos);

  // The version refusal is pinned end-to-end on the HTTP path too (the
  // JSONL path pins it in the wire-format and listener suites).
  ASSERT_TRUE(client
                  .SendBytes(HttpPostBytes(
                      "/v1/query", "{\"id\":\"v\",\"op\":\"topk\",\"v\":2}"))
                  .ok());
  Result<HttpReply> refused = ReadHttpReply(&client);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status_code, 400);
  EXPECT_EQ(refused->body,
            "{\"id\":\"v\",\"ok\":false,\"code\":\"UnsupportedVersion\","
            "\"error\":\"protocol version 2 is not supported (this server "
            "speaks 1)\"}\n");

  client.Close();
  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
}

TEST_F(ServeNetCliTest, MultiLoopListenerServesBothFramingsCorrectly) {
  constexpr int kClients = 6;  // 3 JSONL + 3 HTTP, across 3 event loops
  constexpr int kRequests = 16;

  std::vector<std::vector<std::string>> streams;
  std::vector<std::vector<std::string>> expected;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(RequestStream(c, kRequests));
    expected.push_back(StdinResponses(streams.back(), c));
    ASSERT_EQ(expected.back().size(), streams.back().size());
  }

  serve::net::HostPort bound;
  ServerProcess server = StartServer("--threads 2 --net-loops 3", &bound);
  ASSERT_GT(bound.port, 0);

  std::vector<std::vector<std::string>> received(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::net::BlockingClient client;
      if (!client.Connect(bound).ok()) return;
      if (c % 2 == 0) {
        // JSONL: pipeline everything, then read the ordered responses.
        for (const std::string& line : streams[c]) {
          if (!client.SendLine(line).ok()) return;
        }
        if (!client.ShutdownWrite().ok()) return;
        while (true) {
          Result<std::string> line = client.ReadLine();
          if (!line.ok()) break;
          received[c].push_back(line.value());
        }
      } else {
        // HTTP: one exchange at a time on a keep-alive connection.
        for (const std::string& line : streams[c]) {
          if (!client.SendBytes(HttpPostBytes("/v1/query", line)).ok()) {
            return;
          }
          Result<HttpReply> reply = ReadHttpReply(&client);
          if (!reply.ok()) return;
          std::string body = reply->body;
          if (!body.empty() && body.back() == '\n') body.pop_back();
          received[c].push_back(body);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(received[c], expected[c])
        << "client " << c << " (" << (c % 2 == 0 ? "jsonl" : "http")
        << ") diverged from the stdin front end";
  }

  SignalServer(server, SIGTERM);
  EXPECT_EQ(WaitServer(&server), 0) << ReadServerLog(server);
  const std::string log = ReadServerLog(server);
  // The listener really ran 3 SO_REUSEPORT loops, and the summed per-loop
  // stats line still appears on the drain path.
  EXPECT_NE(log.find("3 loops"), std::string::npos) << log;
  EXPECT_NE(log.find("listener: "), std::string::npos) << log;
}

TEST_F(ServeNetCliTest, RejectsMalformedListenSpec) {
  const SubprocessResult result = RunSubprocess(
      serve_ + " --graph " + graph_path_ + " --listen not-an-address");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.output.find("error"), std::string::npos);
}

}  // namespace
}  // namespace privim
