// In-process NetServer tests: request/response over a real socket,
// byte-identity with the engine's direct path, load shedding, deadlines,
// connection caps, oversized lines and graceful drain.

#include "privim/serve/net/server.h"

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "privim/common/rng.h"
#include "privim/gnn/models.h"
#include "privim/serve/net/client.h"
#include "privim/serve/net/group.h"
#include "privim/serve/request.h"
#include "privim/serve/service.h"

namespace privim {
namespace serve {
namespace net {
namespace {

Graph TestGraph() {
  GraphBuilder builder(8);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_TRUE(builder.AddEdge(v, (v + 1) % 8).ok());
  }
  EXPECT_TRUE(builder.AddEdge(0, 4).ok());
  EXPECT_TRUE(builder.AddEdge(2, 6).ok());
  return builder.Build().value();
}

std::shared_ptr<const GnnModel> TestModel() {
  GnnConfig config;
  config.kind = GnnKind::kGcn;
  config.input_dim = 4;
  config.hidden_dim = 6;
  config.num_layers = 2;
  Rng rng(7);
  return std::shared_ptr<const GnnModel>(
      CreateGnnModel(config, &rng).value().release());
}

/// A started service + a NetServer running its loop on a background
/// thread; tears both down (gracefully) on destruction.
class ServerHarness {
 public:
  explicit ServerHarness(const ServeOptions& service_options = {},
                         NetServerOptions net_options = {}) {
    service_ =
        InfluenceService::Create(TestGraph(), TestModel(), service_options)
            .value();
    EXPECT_TRUE(service_->Start().ok());
    net_options.listen = HostPort{"127.0.0.1", 0};
    Result<std::unique_ptr<NetServer>> server =
        NetServer::Create(service_.get(), net_options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
    loop_ = std::thread([this] { run_status_ = server_->Run(); });
  }

  ~ServerHarness() {
    Shutdown();
    service_->Stop();
  }

  /// Triggers the graceful drain and returns Run()'s status.
  Status Shutdown() {
    if (loop_.joinable()) {
      server_->RequestShutdown();
      loop_.join();
    }
    return run_status_;
  }

  BlockingClient Connect() {
    BlockingClient client;
    EXPECT_TRUE(client.Connect(server_->bound_address()).ok());
    return client;
  }

  InfluenceService* service() { return service_.get(); }
  NetServer* server() { return server_.get(); }

 private:
  std::unique_ptr<InfluenceService> service_;
  std::unique_ptr<NetServer> server_;
  std::thread loop_;
  Status run_status_;
};

/// The response line the engine itself produces for `json` — what the
/// stdin front end would print, used as the byte-identity reference.
std::string DirectResponseLine(InfluenceService* service,
                               const std::string& json) {
  Result<ServeRequest> request = ParseServeRequest(json);
  if (!request.ok()) {
    return ResponseForBadLine(json, request.status()).ToJsonLine();
  }
  return service->Submit(request.value()).value().get().ToJsonLine();
}

TEST(NetListenerTest, ServesRequestsAndMatchesDirectPathByteForByte) {
  ServerHarness harness;
  const std::vector<std::string> requests = {
      R"({"id":"r1","op":"influence","nodes":[0,3]})",
      R"({"id":"r2","op":"topk","k":3,"method":"model"})",
      R"({"id":"r3","op":"topk","k":2,"method":"celf","steps":1})",
      R"({"id":"r4","op":"spread","seeds":[0,5],"steps":2,)"
      R"("simulations":50,"seed":13})",
      R"({"id":"r5","op":"spread","seeds":[1],"simulations":0})",
      "this is not json",
      R"({"id":"r6","op":"teleport"})",
  };

  BlockingClient client = harness.Connect();
  for (const std::string& request : requests) {
    ASSERT_TRUE(client.SendLine(request).ok());
  }
  ASSERT_TRUE(client.ShutdownWrite().ok());

  std::vector<std::string> via_socket;
  while (true) {
    Result<std::string> line = client.ReadLine();
    if (!line.ok()) break;
    via_socket.push_back(line.value());
  }
  ASSERT_EQ(via_socket.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(via_socket[i],
              DirectResponseLine(harness.service(), requests[i]))
        << "request " << i << ": " << requests[i];
  }
}

TEST(NetListenerTest, EmptyLinesAreSkippedLikeTheStdinFrontEnd) {
  ServerHarness harness;
  BlockingClient client = harness.Connect();
  ASSERT_TRUE(
      client
          .SendLine("\n\n{\"id\":\"only\",\"op\":\"spread\","
                    "\"seeds\":[2],\"simulations\":0}\n")
          .ok());
  ASSERT_TRUE(client.ShutdownWrite().ok());
  Result<std::string> line = client.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"id\":\"only\""), std::string::npos);
  EXPECT_FALSE(client.ReadLine().ok());  // exactly one response
}

TEST(NetListenerTest, ConcurrentClientsEachGetOrderedResponses) {
  ServerHarness harness;
  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&harness, &failures, c] {
      BlockingClient client = harness.Connect();
      for (int i = 0; i < kRequests; ++i) {
        const std::string id =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        const std::string request =
            "{\"id\":\"" + id + "\",\"op\":\"spread\",\"seeds\":[" +
            std::to_string((c + i) % 8) + "],\"simulations\":0}";
        if (!client.SendLine(request).ok()) {
          failures[c] = "send failed at " + id;
          return;
        }
      }
      if (!client.ShutdownWrite().ok()) {
        failures[c] = "shutdown failed";
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        const std::string id =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        Result<std::string> line = client.ReadLine();
        if (!line.ok()) {
          failures[c] = "missing response " + id;
          return;
        }
        // Responses arrive in request order per connection.
        if (line->find("\"id\":\"" + id + "\"") == std::string::npos) {
          failures[c] = "out of order at " + id + ": " + line.value();
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
}

TEST(NetListenerTest, ShedsLoadWhenAdmissionQueueIsFull) {
  ServeOptions service_options;
  service_options.queue_capacity = 1;
  service_options.max_batch = 1;
  service_options.cache_capacity = 0;
  ServerHarness harness(service_options);

  // Pipeline a burst of slow requests (distinct seeds defeat any cache)
  // without reading: once the one-slot queue is busy, later requests must
  // be shed immediately rather than block the event loop.
  constexpr int kBurst = 24;
  BlockingClient client = harness.Connect();
  for (int i = 0; i < kBurst; ++i) {
    const std::string request =
        "{\"id\":\"b" + std::to_string(i) +
        "\",\"op\":\"spread\",\"seeds\":[0,3],\"steps\":-1,"
        "\"simulations\":20000,\"seed\":" +
        std::to_string(1000 + i) + "}";
    ASSERT_TRUE(client.SendLine(request).ok());
  }
  ASSERT_TRUE(client.ShutdownWrite().ok());

  int ok = 0;
  int shed = 0;
  int responses = 0;
  for (int i = 0; i < kBurst; ++i) {
    Result<std::string> line = client.ReadLine();
    ASSERT_TRUE(line.ok()) << "response " << i << " missing";
    ++responses;
    // Ordering holds even when some responses are immediate rejections.
    EXPECT_NE(line->find("\"id\":\"b" + std::to_string(i) + "\""),
              std::string::npos)
        << line.value();
    if (line->find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(line->find("\"code\":\"Unavailable\""), std::string::npos)
          << line.value();
      EXPECT_NE(line->find("overloaded"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_FALSE(client.ReadLine().ok());  // EOF after the last response
  EXPECT_EQ(responses, kBurst);          // every request got an answer
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "burst never overflowed the one-slot queue";
  EXPECT_EQ(harness.server()->GetStats().shed,
            static_cast<uint64_t>(shed));
}

TEST(NetListenerTest, DeadlineExpiryAnswersWithDeadlineExceeded) {
  NetServerOptions net_options;
  net_options.deadline_ms = 1;
  ServeOptions service_options;
  service_options.cache_capacity = 0;
  ServerHarness harness(service_options, net_options);

  BlockingClient client = harness.Connect();
  // Large Monte-Carlo spread: far more than a millisecond of work.
  ASSERT_TRUE(
      client
          .SendLine(R"({"id":"slow","op":"spread","seeds":[0,3,5],)"
                    R"("steps":-1,"simulations":2000000,"seed":99})")
          .ok());
  Result<std::string> line = client.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"id\":\"slow\""), std::string::npos);
  EXPECT_NE(line->find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line->find("\"code\":\"DeadlineExceeded\""), std::string::npos)
      << line.value();
  EXPECT_GE(harness.server()->GetStats().deadline_exceeded, 1u);

  // The connection survives a deadline response and keeps serving.
  ASSERT_TRUE(
      client
          .SendLine(
              R"({"id":"fast","op":"spread","seeds":[1],"simulations":0})")
          .ok());
  line = client.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"id\":\"fast\""), std::string::npos);
}

TEST(NetListenerTest, RefusesConnectionsOverTheCap) {
  NetServerOptions net_options;
  net_options.max_connections = 1;
  ServerHarness harness({}, net_options);

  BlockingClient first = harness.Connect();
  // Prove the first connection is fully established server-side.
  ASSERT_TRUE(
      first
          .SendLine(
              R"({"id":"a","op":"spread","seeds":[0],"simulations":0})")
          .ok());
  ASSERT_TRUE(first.ReadLine().ok());

  BlockingClient second = harness.Connect();
  // Give the server a beat to process the accept; it must answer with a
  // single overloaded line and close.
  Result<std::string> line = second.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"code\":\"Unavailable\""), std::string::npos)
      << line.value();
  EXPECT_FALSE(second.ReadLine().ok());  // closed after the refusal
  EXPECT_GE(harness.server()->GetStats().refused, 1u);

  // The first connection is unaffected.
  ASSERT_TRUE(
      first
          .SendLine(
              R"({"id":"b","op":"spread","seeds":[1],"simulations":0})")
          .ok());
  EXPECT_TRUE(first.ReadLine().ok());
}

TEST(NetListenerTest, OversizedLineGetsErrorResponseThenClose) {
  NetServerOptions net_options;
  net_options.max_line_bytes = 64;
  ServerHarness harness({}, net_options);

  BlockingClient client = harness.Connect();
  ASSERT_TRUE(
      client
          .SendLine(
              R"({"id":"ok","op":"spread","seeds":[0],"simulations":0})")
          .ok());
  Result<std::string> line = client.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"id\":\"ok\""), std::string::npos);

  ASSERT_TRUE(client.SendLine(std::string(200, 'x')).ok());
  line = client.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("\"code\":\"InvalidArgument\""), std::string::npos)
      << line.value();
  EXPECT_NE(line->find("exceeds"), std::string::npos);
  EXPECT_FALSE(client.ReadLine().ok());  // connection torn down
  EXPECT_GE(harness.server()->GetStats().bad_lines, 1u);
}

TEST(NetListenerTest, GracefulDrainAnswersEveryAdmittedRequest) {
  ServeOptions service_options;
  service_options.cache_capacity = 0;
  ServerHarness harness(service_options);

  constexpr int kInFlight = 12;
  BlockingClient client = harness.Connect();
  for (int i = 0; i < kInFlight; ++i) {
    const std::string request =
        "{\"id\":\"d" + std::to_string(i) +
        "\",\"op\":\"spread\",\"seeds\":[2,4],\"steps\":-1,"
        "\"simulations\":5000,\"seed\":" +
        std::to_string(500 + i) + "}";
    ASSERT_TRUE(client.SendLine(request).ok());
  }

  // Shut down with requests still in flight; the drain must answer all
  // of them, not drop any.
  harness.server()->RequestShutdown();
  ASSERT_TRUE(client.ShutdownWrite().ok());

  for (int i = 0; i < kInFlight; ++i) {
    Result<std::string> line = client.ReadLine();
    ASSERT_TRUE(line.ok())
        << "request d" << i << " was dropped during drain";
    EXPECT_NE(line->find("\"id\":\"d" + std::to_string(i) + "\""),
              std::string::npos);
  }
  EXPECT_FALSE(client.ReadLine().ok());  // then EOF
  EXPECT_TRUE(harness.Shutdown().ok());

  // After the drain no new connections are accepted.
  BlockingClient late;
  const Status connected = late.Connect(harness.server()->bound_address());
  if (connected.ok()) {
    // A race may let connect() through before the listener closes, but no
    // response can ever arrive.
    late.SendLine(
        R"({"id":"late","op":"spread","seeds":[0],"simulations":0})");
    EXPECT_FALSE(late.ReadLine().ok());
  }
}

TEST(NetListenerTest, StatsCountTraffic) {
  ServerHarness harness;
  BlockingClient client = harness.Connect();
  const std::string request =
      R"({"id":"s1","op":"spread","seeds":[0],"simulations":0})";
  ASSERT_TRUE(client.SendLine(request).ok());
  ASSERT_TRUE(client.ShutdownWrite().ok());
  ASSERT_TRUE(client.ReadLine().ok());
  EXPECT_FALSE(client.ReadLine().ok());

  const NetServerStats stats = harness.server()->GetStats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(NetListenerTest, OptionsValidateCatchesBadConfigurations) {
  NetServerOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.max_connections = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = NetServerOptions();
  options.max_line_bytes = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = NetServerOptions();
  options.deadline_ms = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = NetServerOptions();
  options.drain_grace_ms = -1;
  EXPECT_FALSE(options.Validate().ok());
  options = NetServerOptions();
  options.backlog = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = NetServerOptions();
  options.listen.port = 70000;
  EXPECT_FALSE(options.Validate().ok());
}

// --- HTTP framing over the same port -------------------------------------

/// One parsed HTTP response read off a BlockingClient.
struct HttpReply {
  int status_code = 0;
  std::string connection;  ///< "keep-alive" or "close"
  std::string body;
};

/// Reads status line + headers + Content-Length body.
HttpReply ReadHttpReply(BlockingClient* client) {
  HttpReply reply;
  Result<std::string> status_line = client->ReadLine();
  EXPECT_TRUE(status_line.ok()) << status_line.status().ToString();
  if (!status_line.ok()) return reply;
  // "HTTP/1.1 200 OK\r"
  EXPECT_EQ(status_line->rfind("HTTP/1.1 ", 0), 0u) << status_line.value();
  reply.status_code = std::atoi(status_line->c_str() + 9);
  std::size_t content_length = 0;
  while (true) {
    Result<std::string> header = client->ReadLine();
    EXPECT_TRUE(header.ok());
    if (!header.ok()) return reply;
    std::string line = header.value();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;
    if (line.rfind("Content-Length: ", 0) == 0) {
      content_length = static_cast<std::size_t>(
          std::atoll(line.c_str() + sizeof("Content-Length: ") - 1));
    } else if (line.rfind("Connection: ", 0) == 0) {
      reply.connection = line.substr(sizeof("Connection: ") - 1);
    }
  }
  Result<std::string> body = client->ReadBytes(content_length);
  EXPECT_TRUE(body.ok()) << body.status().ToString();
  if (body.ok()) reply.body = body.value();
  return reply;
}

std::string PostQuery(const std::string& json, const std::string& target =
                                                   "/v1/query") {
  return "POST " + target + " HTTP/1.1\r\nContent-Length: " +
         std::to_string(json.size()) + "\r\n\r\n" + json;
}

TEST(NetListenerHttpTest, QueryBodyIsByteIdenticalToTheJsonlLine) {
  ServerHarness harness;
  const std::vector<std::string> requests = {
      R"({"id":"h1","op":"influence","nodes":[0,3]})",
      R"({"id":"h2","op":"topk","k":3,"method":"celf"})",
      R"({"id":"h3","op":"info"})",
      R"({"id":"h4","op":"teleport"})",
      R"({"id":"h5","op":"topk","v":9})",
  };
  BlockingClient client = harness.Connect();
  for (const std::string& request : requests) {
    // Keep-alive: many requests flow over the one connection.
    ASSERT_TRUE(client.SendBytes(PostQuery(request)).ok());
    const HttpReply reply = ReadHttpReply(&client);
    EXPECT_EQ(reply.body,
              DirectResponseLine(harness.service(), request) + "\n")
        << request;
    EXPECT_EQ(reply.connection, "keep-alive");
  }
  // Status mapping: bad op -> 400, unsupported version -> 400, ok -> 200.
  ASSERT_TRUE(client.SendBytes(PostQuery(requests[0])).ok());
  EXPECT_EQ(ReadHttpReply(&client).status_code, 200);
  ASSERT_TRUE(client.SendBytes(PostQuery(requests[3])).ok());
  EXPECT_EQ(ReadHttpReply(&client).status_code, 400);
  ASSERT_TRUE(client.SendBytes(PostQuery(requests[4])).ok());
  const HttpReply versioned = ReadHttpReply(&client);
  EXPECT_EQ(versioned.status_code, 400);
  EXPECT_NE(versioned.body.find("UnsupportedVersion"), std::string::npos);
}

TEST(NetListenerHttpTest, BuiltinEndpointsAnswerInline) {
  ServerHarness harness;
  BlockingClient client = harness.Connect();
  ASSERT_TRUE(
      client.SendBytes("GET /v1/healthz HTTP/1.1\r\n\r\n").ok());
  const HttpReply health = ReadHttpReply(&client);
  EXPECT_EQ(health.status_code, 200);
  EXPECT_EQ(health.body, "{\"ok\":true}\n");

  ASSERT_TRUE(client.SendBytes("GET /v1/metrics HTTP/1.1\r\n\r\n").ok());
  const HttpReply metrics = ReadHttpReply(&client);
  EXPECT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.body.find("serve.net.accepted"), std::string::npos);

  // GET /v1/info goes through the engine == {"op":"info"}.
  ASSERT_TRUE(client.SendBytes("GET /v1/info HTTP/1.1\r\n\r\n").ok());
  const HttpReply info = ReadHttpReply(&client);
  EXPECT_EQ(info.status_code, 200);
  EXPECT_NE(info.body.find("\"protocol\":1"), std::string::npos);

  // An unknown route is a 404 that names the known ones.
  ASSERT_TRUE(client.SendBytes("GET /v2/nope HTTP/1.1\r\n\r\n").ok());
  const HttpReply missing = ReadHttpReply(&client);
  EXPECT_EQ(missing.status_code, 404);
  EXPECT_NE(missing.body.find("/v1/query"), std::string::npos);
}

TEST(NetListenerHttpTest, ConnectionCloseIsHonored) {
  ServerHarness harness;
  BlockingClient client = harness.Connect();
  const std::string request =
      R"({"id":"c","op":"spread","seeds":[0],"simulations":0})";
  ASSERT_TRUE(client
                  .SendBytes("POST /v1/query HTTP/1.1\r\nConnection: "
                             "close\r\nContent-Length: " +
                             std::to_string(request.size()) + "\r\n\r\n" +
                             request)
                  .ok());
  const HttpReply reply = ReadHttpReply(&client);
  EXPECT_EQ(reply.status_code, 200);
  EXPECT_EQ(reply.connection, "close");
  EXPECT_FALSE(client.ReadLine().ok());  // server closed after responding
}

TEST(NetListenerHttpTest, AdminSwapWorksFromLoopbackOverHttp) {
  ServerHarness harness;
  // The harness starts the service in its constructor, so installing a
  // factory now is too late — the pre-Start-only contract holds here too.
  EXPECT_EQ(harness.service()
                ->SetAssetsFactory(
                    [](const ServeRequest&)
                        -> Result<std::shared_ptr<const ServingAssets>> {
                      return Status::Internal("unreachable");
                    })
                .code(),
            StatusCode::kFailedPrecondition);

  // With no factory, an admin swap reports exactly that — and reaching the
  // engine at all IS the loopback-accepted path (a non-loopback peer would
  // be refused before submission; both framings share that gate).
  BlockingClient client = harness.Connect();
  const std::string swap = R"({"id":"a","op":"admin","action":"swap"})";
  ASSERT_TRUE(client.SendBytes(PostQuery(swap, "/v1/admin/swap")).ok());
  const HttpReply reply = ReadHttpReply(&client);
  EXPECT_EQ(reply.status_code, 409);  // FailedPrecondition: no factory
  EXPECT_NE(reply.body.find("no swap factory"), std::string::npos)
      << reply.body;

  // The swap endpoint only takes admin bodies.
  ASSERT_TRUE(client
                  .SendBytes(PostQuery(R"({"id":"x","op":"info"})",
                                       "/v1/admin/swap"))
                  .ok());
  EXPECT_EQ(ReadHttpReply(&client).status_code, 400);

  // The JSONL framing accepts the same admin op from loopback too.
  BlockingClient jsonl = harness.Connect();
  ASSERT_TRUE(jsonl.SendLine(swap).ok());
  Result<std::string> line = jsonl.ReadLine();
  ASSERT_TRUE(line.ok());
  EXPECT_NE(line->find("no swap factory"), std::string::npos)
      << line.value();
}

TEST(NetListenerHttpTest, MalformedHttpGetsOne400ThenClose) {
  ServerHarness harness;
  BlockingClient client = harness.Connect();
  ASSERT_TRUE(
      client.SendBytes("POST /v1/query HTTP/2.0\r\n\r\n").ok());
  const HttpReply reply = ReadHttpReply(&client);
  EXPECT_EQ(reply.status_code, 400);
  EXPECT_FALSE(client.ReadLine().ok());  // poisoned framing: closed
  EXPECT_GE(harness.server()->GetStats().bad_lines, 1u);
}

// --- Multi-loop SO_REUSEPORT group ---------------------------------------

class GroupHarness {
 public:
  explicit GroupHarness(int64_t loops) {
    service_ = InfluenceService::Create(TestGraph(), TestModel(), {}).value();
    EXPECT_TRUE(service_->Start().ok());
    NetServerGroupOptions options;
    options.server.listen = HostPort{"127.0.0.1", 0};
    options.loops = loops;
    Result<std::unique_ptr<NetServerGroup>> group =
        NetServerGroup::Create(service_.get(), options);
    EXPECT_TRUE(group.ok()) << group.status().ToString();
    group_ = std::move(group).value();
    runner_ = std::thread([this] { run_status_ = group_->Run(); });
  }

  ~GroupHarness() {
    Shutdown();
    service_->Stop();
  }

  Status Shutdown() {
    if (runner_.joinable()) {
      group_->RequestShutdown();
      runner_.join();
    }
    return run_status_;
  }

  BlockingClient Connect() {
    BlockingClient client;
    EXPECT_TRUE(client.Connect(group_->bound_address()).ok());
    return client;
  }

  InfluenceService* service() { return service_.get(); }
  NetServerGroup* group() { return group_.get(); }

 private:
  std::unique_ptr<InfluenceService> service_;
  std::unique_ptr<NetServerGroup> group_;
  std::thread runner_;
  Status run_status_;
};

TEST(NetServerGroupTest, OptionsValidate) {
  NetServerGroupOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.loops = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.loops = 65;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(NetServerGroupTest, ManyClientsAcrossLoopsGetOrderedResponses) {
  GroupHarness harness(/*loops=*/3);
  EXPECT_EQ(harness.group()->loops(), 3);
  constexpr int kClients = 9;  // several per loop on average
  constexpr int kRequests = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&harness, &failures, c] {
      BlockingClient client = harness.Connect();
      for (int i = 0; i < kRequests; ++i) {
        const std::string id =
            "g" + std::to_string(c) + "-" + std::to_string(i);
        if (!client
                 .SendLine("{\"id\":\"" + id +
                           "\",\"op\":\"spread\",\"seeds\":[" +
                           std::to_string((c + i) % 8) +
                           "],\"simulations\":0}")
                 .ok()) {
          failures[c] = "send failed at " + id;
          return;
        }
      }
      if (!client.ShutdownWrite().ok()) {
        failures[c] = "shutdown failed";
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        const std::string id =
            "g" + std::to_string(c) + "-" + std::to_string(i);
        Result<std::string> line = client.ReadLine();
        if (!line.ok()) {
          failures[c] = "missing response " + id;
          return;
        }
        if (line->find("\"id\":\"" + id + "\"") == std::string::npos) {
          failures[c] = "out of order at " + id + ": " + line.value();
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  EXPECT_TRUE(harness.Shutdown().ok());
  const NetServerStats stats = harness.group()->GetStats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients * kRequests));
  EXPECT_EQ(stats.responses, static_cast<uint64_t>(kClients * kRequests));
}

TEST(NetServerGroupTest, HttpAndJsonlCoexistAcrossLoops) {
  GroupHarness harness(/*loops=*/2);
  const std::string request =
      R"({"id":"mix","op":"topk","k":3,"method":"celf"})";
  const std::string reference =
      DirectResponseLine(harness.service(), request);
  for (int i = 0; i < 4; ++i) {
    BlockingClient http = harness.Connect();
    ASSERT_TRUE(http.SendBytes(PostQuery(request)).ok());
    EXPECT_EQ(ReadHttpReply(&http).body, reference + "\n");
    BlockingClient jsonl = harness.Connect();
    ASSERT_TRUE(jsonl.SendLine(request).ok());
    Result<std::string> line = jsonl.ReadLine();
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(line.value(), reference);
  }
}

TEST(NetServerGroupTest, DrainAnswersInFlightRequestsOnEveryLoop) {
  GroupHarness harness(/*loops=*/2);
  constexpr int kClients = 4;
  constexpr int kInFlight = 6;
  std::vector<BlockingClient> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(harness.Connect());
    for (int i = 0; i < kInFlight; ++i) {
      ASSERT_TRUE(
          clients.back()
              .SendLine("{\"id\":\"dr" + std::to_string(c) + "-" +
                        std::to_string(i) +
                        "\",\"op\":\"spread\",\"seeds\":[2,4],\"steps\":-1,"
                        "\"simulations\":5000,\"seed\":" +
                        std::to_string(100 * c + i) + "}")
              .ok());
    }
  }
  // Drain with requests in flight on both loops: every one is answered.
  harness.group()->RequestShutdown();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients[c].ShutdownWrite().ok());
    for (int i = 0; i < kInFlight; ++i) {
      Result<std::string> line = clients[c].ReadLine();
      ASSERT_TRUE(line.ok()) << "client " << c << " dropped request " << i;
      EXPECT_NE(line->find("\"id\":\"dr" + std::to_string(c) + "-" +
                           std::to_string(i) + "\""),
                std::string::npos);
    }
    EXPECT_FALSE(clients[c].ReadLine().ok());
  }
  EXPECT_TRUE(harness.Shutdown().ok());
}

}  // namespace
}  // namespace net
}  // namespace serve
}  // namespace privim
