// TCP front door for the InfluenceService: a single-threaded epoll event
// loop (poller.h) speaking the JSON-lines
// wire format from serve/request.h over any number of concurrent
// connections. Each connection may instead speak HTTP/1.1 (net/http.h) —
// the framing is auto-detected from the first bytes and the /v1/query
// response body is byte-identical to the JSONL response line. Several
// loops can share one port via SO_REUSEPORT (net/group.h).
//
// Life of a request:
//
//   readable socket ──▶ LineFramer ──▶ ParseServeRequest
//        │ parse error: response slot completes inline (same bytes as the
//        │ stdin front end produces for the same bad line)
//        ▼
//   InfluenceService::SubmitAsync (non-blocking)
//        │ queue full: immediate {"ok":false,"code":"Unavailable",
//        │ "error":"overloaded"} — load shedding, counted in the
//        │ service's serve.requests.rejected and serve.net.overloaded
//        ▼
//   completion callback (any execution thread) ──▶ completion queue ──▶
//   WakeupFd rouses the loop ──▶ response written back in per-connection
//   request order
//
// Per-connection ordering is what makes a socket conversation
// byte-identical to piping the same lines through the stdin front end:
// responses are buffered in arrival slots and flushed strictly in request
// order, whatever order the engine completes them in.
//
// Deadlines: with deadline_ms > 0 every admitted request must complete
// within that budget or its slot is answered with {"ok":false,"code":
// "DeadlineExceeded","error":"deadline exceeded"}; the late result is
// discarded when it eventually arrives (the computation itself is not
// cancelled — results are cacheable pure functions, so letting them
// finish warms the cache for the retry).
//
// Graceful drain: RequestShutdown() — async-signal-safe, call it from a
// SIGTERM handler — stops accepting, keeps serving connected clients
// until they close (or a grace period elapses with nothing in flight),
// answers every admitted request, flushes, and lets Run() return. Zero
// in-flight requests are dropped.
//
// Observability: serve.net.* metrics (connections gauge, accepted /
// refused / requests / responses / overloaded / deadline_exceeded /
// bad_lines counters, bytes in and out, request latency histogram) next
// to the engine's serve.* family.

#ifndef PRIVIM_SERVE_NET_SERVER_H_
#define PRIVIM_SERVE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "privim/common/status.h"
#include "privim/common/timer.h"
#include "privim/obs/metrics.h"
#include "privim/serve/net/framing.h"
#include "privim/serve/net/http.h"
#include "privim/serve/net/poller.h"
#include "privim/serve/net/socket.h"
#include "privim/serve/service.h"

namespace privim {
namespace serve {
namespace net {

struct NetServerOptions {
  /// Address to bind; port 0 picks an ephemeral port (read it back from
  /// NetServer::bound_address()).
  HostPort listen{"127.0.0.1", 0};
  /// Connections beyond this are answered with one "overloaded" line and
  /// closed.
  int64_t max_connections = 1024;
  /// One request line may not exceed this many bytes; an oversized line
  /// gets an error response and the connection is closed (there is no way
  /// to resynchronize mid-line).
  int64_t max_line_bytes = 1 << 20;
  /// Per-request completion budget in milliseconds; 0 disables deadlines.
  int64_t deadline_ms = 0;
  /// During drain, how long to keep idle-but-open connections alive
  /// waiting for their EOF before force-closing them.
  int64_t drain_grace_ms = 5000;
  /// listen(2) backlog.
  int backlog = 128;
  /// Bind with SO_REUSEPORT so several loops (each its own NetServer) can
  /// accept on the same concrete port; set by NetServerGroup.
  bool reuse_port = false;
  /// When non-empty (e.g. "loop0"), this loop additionally records its
  /// own serve.net.<scope>.* metric family next to the shared global
  /// serve.net.* one, so per-loop balance is observable.
  std::string metrics_scope;

  Status Validate() const;
};

/// Point-in-time listener statistics (monotone except open_connections).
struct NetServerStats {
  uint64_t accepted = 0;           ///< connections accepted
  uint64_t refused = 0;            ///< connections over max_connections
  uint64_t requests = 0;           ///< complete request lines received
  uint64_t responses = 0;          ///< response lines queued for write
  uint64_t shed = 0;               ///< "overloaded" rejections
  uint64_t deadline_exceeded = 0;  ///< deadline responses produced
  uint64_t bad_lines = 0;          ///< unparseable or oversized lines
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  int64_t open_connections = 0;
};

/// One listener bound to one InfluenceService. Create() binds and
/// registers the socket immediately (so the ephemeral port is known before
/// Run()); Run() executes the event loop on the calling thread until
/// RequestShutdown() completes a graceful drain.
class NetServer {
 public:
  /// `service` must be started and must outlive the server.
  static Result<std::unique_ptr<NetServer>> Create(
      InfluenceService* service, const NetServerOptions& options);

  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound listen address with port 0 resolved.
  const HostPort& bound_address() const { return bound_; }

  /// Runs the event loop on the calling thread. Returns OK after a
  /// graceful drain, or the first fatal loop error.
  Status Run();

  /// Begins a graceful drain. Async-signal-safe and idempotent; callable
  /// from any thread or from a signal handler.
  void RequestShutdown();

  NetServerStats GetStats() const;

 private:
  struct Slot {
    uint64_t seq = 0;
    std::string request_id;       ///< echoed by the deadline response
    bool ready = false;           ///< response line available in `out`
    bool expired = false;         ///< answered by the deadline path
    bool http = false;            ///< wrap the response line as HTTP
    bool keep_alive = true;       ///< HTTP only: close after this response
    double received_seconds = 0;  ///< loop-clock stamp at arrival
    std::string out;              ///< wire bytes once ready
  };

  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    bool peer_loopback = false;  ///< admin requests are gated on this
    ProtocolKind proto = ProtocolKind::kUnknown;
    std::string probe;  ///< bytes buffered until the framing is decided
    LineFramer framer;
    HttpParser http;
    std::deque<Slot> slots;  ///< responses flush strictly in seq order
    uint64_t next_seq = 0;
    std::string outbuf;
    std::size_t out_pos = 0;
    bool want_write = false;   ///< registered for write readiness
    bool peer_closed = false;  ///< no more input (EOF, error, oversize)

    explicit Connection(std::size_t max_line_bytes)
        : framer(max_line_bytes), http(max_line_bytes) {}
  };

  struct Completion {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    ServeResponse response;
  };

  struct DeadlineEntry {
    double when = 0;  ///< loop-clock seconds
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    bool operator>(const DeadlineEntry& other) const {
      return when > other.when;
    }
  };

  NetServer(InfluenceService* service, const NetServerOptions& options);

  int ComputeTimeoutMs() const;
  void AcceptNewConnections();
  void HandleReadable(Connection* conn);
  /// Routes received bytes into the probe buffer, the line framer or the
  /// HTTP parser depending on the (possibly just-decided) framing.
  void IngestBytes(Connection* conn, const char* data, std::size_t size);
  /// Drains complete lines / requests out of the connection's framer.
  void DrainFramed(Connection* conn);
  void HandleLine(Connection* conn, const std::string& line);
  void HandleHttpRequest(Connection* conn, const HttpRequest& request);
  /// Shared tail of both framings: admin loopback gate, SubmitAsync, shed
  /// handling, deadline registration. The slot for `seq` is already in
  /// conn->slots.
  void SubmitSlot(Connection* conn, uint64_t seq, const ServeRequest& request);
  /// The wire bytes answering `slot`: the exact JSONL response line, HTTP-
  /// wrapped when the slot is HTTP (body stays byte-identical).
  std::string RenderResponse(const Slot& slot, const ServeResponse& response);
  void ProcessCompletions();
  void ExpireDeadlines();
  void FlushReadySlots(Connection* conn);
  void TryWrite(Connection* conn);
  void MaybeFinishConnection(Connection* conn);
  void CloseConnection(Connection* conn);
  Slot* FindSlot(Connection* conn, uint64_t seq);
  void OnCompletion(uint64_t conn_id, uint64_t seq, ServeResponse response);
  bool DrainComplete();
  void BeginDrain();

  InfluenceService* service_;
  NetServerOptions options_;
  HostPort bound_;
  int listen_fd_ = -1;
  std::unique_ptr<Poller> poller_;
  WakeupFd wakeup_;
  WallTimer clock_;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<int, uint64_t> fd_to_conn_;
  uint64_t next_conn_id_ = 1;
  int64_t outstanding_ = 0;  ///< admitted requests awaiting completion
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  std::atomic<bool> shutdown_requested_{false};
  bool draining_ = false;
  double drain_start_seconds_ = 0;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> bad_lines_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};

  /// Per-loop serve.net.<scope>.* instruments; all null when
  /// options_.metrics_scope is empty. The shared global serve.net.* family
  /// is always updated as well, so totals stay comparable across --net-loops
  /// settings.
  struct ScopedMetrics {
    obs::Counter* accepted = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* responses = nullptr;
    obs::Gauge* connections = nullptr;
  };
  ScopedMetrics scoped_;
};

}  // namespace net
}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_NET_SERVER_H_
