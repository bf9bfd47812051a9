#include "privim/serve/net/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "privim/obs/metrics.h"

namespace privim {
namespace serve {
namespace net {

namespace {

obs::Gauge* ConnectionsGauge() {
  static obs::Gauge* g =
      obs::GlobalMetrics().GetGauge("serve.net.connections");
  return g;
}
obs::Counter* AcceptedCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.accepted");
  return c;
}
obs::Counter* RefusedCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.refused");
  return c;
}
obs::Counter* RequestsCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.requests");
  return c;
}
obs::Counter* ResponsesCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.responses");
  return c;
}
obs::Counter* OverloadedCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.overloaded");
  return c;
}
obs::Counter* DeadlineExceededCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.deadline_exceeded");
  return c;
}
obs::Counter* BadLinesCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.bad_lines");
  return c;
}
obs::Counter* BytesInCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.bytes.in");
  return c;
}
obs::Counter* BytesOutCounter() {
  static obs::Counter* c =
      obs::GlobalMetrics().GetCounter("serve.net.bytes.out");
  return c;
}
obs::Histogram* NetLatencyHistogram() {
  static obs::Histogram* h = obs::GlobalMetrics().GetHistogram(
      "serve.net.latency.seconds", obs::DefaultTimeBucketsSeconds());
  return h;
}

std::string OverloadedLine(const std::string& id) {
  // The shared shed response (request.h): byte-identical to what the
  // stdin front end emits for the same condition.
  return OverloadedResponse(id).ToJsonLine() + "\n";
}

ServeResponse ErrorResponse(const std::string& id, Status status) {
  ServeResponse response;
  response.id = id;
  response.status = std::move(status);
  return response;
}

}  // namespace

Status NetServerOptions::Validate() const {
  if (listen.port < 0 || listen.port > 65535) {
    return Status::InvalidArgument("listen port must be 0..65535");
  }
  if (max_connections < 1) {
    return Status::InvalidArgument("max_connections must be >= 1");
  }
  if (max_line_bytes < 2) {
    return Status::InvalidArgument("max_line_bytes must be >= 2");
  }
  if (deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0 (0 disables)");
  }
  if (drain_grace_ms < 0) {
    return Status::InvalidArgument("drain_grace_ms must be >= 0");
  }
  if (backlog < 1) {
    return Status::InvalidArgument("backlog must be >= 1");
  }
  return Status::OK();
}

NetServer::NetServer(InfluenceService* service,
                     const NetServerOptions& options)
    : service_(service), options_(options) {}

NetServer::~NetServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& [id, conn] : conns_) {
    (void)id;
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

Result<std::unique_ptr<NetServer>> NetServer::Create(
    InfluenceService* service, const NetServerOptions& options) {
  if (service == nullptr) {
    return Status::InvalidArgument("NetServer needs a service");
  }
  PRIVIM_RETURN_NOT_OK(options.Validate());
  std::unique_ptr<NetServer> server(new NetServer(service, options));

  Result<std::unique_ptr<Poller>> poller = Poller::Create();
  if (!poller.ok()) return poller.status();
  server->poller_ = std::move(poller).value();

  Result<int> listen_fd =
      OpenListenSocket(options.listen, options.backlog, &server->bound_,
                       options.reuse_port);
  if (!listen_fd.ok()) return listen_fd.status();
  server->listen_fd_ = listen_fd.value();

  if (!options.metrics_scope.empty()) {
    const std::string prefix = "serve.net." + options.metrics_scope + ".";
    server->scoped_.accepted =
        obs::GlobalMetrics().GetCounter(prefix + "accepted");
    server->scoped_.requests =
        obs::GlobalMetrics().GetCounter(prefix + "requests");
    server->scoped_.responses =
        obs::GlobalMetrics().GetCounter(prefix + "responses");
    server->scoped_.connections =
        obs::GlobalMetrics().GetGauge(prefix + "connections");
  }

  PRIVIM_RETURN_NOT_OK(
      server->poller_->Add(server->listen_fd_, /*read=*/true,
                           /*write=*/false));
  PRIVIM_RETURN_NOT_OK(server->poller_->Add(server->wakeup_.read_fd(),
                                            /*read=*/true,
                                            /*write=*/false));
  return server;
}

void NetServer::RequestShutdown() {
  // Only async-signal-safe operations here: an atomic store and write(2).
  shutdown_requested_.store(true, std::memory_order_release);
  wakeup_.Notify();
}

int NetServer::ComputeTimeoutMs() const {
  double timeout_seconds = -1;
  if (!deadlines_.empty()) {
    timeout_seconds =
        std::max(0.0, deadlines_.top().when - clock_.ElapsedSeconds());
  }
  if (draining_) {
    // Re-evaluate the drain exit conditions frequently.
    const double drain_tick = 0.05;
    timeout_seconds = timeout_seconds < 0
                          ? drain_tick
                          : std::min(timeout_seconds, drain_tick);
  }
  if (timeout_seconds < 0) return -1;
  return static_cast<int>(std::ceil(timeout_seconds * 1000.0));
}

Status NetServer::Run() {
  std::vector<Poller::Event> events;
  while (true) {
    Result<int> waited = poller_->Wait(&events, ComputeTimeoutMs());
    if (!waited.ok()) return waited.status();

    for (const Poller::Event& event : events) {
      if (event.fd == wakeup_.read_fd()) {
        wakeup_.Drain();
        continue;
      }
      if (event.fd == listen_fd_) {
        AcceptNewConnections();
        continue;
      }
      // The connection may have been closed by an earlier event this
      // round; look it up fresh.
      auto fd_it = fd_to_conn_.find(event.fd);
      if (fd_it == fd_to_conn_.end()) continue;
      Connection* conn = conns_.at(fd_it->second).get();
      if (event.readable || event.error) HandleReadable(conn);
      // HandleReadable can close the connection; re-check before writing.
      if (fd_to_conn_.count(event.fd) != 0 && event.writable) {
        TryWrite(conn);
      }
    }

    ProcessCompletions();
    ExpireDeadlines();

    // Drain begins only after this round's events were handled: a
    // connection whose accept was reported alongside the shutdown wakeup
    // is already established client-side and must be served, not reset
    // by closing the listen socket out from under it.
    if (shutdown_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
    }
    if (draining_ && DrainComplete()) return Status::OK();
  }
}

void NetServer::BeginDrain() {
  draining_ = true;
  drain_start_seconds_ = clock_.ElapsedSeconds();
  if (listen_fd_ >= 0) {
    // A connection that completed its handshake after this round's wait
    // sits in the accept queue, established client-side; closing the
    // listen socket would reset it. Take the whole queue in first.
    AcceptNewConnections();
    poller_->Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool NetServer::DrainComplete() {
  if (outstanding_ > 0) return false;
  for (const auto& [id, conn] : conns_) {
    (void)id;
    if (!conn->slots.empty() || conn->out_pos < conn->outbuf.size()) {
      return false;
    }
  }
  if (conns_.empty()) return true;
  // Everything answered and flushed, but some peers have not closed yet:
  // linger for the grace period so slow readers are not cut off, then
  // force-close.
  if (clock_.ElapsedSeconds() - drain_start_seconds_ <
      options_.drain_grace_ms / 1000.0) {
    return false;
  }
  while (!conns_.empty()) {
    CloseConnection(conns_.begin()->second.get());
  }
  return true;
}

void NetServer::AcceptNewConnections() {
  while (listen_fd_ >= 0) {
    bool peer_loopback = false;
    const int fd = AcceptConnection(listen_fd_, &peer_loopback);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept failure: wait for the next event
    }
    if (static_cast<int64_t>(conns_.size()) >= options_.max_connections) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      RefusedCounter()->Increment();
      // Best effort: the socket buffer of a fresh connection always has
      // room for one short line.
      const std::string line = OverloadedLine("");
      ssize_t ignored = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      (void)ignored;
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    SetTcpNoDelay(fd);
    auto conn = std::make_unique<Connection>(
        static_cast<std::size_t>(options_.max_line_bytes));
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->peer_loopback = peer_loopback;
    if (!poller_->Add(fd, /*read=*/true, /*write=*/false).ok()) {
      ::close(fd);
      continue;
    }
    fd_to_conn_[fd] = conn->id;
    conns_[conn->id] = std::move(conn);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    AcceptedCounter()->Increment();
    if (scoped_.accepted != nullptr) scoped_.accepted->Increment();
    // The open-connections gauge is per loop by nature: a scoped loop owns
    // its own gauge and leaves the global one to single-loop servers
    // (several loops each Set()ing the global gauge would clobber it).
    if (scoped_.connections != nullptr) {
      scoped_.connections->Set(static_cast<double>(conns_.size()));
    } else {
      ConnectionsGauge()->Set(static_cast<double>(conns_.size()));
    }
  }
}

void NetServer::HandleReadable(Connection* conn) {
  char buffer[16384];
  bool closed = false;
  while (!conn->peer_closed) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      BytesInCounter()->Increment(static_cast<uint64_t>(n));
      IngestBytes(conn, buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      // A stream that ended before the framing could be decided is treated
      // as JSONL: an unterminated partial line, exactly like the stdin
      // front end sees at an EOF mid-line.
      if (conn->proto == ProtocolKind::kUnknown && !conn->probe.empty()) {
        conn->proto = ProtocolKind::kJsonl;
        conn->framer.Feed(conn->probe.data(), conn->probe.size());
        conn->probe.clear();
      }
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closed = true;  // hard error: the peer is unreachable either way
    break;
  }
  if (closed) {
    CloseConnection(conn);
    return;
  }

  DrainFramed(conn);
  FlushReadySlots(conn);
  MaybeFinishConnection(conn);
}

void NetServer::IngestBytes(Connection* conn, const char* data,
                            std::size_t size) {
  if (conn->proto == ProtocolKind::kUnknown) {
    conn->probe.append(data, size);
    conn->proto = SniffProtocol(conn->probe.data(), conn->probe.size());
    if (conn->proto == ProtocolKind::kUnknown) return;  // still ambiguous
    // Replay the probe into the winning framer; from here on bytes go
    // straight through.
    if (conn->proto == ProtocolKind::kHttp) {
      conn->http.Feed(conn->probe.data(), conn->probe.size());
    } else {
      conn->framer.Feed(conn->probe.data(), conn->probe.size());
    }
    conn->probe.clear();
    conn->probe.shrink_to_fit();
    return;
  }
  if (conn->proto == ProtocolKind::kHttp) {
    conn->http.Feed(data, size);
  } else {
    conn->framer.Feed(data, size);
  }
}

void NetServer::DrainFramed(Connection* conn) {
  if (conn->proto == ProtocolKind::kHttp) {
    HttpRequest request;
    while (true) {
      const HttpParser::Next next = conn->http.PopRequest(&request);
      if (next == HttpParser::Next::kNeedMore) break;
      if (next == HttpParser::Next::kRequest) {
        HandleHttpRequest(conn, request);
        continue;
      }
      // kOversized / kBad: answer once with a close-marked 400 and stop
      // reading — HTTP framing cannot be resynchronized after either.
      bad_lines_.fetch_add(1, std::memory_order_relaxed);
      BadLinesCounter()->Increment();
      Slot slot;
      slot.seq = conn->next_seq++;
      slot.http = true;
      slot.keep_alive = false;
      slot.ready = true;
      const Status status =
          next == HttpParser::Next::kOversized
              ? Status::InvalidArgument(
                    "request exceeds " +
                    std::to_string(options_.max_line_bytes) + " bytes")
              : Status::InvalidArgument(conn->http.error());
      slot.out = RenderResponse(slot, ErrorResponse("", status));
      conn->slots.push_back(std::move(slot));
      conn->peer_closed = true;
      break;
    }
    return;
  }

  std::string line;
  while (true) {
    const LineFramer::Next next = conn->framer.PopLine(&line);
    if (next == LineFramer::Next::kNeedMore) break;
    if (next == LineFramer::Next::kOversized) {
      bad_lines_.fetch_add(1, std::memory_order_relaxed);
      BadLinesCounter()->Increment();
      Slot slot;
      slot.seq = conn->next_seq++;
      slot.ready = true;
      ServeResponse response;
      response.status = Status::InvalidArgument(
          "request line exceeds " + std::to_string(options_.max_line_bytes) +
          " bytes");
      slot.out = response.ToJsonLine() + "\n";
      conn->slots.push_back(std::move(slot));
      // No way to find the next line boundary in an oversized stream:
      // answer what we can and stop reading from this peer.
      conn->peer_closed = true;
      break;
    }
    if (line.empty()) continue;  // the stdin front end skips blank lines too
    HandleLine(conn, line);
  }
}

std::string NetServer::RenderResponse(const Slot& slot,
                                      const ServeResponse& response) {
  // The JSONL line is the payload in both framings; HTTP wraps the exact
  // same bytes as its body, which is what the byte-identity tests pin.
  std::string line = response.ToJsonLine() + "\n";
  if (!slot.http) return line;
  return HttpResponseBytes(HttpStatusForStatus(response.status), line,
                           slot.keep_alive);
}

void NetServer::HandleLine(Connection* conn, const std::string& line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  RequestsCounter()->Increment();
  if (scoped_.requests != nullptr) scoped_.requests->Increment();

  Slot slot;
  slot.seq = conn->next_seq++;
  slot.received_seconds = clock_.ElapsedSeconds();
  const uint64_t seq = slot.seq;

  Result<ServeRequest> request = ParseServeRequest(line);
  if (!request.ok()) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    BadLinesCounter()->Increment();
    slot.ready = true;
    slot.out =
        ResponseForBadLine(line, request.status()).ToJsonLine() + "\n";
    conn->slots.push_back(std::move(slot));
    return;
  }
  slot.request_id = request->id;
  conn->slots.push_back(std::move(slot));
  SubmitSlot(conn, seq, request.value());
}

void NetServer::HandleHttpRequest(Connection* conn,
                                  const HttpRequest& http) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  RequestsCounter()->Increment();
  if (scoped_.requests != nullptr) scoped_.requests->Increment();

  Slot slot;
  slot.seq = conn->next_seq++;
  slot.http = true;
  slot.keep_alive = http.keep_alive;
  slot.received_seconds = clock_.ElapsedSeconds();
  const uint64_t seq = slot.seq;

  // The two local endpoints answer inline without touching the engine.
  if (http.method == "GET" && http.target == "/v1/healthz") {
    slot.ready = true;
    slot.out = HttpResponseBytes(200, "{\"ok\":true}\n", slot.keep_alive);
    conn->slots.push_back(std::move(slot));
    return;
  }
  if (http.method == "GET" && http.target == "/v1/metrics") {
    slot.ready = true;
    slot.out = HttpResponseBytes(200, obs::GlobalMetrics().ToJson() + "\n",
                                 slot.keep_alive);
    conn->slots.push_back(std::move(slot));
    return;
  }

  // Everything else flows through the engine, so HTTP and JSONL answers
  // come from the same computation (and the same cache).
  std::string body;
  if (http.method == "GET" && http.target == "/v1/info") {
    body = "{\"op\":\"info\"}";
  } else if (http.method == "POST" && (http.target == "/v1/query" ||
                                       http.target == "/v1/admin/swap")) {
    body = http.body;
  } else {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    BadLinesCounter()->Increment();
    slot.ready = true;
    slot.out = RenderResponse(
        slot, ErrorResponse(
                  "", Status::NotFound(http.method + " " + http.target +
                                       " is not an endpoint (try POST "
                                       "/v1/query, GET /v1/info, GET "
                                       "/v1/healthz, GET /v1/metrics, POST "
                                       "/v1/admin/swap)")));
    conn->slots.push_back(std::move(slot));
    return;
  }

  Result<ServeRequest> request = ParseServeRequest(body);
  if (!request.ok()) {
    bad_lines_.fetch_add(1, std::memory_order_relaxed);
    BadLinesCounter()->Increment();
    slot.ready = true;
    slot.out = RenderResponse(
        slot, ResponseForBadLine(body, request.status()));
    conn->slots.push_back(std::move(slot));
    return;
  }
  if (http.target == "/v1/admin/swap" &&
      request->op != RequestOp::kAdmin) {
    slot.ready = true;
    slot.out = RenderResponse(
        slot, ErrorResponse(request->id,
                            Status::InvalidArgument(
                                "/v1/admin/swap takes an op=admin request "
                                "body")));
    conn->slots.push_back(std::move(slot));
    return;
  }

  slot.request_id = request->id;
  conn->slots.push_back(std::move(slot));
  SubmitSlot(conn, seq, request.value());
}

void NetServer::SubmitSlot(Connection* conn, uint64_t seq,
                           const ServeRequest& request) {
  Slot* slot = FindSlot(conn, seq);

  // Admin requests mutate the serving assets; over TCP they are accepted
  // from loopback peers only, on both framings.
  if (request.op == RequestOp::kAdmin && !conn->peer_loopback) {
    slot->ready = true;
    slot->out = RenderResponse(
        *slot, ErrorResponse(request.id,
                             Status::FailedPrecondition(
                                 "admin requests are only accepted from "
                                 "loopback peers")));
    return;
  }

  const uint64_t conn_id = conn->id;
  // Count the request as outstanding before submitting: a cache hit
  // invokes the completion callback inline, and the completion path
  // decrements unconditionally.
  ++outstanding_;
  const Status submitted = service_->SubmitAsync(
      request, [this, conn_id, seq](ServeResponse response) {
        OnCompletion(conn_id, seq, std::move(response));
      });
  if (!submitted.ok()) {
    --outstanding_;
    slot->ready = true;
    slot->out = RenderResponse(*slot, ErrorResponse(request.id, submitted));
    if (IsOverloaded(submitted)) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      OverloadedCounter()->Increment();
    }
    return;
  }
  if (options_.deadline_ms > 0) {
    DeadlineEntry entry;
    entry.when = slot->received_seconds + options_.deadline_ms / 1000.0;
    entry.conn_id = conn_id;
    entry.seq = seq;
    deadlines_.push(entry);
  }
}

void NetServer::OnCompletion(uint64_t conn_id, uint64_t seq,
                             ServeResponse response) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    Completion completion;
    completion.conn_id = conn_id;
    completion.seq = seq;
    completion.response = std::move(response);
    completions_.push_back(std::move(completion));
  }
  wakeup_.Notify();
}

NetServer::Slot* NetServer::FindSlot(Connection* conn, uint64_t seq) {
  if (conn->slots.empty()) return nullptr;
  const uint64_t front_seq = conn->slots.front().seq;
  if (seq < front_seq) return nullptr;  // already flushed (e.g. expired)
  const uint64_t index = seq - front_seq;
  if (index >= conn->slots.size()) return nullptr;
  return &conn->slots[static_cast<std::size_t>(index)];
}

void NetServer::ProcessCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    --outstanding_;
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // connection went away mid-flight
    Connection* conn = it->second.get();
    Slot* slot = FindSlot(conn, completion.seq);
    if (slot == nullptr || slot->ready) {
      continue;  // deadline already answered this slot
    }
    NetLatencyHistogram()->Observe(clock_.ElapsedSeconds() -
                                   slot->received_seconds);
    slot->ready = true;
    slot->out = RenderResponse(*slot, completion.response);
    FlushReadySlots(conn);
    MaybeFinishConnection(conn);
  }
}

void NetServer::ExpireDeadlines() {
  const double now = clock_.ElapsedSeconds();
  while (!deadlines_.empty() && deadlines_.top().when <= now) {
    const DeadlineEntry entry = deadlines_.top();
    deadlines_.pop();
    auto it = conns_.find(entry.conn_id);
    if (it == conns_.end()) continue;
    Connection* conn = it->second.get();
    Slot* slot = FindSlot(conn, entry.seq);
    if (slot == nullptr || slot->ready) continue;  // finished in time
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    DeadlineExceededCounter()->Increment();
    slot->ready = true;
    slot->expired = true;
    slot->out = RenderResponse(
        *slot, ErrorResponse(slot->request_id,
                             Status::DeadlineExceeded("deadline exceeded")));
    FlushReadySlots(conn);
    MaybeFinishConnection(conn);
  }
}

void NetServer::FlushReadySlots(Connection* conn) {
  bool queued = false;
  while (!conn->slots.empty() && conn->slots.front().ready) {
    const bool close_after =
        conn->slots.front().http && !conn->slots.front().keep_alive;
    conn->outbuf += conn->slots.front().out;
    conn->slots.pop_front();
    responses_.fetch_add(1, std::memory_order_relaxed);
    ResponsesCounter()->Increment();
    if (scoped_.responses != nullptr) scoped_.responses->Increment();
    queued = true;
    if (close_after) {
      // "Connection: close" honored: stop reading; the connection closes
      // once the remaining queued responses flush.
      conn->peer_closed = true;
    }
  }
  if (queued) TryWrite(conn);
}

void NetServer::TryWrite(Connection* conn) {
  while (conn->out_pos < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->outbuf.data() + conn->out_pos,
               conn->outbuf.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<std::size_t>(n);
      bytes_out_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
      BytesOutCounter()->Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn);  // peer reset: nothing left to deliver
    return;
  }
  if (conn->out_pos >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_pos = 0;
    if (conn->want_write) {
      conn->want_write = false;
      (void)poller_->Modify(conn->fd, /*read=*/!conn->peer_closed,
                            /*write=*/false);
    }
  } else if (!conn->want_write) {
    conn->want_write = true;
    (void)poller_->Modify(conn->fd, /*read=*/!conn->peer_closed,
                          /*write=*/true);
  }
}

void NetServer::MaybeFinishConnection(Connection* conn) {
  if (!conn->peer_closed) return;
  if (!conn->slots.empty()) return;
  if (conn->out_pos < conn->outbuf.size()) return;
  CloseConnection(conn);
}

void NetServer::CloseConnection(Connection* conn) {
  poller_->Remove(conn->fd);
  ::close(conn->fd);
  fd_to_conn_.erase(conn->fd);
  conns_.erase(conn->id);  // destroys *conn
  if (scoped_.connections != nullptr) {
    scoped_.connections->Set(static_cast<double>(conns_.size()));
  } else {
    ConnectionsGauge()->Set(static_cast<double>(conns_.size()));
  }
}

NetServerStats NetServer::GetStats() const {
  NetServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.refused = refused_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_exceeded =
      deadline_exceeded_.load(std::memory_order_relaxed);
  stats.bad_lines = bad_lines_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.open_connections = static_cast<int64_t>(conns_.size());
  return stats;
}

}  // namespace net
}  // namespace serve
}  // namespace privim
