// loadgen: open-loop TCP load against privim_serve --listen.
//
//   loadgen --addr HOST:PORT --requests R --offset O --count N --rate QPS
//           --samples-out S [--replies-out F]
//
// Two connections: request i of the window goes to connection i % 2, where
// connection 0 speaks HTTP/1.1 keep-alive (POST /v1/query) and connection 1
// raw JSON-lines. Request i is due at i / rate seconds after the window
// opens. A sender thread per connection writes each request when it falls
// due, whether or not earlier replies have arrived; a receiver thread per
// connection matches replies by per-connection order (the listener answers
// pipelined requests in order). Latency is taken from the due time, so a
// stall counts against every request that should have been sent during it.
// Each connection first exchanges one {"op":"info"} warm-up request.
//
// Samples file: one line per request, "index conn due sent received
// status" with times in seconds from the window's opening and status one
// of ok, shed, deadline, error, transport.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

using privim::Status;

class Socket {
 public:
  Socket() = default;
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  Status Connect(const std::string& addr) {
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("address must be HOST:PORT");
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(
        std::strtoul(addr.c_str() + colon + 1, nullptr, 10)));
    if (::inet_pton(AF_INET, addr.substr(0, colon).c_str(), &sa.sin_addr) !=
        1) {
      return Status::InvalidArgument("bad IPv4 host in " + addr);
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IOError("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return Status::IOError("connect to " + addr + " failed");
    }
    return Status::OK();
  }

  bool SendAll(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  }

  /// Appends what arrives to *buffer; false on EOF, error or timeout.
  bool Receive(std::string* buffer) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }

 private:
  int fd_ = -1;
};

// Extracts one complete reply body from buffer[*pos...]; false if it has
// not fully arrived yet.
bool NextReply(bool http, const std::string& buffer, size_t* pos,
               std::string* body) {
  if (!http) {
    const size_t end = buffer.find('\n', *pos);
    if (end == std::string::npos) return false;
    *body = buffer.substr(*pos, end - *pos);
    *pos = end + 1;
    return true;
  }
  const size_t header_end = buffer.find("\r\n\r\n", *pos);
  if (header_end == std::string::npos) return false;
  const size_t length_at = buffer.find("Content-Length: ", *pos);
  if (length_at == std::string::npos || length_at > header_end) return false;
  const size_t length = std::strtoul(buffer.c_str() + length_at + 16,
                                     nullptr, 10);
  const size_t body_at = header_end + 4;
  if (buffer.size() < body_at + length) return false;
  *body = buffer.substr(body_at, length);
  if (!body->empty() && body->back() == '\n') body->pop_back();
  *pos = body_at + length;
  return true;
}

std::string Wire(bool http, const std::string& line) {
  if (!http) return line + "\n";
  return "POST /v1/query HTTP/1.1\r\nContent-Length: " +
         std::to_string(line.size()) + "\r\n\r\n" + line;
}

const char* StatusOf(const std::string& body) {
  if (body.find("\"ok\":true") != std::string::npos) return "ok";
  if (body.find("\"code\":\"Unavailable\"") != std::string::npos) {
    return "shed";
  }
  if (body.find("\"code\":\"DeadlineExceeded\"") != std::string::npos) {
    return "deadline";
  }
  return "error";
}

struct Slot {
  double due = 0.0;
  double sent = -1.0;
  double received = -1.0;
  std::string body;
  bool transport_failed = false;
};

}  // namespace

int LoadgenMain(const Args& args) {
  const int64_t offset = args.Int("offset", 0);
  const int64_t count = args.Int("count", 0);
  const double rate = args.Double("rate", 0.0);
  if (count < 2 || !(rate > 0.0) || offset < 0) {
    return Fail(Status::InvalidArgument("loadgen needs --count >= 2, --rate"));
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(args.Str("requests", ""));
    std::string line;
    for (int64_t i = 0; std::getline(in, line) && i < offset + count; ++i) {
      if (i >= offset) lines.push_back(line);
    }
  }
  if (static_cast<int64_t>(lines.size()) != count) {
    return Fail(Status::OutOfRange("schedule shorter than the window"));
  }

  Socket sockets[2];
  for (int c = 0; c < 2; ++c) {
    if (Status s = sockets[c].Connect(args.Str("addr", "")); !s.ok()) {
      return Fail(s);
    }
    const bool http = c == 0;
    std::string buffer, body;
    size_t pos = 0;
    if (!sockets[c].SendAll(Wire(http, "{\"id\":\"warm\",\"op\":\"info\"}"))) {
      return Fail(Status::IOError("warm-up send failed"));
    }
    while (!NextReply(http, buffer, &pos, &body)) {
      if (!sockets[c].Receive(&buffer)) {
        return Fail(Status::IOError("warm-up reply failed"));
      }
    }
    if (std::strcmp(StatusOf(body), "ok") != 0) {
      return Fail(Status::Internal("warm-up reply not ok: " + body));
    }
  }

  std::vector<Slot> slots(lines.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    slots[i].due = static_cast<double>(i) / rate;
  }
  const auto epoch_tp =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  const double epoch = std::chrono::duration<double>(
                           epoch_tp.time_since_epoch())
                           .count();

  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    const bool http = c == 0;
    threads.emplace_back([&, c, http] {
      for (size_t i = static_cast<size_t>(c); i < slots.size(); i += 2) {
        std::this_thread::sleep_until(
            epoch_tp +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(slots[i].due)));
        slots[i].sent = Now() - epoch;
        if (!sockets[c].SendAll(Wire(http, lines[i]))) return;
      }
    });
    threads.emplace_back([&, c, http] {
      std::string buffer, body;
      size_t pos = 0;
      for (size_t i = static_cast<size_t>(c); i < slots.size(); i += 2) {
        while (!NextReply(http, buffer, &pos, &body)) {
          if (!sockets[c].Receive(&buffer)) {
            for (size_t j = i; j < slots.size(); j += 2) {
              slots[j].transport_failed = true;
            }
            return;
          }
        }
        slots[i].received = Now() - epoch;
        slots[i].body = body;
        if (pos > (1 << 20)) {
          buffer.erase(0, pos);
          pos = 0;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::ofstream samples(args.Str("samples-out", "/dev/null"), std::ios::trunc);
  std::ofstream replies(args.Str("replies-out", "/dev/null"), std::ios::trunc);
  int64_t ok = 0, failed = 0;
  char row[160];
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    const char* status = s.transport_failed ? "transport" : StatusOf(s.body);
    std::snprintf(row, sizeof(row), "%zu %zu %.9f %.9f %.9f %s\n", i, i % 2,
                  s.due, s.sent, s.received, status);
    samples << row;
    replies << lines[i].substr(7, lines[i].find('"', 7) - 7) << '\t' << s.body
            << '\n';
    (std::strcmp(status, "ok") == 0 ? ok : failed) += 1;
  }
  samples.close();
  if (!samples.good()) return Fail(Status::IOError("cannot write samples"));
  JsonOut out;
  out.Int("attempted", count).Int("ok", ok).Int("failed", failed);
  return Emit(out);
}

}  // namespace perfbench
