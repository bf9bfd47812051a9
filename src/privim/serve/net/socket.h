// Thin Status-returning wrappers over the BSD socket calls the TCP front
// end needs: address parsing, listener setup, non-blocking mode, and an
// async-signal-safe wakeup eventfd that lets completion threads and signal
// handlers rouse the event loop.

#ifndef PRIVIM_SERVE_NET_SOCKET_H_
#define PRIVIM_SERVE_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "privim/common/status.h"

namespace privim {
namespace serve {
namespace net {

/// "HOST:PORT" -> (host, port). HOST must be a dotted-quad IPv4 address or
/// "localhost"; PORT is 0..65535 (0 asks the kernel for an ephemeral port).
struct HostPort {
  std::string host;
  int port = 0;

  std::string ToString() const;  ///< "host:port"
};
Result<HostPort> ParseHostPort(const std::string& spec);

/// Creates a non-blocking listening socket bound to `address` with
/// SO_REUSEADDR set. Returns the fd; `*bound` reports the actual address
/// (resolving port 0 to the kernel-assigned ephemeral port). With
/// `reuse_port` the socket also sets SO_REUSEPORT, so several event loops
/// can each bind their own accept socket on the same concrete port and let
/// the kernel balance incoming connections across them (the multi-loop
/// listener group in net/group.h).
Result<int> OpenListenSocket(const HostPort& address, int backlog,
                             HostPort* bound, bool reuse_port = false);

/// Accepts one connection from `listen_fd` (the raw accept(2) result,
/// negative with errno preserved on failure). `*peer_is_loopback` reports
/// whether the peer connected from a loopback address — the gate the
/// server applies to admin requests.
int AcceptConnection(int listen_fd, bool* peer_is_loopback);

/// Puts an fd into non-blocking mode.
Status SetNonBlocking(int fd);

/// Disables Nagle's algorithm; harmless to call on non-TCP fds (errors are
/// swallowed — latency tuning must not break correctness).
void SetTcpNoDelay(int fd);

/// An eventfd the event loop can poll, plus a Notify() that is safe to
/// call from any thread *and from signal handlers* (it only ever calls
/// write(2)). Multiple notifications coalesce; Drain() resets the fd.
class WakeupFd {
 public:
  WakeupFd();  ///< aborts the process if the eventfd cannot be created
  ~WakeupFd();

  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  /// The fd to register for read readiness.
  int read_fd() const { return fd_; }
  /// Async-signal-safe.
  void Notify() const;
  /// Consumes all pending notifications (event-loop side).
  void Drain() const;

 private:
  int fd_;
};

}  // namespace net
}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_NET_SOCKET_H_
