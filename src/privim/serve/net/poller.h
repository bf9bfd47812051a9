// Readiness notification for the single-threaded event loop: epoll(7).
//
// Level-triggered: an fd with unread input or unflushed output keeps
// reporting ready, so the loop never needs to drain a socket to EAGAIN in
// one pass to stay correct.

#ifndef PRIVIM_SERVE_NET_POLLER_H_
#define PRIVIM_SERVE_NET_POLLER_H_

#include <memory>
#include <vector>

#include "privim/common/status.h"

namespace privim {
namespace serve {
namespace net {

class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// Error / hangup. The loop treats it as readable (the read will
    /// surface the error or EOF).
    bool error = false;
  };

  /// Opens the epoll instance; an epoll_create1 failure is an IOError.
  static Result<std::unique_ptr<Poller>> Create();

  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Registers `fd` for read and/or write readiness. An fd is registered
  /// at most once; use Modify to change its interest set.
  Status Add(int fd, bool read, bool write);
  Status Modify(int fd, bool read, bool write);
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = indefinitely) and appends ready fds
  /// to `*events` (cleared first). Returns the number of ready fds; 0 on
  /// timeout. EINTR is not an error (returns 0 so the loop re-evaluates).
  Result<int> Wait(std::vector<Event>* events, int timeout_ms);

 private:
  explicit Poller(int epfd) : epfd_(epfd) {}
  Status Control(int op, int fd, bool read, bool write);

  int epfd_;
};

}  // namespace net
}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_NET_POLLER_H_
