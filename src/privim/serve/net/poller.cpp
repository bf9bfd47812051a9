#include "privim/serve/net/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace privim {
namespace serve {
namespace net {

Result<std::unique_ptr<Poller>> Poller::Create() {
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  return std::unique_ptr<Poller>(new Poller(epfd));
}

Poller::~Poller() { ::close(epfd_); }

Status Poller::Add(int fd, bool read, bool write) {
  return Control(EPOLL_CTL_ADD, fd, read, write);
}

Status Poller::Modify(int fd, bool read, bool write) {
  return Control(EPOLL_CTL_MOD, fd, read, write);
}

void Poller::Remove(int fd) {
  epoll_event unused{};
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &unused);
}

Result<int> Poller::Wait(std::vector<Event>* events, int timeout_ms) {
  events->clear();
  epoll_event ready[128];
  const int n = ::epoll_wait(epfd_, ready, 128, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    return Status::IOError(std::string("epoll_wait: ") +
                           std::strerror(errno));
  }
  events->reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event event;
    event.fd = ready[i].data.fd;
    event.readable = (ready[i].events & EPOLLIN) != 0;
    event.writable = (ready[i].events & EPOLLOUT) != 0;
    event.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(event);
  }
  return n;
}

Status Poller::Control(int op, int fd, bool read, bool write) {
  epoll_event event{};
  event.data.fd = fd;
  if (read) event.events |= EPOLLIN;
  if (write) event.events |= EPOLLOUT;
  if (::epoll_ctl(epfd_, op, fd, &event) != 0) {
    return Status::IOError(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace net
}  // namespace serve
}  // namespace privim
