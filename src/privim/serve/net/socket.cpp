#include "privim/serve/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/eventfd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace privim {
namespace serve {
namespace net {

std::string HostPort::ToString() const {
  return host + ":" + std::to_string(port);
}

Result<HostPort> ParseHostPort(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("expected HOST:PORT, got \"" + spec +
                                   "\"");
  }
  HostPort address;
  address.host = spec.substr(0, colon);
  if (address.host == "localhost") address.host = "127.0.0.1";
  in_addr parsed{};
  if (::inet_pton(AF_INET, address.host.c_str(), &parsed) != 1) {
    return Status::InvalidArgument(
        "host must be an IPv4 address or \"localhost\", got \"" +
        address.host + "\"");
  }
  const std::string port_text = spec.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port < 0 ||
      port > 65535) {
    return Status::InvalidArgument("port must be 0..65535, got \"" +
                                   port_text + "\"");
  }
  address.port = static_cast<int>(port);
  return address;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl(O_NONBLOCK): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> OpenListenSocket(const HostPort& address, int backlog,
                             HostPort* bound, bool reuse_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
#if defined(SO_REUSEPORT)
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
      const Status status = Status::IOError(
          std::string("setsockopt(SO_REUSEPORT): ") + std::strerror(errno));
      ::close(fd);
      return status;
    }
#else
    ::close(fd);
    return Status::Unimplemented("SO_REUSEPORT is not available here; "
                                 "multi-loop listening needs it");
#endif
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(address.port));
  if (::inet_pton(AF_INET, address.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("cannot parse listen host \"" +
                                   address.host + "\"");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::IOError(
        "bind " + address.ToString() + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) < 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (Status status = SetNonBlocking(fd); !status.ok()) {
    ::close(fd);
    return status;
  }
  if (bound != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
      char text[INET_ADDRSTRLEN] = {0};
      ::inet_ntop(AF_INET, &actual.sin_addr, text, sizeof(text));
      bound->host = text;
      bound->port = static_cast<int>(ntohs(actual.sin_port));
    } else {
      *bound = address;
    }
  }
  return fd;
}

int AcceptConnection(int listen_fd, bool* peer_is_loopback) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  const int fd = ::accept(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len);
  if (peer_is_loopback != nullptr) {
    *peer_is_loopback = false;
    if (fd >= 0) {
      if (addr.ss_family == AF_INET) {
        const auto* v4 = reinterpret_cast<const sockaddr_in*>(&addr);
        *peer_is_loopback =
            (ntohl(v4->sin_addr.s_addr) >> 24) == 127;
      } else if (addr.ss_family == AF_INET6) {
        const auto* v6 = reinterpret_cast<const sockaddr_in6*>(&addr);
        *peer_is_loopback =
            IN6_IS_ADDR_LOOPBACK(&v6->sin6_addr) ||
            (IN6_IS_ADDR_V4MAPPED(&v6->sin6_addr) &&
             v6->sin6_addr.s6_addr[12] == 127);
      }
    }
  }
  return fd;
}

WakeupFd::WakeupFd() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) {
    std::perror("privim: wakeup eventfd");
    std::abort();  // an event loop without a wakeup path cannot run at all
  }
}

WakeupFd::~WakeupFd() { ::close(fd_); }

void WakeupFd::Notify() const {
  // write(2) is async-signal-safe; EAGAIN means the counter is saturated,
  // so a wakeup is already pending, which is all a notification needs.
  const uint64_t one = 1;
  ssize_t ignored = ::write(fd_, &one, sizeof(one));
  (void)ignored;
}

void WakeupFd::Drain() const {
  // One read returns the eventfd counter and resets it to zero.
  uint64_t count = 0;
  ssize_t ignored = ::read(fd_, &count, sizeof(count));
  (void)ignored;
}

}  // namespace net
}  // namespace serve
}  // namespace privim
