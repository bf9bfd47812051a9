// Socket-layer tests: HOST:PORT parsing, listener setup with ephemeral
// port resolution, the wakeup fd, and the epoll Poller.

#include "privim/serve/net/socket.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "privim/serve/net/client.h"
#include "privim/serve/net/poller.h"

#include <unistd.h>

namespace privim {
namespace serve {
namespace net {
namespace {

TEST(NetSocketTest, ParseHostPortAcceptsDottedQuadAndLocalhost) {
  Result<HostPort> parsed = ParseHostPort("127.0.0.1:8080");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->host, "127.0.0.1");
  EXPECT_EQ(parsed->port, 8080);

  parsed = ParseHostPort("localhost:0");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->host, "127.0.0.1");
  EXPECT_EQ(parsed->port, 0);
  EXPECT_EQ(parsed->ToString(), "127.0.0.1:0");
}

TEST(NetSocketTest, ParseHostPortRejectsMalformedSpecs) {
  EXPECT_FALSE(ParseHostPort("").ok());
  EXPECT_FALSE(ParseHostPort("no-port").ok());
  EXPECT_FALSE(ParseHostPort(":8080").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:notanumber").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:65536").ok());
  EXPECT_FALSE(ParseHostPort("127.0.0.1:-1").ok());
  EXPECT_FALSE(ParseHostPort("not.an.ip:80").ok());
  EXPECT_FALSE(ParseHostPort("example.com:80").ok());  // no DNS by design
}

TEST(NetSocketTest, OpenListenSocketResolvesEphemeralPort) {
  HostPort bound;
  Result<int> fd =
      OpenListenSocket(HostPort{"127.0.0.1", 0}, /*backlog=*/8, &bound);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  EXPECT_EQ(bound.host, "127.0.0.1");
  EXPECT_GT(bound.port, 0);

  // The resolved port is genuinely connectable.
  BlockingClient client;
  EXPECT_TRUE(client.Connect(bound).ok());
  client.Close();
  ::close(fd.value());
}

TEST(NetSocketTest, WakeupFdNotifyIsVisibleToPollAndCoalesces) {
  WakeupFd wakeup;
  ASSERT_GE(wakeup.read_fd(), 0);

  Result<std::unique_ptr<Poller>> poller = Poller::Create();
  ASSERT_TRUE(poller.ok());
  ASSERT_TRUE(
      poller.value()->Add(wakeup.read_fd(), true, false).ok());

  std::vector<Poller::Event> events;
  // Nothing pending: a zero-timeout wait reports no events.
  Result<int> n = poller.value()->Wait(&events, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);

  wakeup.Notify();
  wakeup.Notify();  // multiple notifications coalesce
  n = poller.value()->Wait(&events, 1000);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1);
  EXPECT_EQ(events[0].fd, wakeup.read_fd());
  EXPECT_TRUE(events[0].readable);

  wakeup.Drain();
  n = poller.value()->Wait(&events, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
}

TEST(NetSocketTest, WakeupFdNotifyFromAnotherThread) {
  WakeupFd wakeup;
  Result<std::unique_ptr<Poller>> poller = Poller::Create();
  ASSERT_TRUE(poller.ok());
  ASSERT_TRUE(
      poller.value()->Add(wakeup.read_fd(), true, false).ok());

  std::thread notifier([&] { wakeup.Notify(); });
  std::vector<Poller::Event> events;
  const Result<int> n = poller.value()->Wait(&events, 5000);
  notifier.join();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1);
}

TEST(NetPollerTest, ReportsReadAndWriteReadinessOnAPipe) {
  Result<std::unique_ptr<Poller>> poller = Poller::Create();
  ASSERT_TRUE(poller.ok()) << poller.status().ToString();

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // The write end of an empty pipe is writable; the read end is not yet
  // readable.
  ASSERT_TRUE(poller.value()->Add(fds[0], true, false).ok());
  ASSERT_TRUE(poller.value()->Add(fds[1], false, true).ok());
  std::vector<Poller::Event> events;
  Result<int> n = poller.value()->Wait(&events, 1000);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1);
  EXPECT_EQ(events[0].fd, fds[1]);
  EXPECT_TRUE(events[0].writable);

  // After a write, the read end becomes readable too.
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  n = poller.value()->Wait(&events, 1000);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2);

  // Dropping write interest leaves only the readable event.
  ASSERT_TRUE(poller.value()->Modify(fds[1], false, false).ok());
  n = poller.value()->Wait(&events, 1000);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1);
  EXPECT_EQ(events[0].fd, fds[0]);
  EXPECT_TRUE(events[0].readable);

  // Removal silences the fd entirely.
  poller.value()->Remove(fds[0]);
  n = poller.value()->Wait(&events, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetPollerTest, ZeroTimeoutDoesNotBlock) {
  Result<std::unique_ptr<Poller>> poller = Poller::Create();
  ASSERT_TRUE(poller.ok());
  std::vector<Poller::Event> events;
  const Result<int> n = poller.value()->Wait(&events, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
}

}  // namespace
}  // namespace net
}  // namespace serve
}  // namespace privim
