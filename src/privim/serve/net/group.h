// Multi-loop SO_REUSEPORT listener group.
//
// A NetServerGroup runs N independent NetServer event loops — each with
// its own epoll fd and its own accept socket bound to the SAME port via
// SO_REUSEPORT — all submitting into one shared InfluenceService. The
// kernel balances incoming connections across the accept sockets, so the
// single-threaded-loop bottleneck (read/parse/write on one core) scales
// out without any cross-loop locking: a connection lives its whole life
// on the loop that accepted it.
//
// Binding order resolves ephemeral ports: loop 0 binds first (possibly
// port 0), its concrete port is read back, and the remaining loops bind
// that concrete port. bound_address() is therefore the one address every
// loop shares.
//
// Each loop records its own serve.net.loopK.* metric family next to the
// shared serve.net.* totals, so per-loop balance is observable.
//
// Shutdown fans out: RequestShutdown() (async-signal-safe) asks every
// loop to drain; Run() returns once all loops have finished their drains.
// The drain guarantee is per loop and therefore holds for the group —
// every admitted request on every loop is answered before Run() returns.

#ifndef PRIVIM_SERVE_NET_GROUP_H_
#define PRIVIM_SERVE_NET_GROUP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "privim/common/status.h"
#include "privim/serve/net/server.h"

namespace privim {
namespace serve {
namespace net {

struct NetServerGroupOptions {
  /// Per-loop server options. `listen.port` 0 is resolved by loop 0's
  /// bind; reuse_port and metrics_scope are managed by the group.
  NetServerOptions server;
  /// Event loops (>= 1). 1 degenerates to a single NetServer without
  /// SO_REUSEPORT, so existing single-loop deployments are unchanged.
  int64_t loops = 1;

  Status Validate() const;
};

/// N event loops sharing one port and one InfluenceService.
class NetServerGroup {
 public:
  /// Binds every loop's socket immediately (so the shared ephemeral port
  /// is known before Run()). `service` must be started and outlive the
  /// group.
  static Result<std::unique_ptr<NetServerGroup>> Create(
      InfluenceService* service, const NetServerGroupOptions& options);

  NetServerGroup(const NetServerGroup&) = delete;
  NetServerGroup& operator=(const NetServerGroup&) = delete;

  /// The shared bound address (port 0 resolved).
  const HostPort& bound_address() const {
    return servers_.front()->bound_address();
  }

  int64_t loops() const { return static_cast<int64_t>(servers_.size()); }

  /// Runs loop 0 on the calling thread and loops 1..N-1 on their own
  /// threads; returns after every loop has drained (OK) or with the first
  /// fatal loop error (the other loops are shut down first either way).
  Status Run();

  /// Fans the graceful-drain request out to every loop. Async-signal-safe
  /// and idempotent.
  void RequestShutdown();

  /// Stats summed over the loops (open_connections included: a point-in-
  /// time sum).
  NetServerStats GetStats() const;

 private:
  NetServerGroup() = default;

  std::vector<std::unique_ptr<NetServer>> servers_;
};

}  // namespace net
}  // namespace serve
}  // namespace privim

#endif  // PRIVIM_SERVE_NET_GROUP_H_
