// api::Server: a TCP endpoint speaking the preference-query wire protocol
// (DESIGN.md §9) on top of an exec::QueryService. This is the process
// boundary of the unified API — every request a connection carries is the
// same QuerySpec an in-process caller would Submit, and the responses are
// byte-faithful QueryResponse encodings, so server-executed queries are
// hash- and logical-I/O-identical to in-process execution (the
// bench_wire_throughput / e2e-test parity gate). It is also the designated
// RPC seam for multi-node sharding: remote shard fetches become api/wire
// frames against exactly this kind of endpoint.
//
// Concurrency model: one acceptor thread plus one thread per connection
// (connections are long-lived clients). A connection thread decodes each
// request and answers kExecute and kNext through the service's
// synchronous entry points (QueryService::SubmitAndWait /
// SessionNextAndWait, DESIGN.md §6): when one of the service's execution
// slots is idle and no queued task waits for one, the query executes on
// the connection thread itself, so an uncontended request crosses only
// the two socket hand-offs; otherwise it waits on the service's work
// queue for a pool thread, like an in-process Submit. Either way at most
// num_workers requests execute at once. A dedicated reaper thread joins
// finished connection threads as they exit (condition-signalled, with a
// periodic timer sweep as backstop), so a long-running server never
// accumulates dead threads or fds between accepts. Sessions opened by a
// connection are closed when it disconnects; Stop() asserts the server
// leaked none.
#ifndef MCN_API_SERVER_H_
#define MCN_API_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "mcn/common/mutex.h"
#include "mcn/common/result.h"
#include "mcn/common/thread_annotations.h"
#include "mcn/common/status.h"
#include "mcn/exec/query_service.h"

namespace mcn::api {

class Server {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
    /// back with port()).
    int port = 0;
    /// Listen backlog.
    int backlog = 64;
    /// SO_RCVTIMEO/SO_SNDTIMEO on accepted connections; 0 = block forever.
    /// With a timeout set, a recv timeout at a frame boundary is treated
    /// as idleness (the connection stays open; the wakeup doubles as a
    /// stop check), while a timeout *mid-frame* or on send means a stalled
    /// or dead peer and drops the connection (DESIGN.md §10).
    int io_timeout_ms = 0;
  };

  /// Binds and starts accepting. `service` must outlive the server.
  static Result<std::unique_ptr<Server>> Start(exec::QueryService* service,
                                               const Options& options);

  /// Stop().
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting, unblocks and joins every connection thread (and the
  /// reaper), and closes their sessions. Aborts (MCN_CHECK) if any wire
  /// session survived its connection — that would be a session-table leak.
  /// Idempotent.
  void Stop();

  /// The bound port (useful with Options::port = 0).
  int port() const { return port_; }

  /// Connections accepted since start.
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Finished connection threads joined by the reaper (not by Stop) —
  /// observable evidence the reaper runs without new accepts.
  uint64_t connections_reaped() const {
    return connections_reaped_.load(std::memory_order_relaxed);
  }

  /// Wire sessions currently open across live connections.
  int64_t sessions_open() const {
    return sessions_open_.load(std::memory_order_relaxed);
  }

 private:
  Server(exec::QueryService* service, int listen_fd, int port,
         const Options& options);

  struct Connection {
    int fd = -1;
    std::thread thread;
    /// Set by the connection thread on exit; a done connection's fd and
    /// thread are reaped by the reaper thread or by Stop.
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ReapLoop();
  void ServeConnection(Connection* connection);
  /// Joins + closes finished connections.
  void ReapFinishedConnections() MCN_REQUIRES(mu_);

  exec::QueryService* service_;
  int listen_fd_;
  int port_;
  Options opts_;
  std::thread acceptor_;
  std::thread reaper_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_reaped_{0};
  /// Open wire sessions (incremented on OpenSession, decremented on close
  /// — explicit or disconnect cleanup). Must be 0 after Stop joins.
  std::atomic<int64_t> sessions_open_{0};
  Mutex mu_;
  CondVar reap_cv_;  ///< signalled when a connection ends
  /// Live connections (fds + threads).
  std::vector<std::unique_ptr<Connection>> connections_ MCN_GUARDED_BY(mu_);
};

}  // namespace mcn::api

#endif  // MCN_API_SERVER_H_
