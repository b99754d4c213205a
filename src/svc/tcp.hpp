// Real-network transport for the service envelope: a multi-reactor
// nonblocking epoll server and a pipelined client, speaking exactly the
// frames of svc/envelope.hpp over length-prefixed TCP. This is what lets
// an RA serve status traffic over an actual socket (tools/ritm_serve.cpp)
// instead of only inside the simulator.
//
// Server design (PR 7 multi-reactor):
//   * N reactors (default: one per hardware thread), each a dedicated
//     thread pinned to a core (best effort) running its own epoll loop over
//     its own connection table — no shared mutable state on the request
//     path
//   * listener: every reactor binds its own SO_REUSEPORT listener on the
//     same port, so the kernel spreads accepted connections across
//     reactors with zero cross-thread handoff. Where SO_REUSEPORT is
//     unavailable (or force_fd_handoff is set), one acceptor thread owns a
//     single listener and round-robins accepted fds to reactors through
//     eventfd-signalled handoff queues
//   * per-connection receive buffer fed to svc::serve_bytes — the shared
//     dispatch, so responses are byte-identical to the in-process
//     transport regardless of which reactor serves them
//   * responses are queued per connection and flushed with writev: a
//     drained reactor writes one syscall per readiness event, not one per
//     response (pipelined clients batch dozens of frames per flush)
//   * connection limit: admission is one atomic fetch_add on the global
//     live-connection count; accepts past `max_connections` are answered
//     with an `overloaded` envelope and closed immediately
//   * backpressure: while a connection's pending output exceeds
//     kMaxOutputBuffer (4 MiB), the reactor stops *reading* from it
//     (EPOLLIN off) until the client drains responses — a slow reader
//     stalls only itself, never the server's memory
//   * per-client quota: each connection carries a request-rate token
//     bucket (reactor-local — no quota state is shared across threads); a
//     request past quota is answered with an `overloaded` envelope
//     carrying a retry_after hint, and the connection stops being read
//     until its bucket refills
//   * slow-loris guard: each reactor sweeps its own connections; one that
//     goes `idle_timeout_ms` without completing a frame is closed
//   * stats: per-reactor cache-line-aligned atomic counters, summed only
//     when stats() is read; connection_count() reads one atomic
//   * fatal framing violations (bad CRC, oversized frame, garbage header)
//     flush one error envelope and close the connection
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/transport.hpp"

namespace ritm::svc {

struct TcpServerOptions {
  /// 0 = pick an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  /// Accepts beyond this are shed with Status::overloaded.
  std::size_t max_connections = 64;
  /// Ceiling on a single frame's frame_len.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Per-connection request-rate quota (token bucket, requests/second).
  /// 0 disables the quota.
  double requests_per_sec = 0.0;
  /// Bucket capacity for the request quota (burst allowance).
  std::uint32_t burst_requests = 32;
  /// Close a connection that completes no frame for this long (slow-loris
  /// guard). 0 = never.
  std::uint32_t idle_timeout_ms = 0;
  /// retry_after hint attached to connection-limit sheds, and the minimum
  /// read-pause (and hint) for quota refusals — the deficit-based wait is
  /// floored here so refusal churn stays cheap against pipelining floods.
  std::uint32_t retry_after_ms = 100;
  /// Number of reactor (epoll) threads. 0 = one per hardware thread.
  /// Reactor i is pinned to core i % hardware_concurrency (failures
  /// ignored).
  unsigned reactors = 0;
  /// Test hook: skip SO_REUSEPORT and exercise the acceptor-thread
  /// fd-handoff fallback even where REUSEPORT is available.
  bool force_fd_handoff = false;
};

class TcpServer {
 public:
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t shed_over_limit = 0;  // connections refused at the cap
    std::uint64_t requests = 0;         // frames dispatched to the service
    std::uint64_t fatal_frames = 0;     // connections closed on bad framing
    std::uint64_t backpressure_pauses = 0;
    std::uint64_t throttled = 0;        // frames refused over quota
    std::uint64_t idle_closed = 0;      // slow-loris timeouts
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
  };

  /// Pending-output ceiling per connection before reads pause.
  static constexpr std::size_t kMaxOutputBuffer = 4u << 20;

  /// Binds and listens on 127.0.0.1:`opts.port` and starts the reactor
  /// threads. Throws std::runtime_error when the sockets cannot be set up.
  TcpServer(Service* service, TcpServerOptions opts = {});
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Port actually bound (resolves an ephemeral request).
  std::uint16_t port() const noexcept { return port_; }

  /// Live connection count across all reactors (atomic: admission control
  /// and the reactors update it with fetch_add/fetch_sub).
  std::size_t connection_count() const noexcept {
    return live_connections_.load(std::memory_order_acquire);
  }

  /// Reactor threads actually running.
  unsigned reactor_count() const noexcept {
    return static_cast<unsigned>(reactors_.size());
  }

  /// True when each reactor owns a SO_REUSEPORT listener; false on the
  /// acceptor-thread fd-handoff fallback.
  bool using_reuseport() const noexcept { return reuseport_; }

  /// Sums the per-reactor counters; only this read crosses reactors.
  Stats stats() const;

  /// Stops every reactor (and the acceptor, if any) and closes every fd.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  struct Connection {
    Bytes in;
    /// Response frames pending flush, oldest first; head_offset is how
    /// much of outq.front() has already been written. Flushed with writev.
    std::deque<Bytes> outq;
    std::size_t head_offset = 0;
    std::size_t out_bytes = 0;  // total unsent bytes across outq
    bool close_after_flush = false;
    bool paused = false;     // EPOLLIN removed by backpressure
    bool throttled = false;  // EPOLLIN removed until the quota refills
    double req_tokens = 0.0;
    std::uint64_t last_refill_ms = 0;
    std::uint64_t last_progress_ms = 0;  // last completed frame (or accept)
    std::uint64_t throttled_until_ms = 0;
  };

  /// Per-reactor counters, cache-line separated so reactors never share a
  /// line on the request path. Relaxed increments; stats() sums them.
  struct alignas(64) Counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> shed_over_limit{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> fatal_frames{0};
    std::atomic<std::uint64_t> backpressure_pauses{0};
    std::atomic<std::uint64_t> throttled{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
  };

  struct Reactor {
    unsigned index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    int listen_fd = -1;  // >= 0 only in SO_REUSEPORT mode
    std::thread thread;
    std::map<int, Connection> connections;  // reactor-thread private
    Counters counters;
    // fd-handoff fallback: the acceptor pushes accepted fds here and
    // signals wake_fd; the reactor adopts them on its next wakeup.
    std::mutex handoff_mu;
    std::vector<int> handoff;
  };

  void reactor_loop(Reactor& r);
  void acceptor_loop();
  /// Admission (atomic cap check + shed) for a just-accepted fd; returns
  /// false when the connection was shed. `ctrs` takes the counts.
  bool admit(int fd, Counters& ctrs);
  void adopt(Reactor& r, int fd);
  void accept_ready(Reactor& r);
  bool read_ready(Reactor& r, int fd, Connection& c);   // false = closed
  bool write_ready(Reactor& r, int fd, Connection& c);  // false = closed
  void update_interest(Reactor& r, int fd, Connection& c);
  void close_connection(Reactor& r, int fd);
  /// Tops up `c`'s request bucket; only called while the quota is on.
  void refill(Connection& c, std::uint64_t now_ms);
  /// Unthrottles refilled connections, closes slow-loris ones; returns the
  /// epoll timeout until the next due throttle expiry.
  int sweep(Reactor& r, std::uint64_t now_ms);

  Service* service_;
  TcpServerOptions opts_;
  std::uint16_t port_ = 0;
  bool reuseport_ = false;
  // fd-handoff fallback only:
  int acceptor_listen_fd_ = -1;
  int acceptor_wake_fd_ = -1;
  std::thread acceptor_thread_;
  std::atomic<unsigned> next_reactor_{0};  // round-robin handoff cursor

  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> live_connections_{0};
};

struct TcpClientOptions {
  /// Per-step deadline: submit() (covering connect and write) and
  /// collect() (covering the read) each complete within this budget or
  /// return Status::deadline_exceeded. call() == submit + collect.
  int timeout_ms = 10'000;
  /// Outstanding-request ceiling for the pipelined API; submit() past it
  /// blocks (draining responses) until a slot frees.
  std::size_t max_inflight = 64;
};

/// Envelope client over one TCP connection, pipelined: submit() stamps a
/// request with a fresh request_id and writes it without waiting, and
/// collect() retires any outstanding id — responses arriving out of order
/// are parked until their id is collected, and responses for ids this
/// client never sent (stale duplicates from a misbehaving peer) are
/// dropped and counted. call() is submit + collect, preserving the
/// one-shot blocking semantics the Transport interface promises.
///
/// Failure model: the connection is a single ordered byte stream, so any
/// transport failure (deadline, EOF, unframeable garbage) poisons *every*
/// outstanding request with that status and drops the connection; the
/// next submit reconnects. Not thread-safe — one thread drives a client.
class TcpClient final : public Transport {
 public:
  TcpClient(std::string host, std::uint16_t port, TcpClientOptions opts = {});
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  CallResult call(const Request& req) override;

  /// Stamps (request_id == 0 picks the next id) and sends `req`, blocking
  /// only for connect/write (and for a free slot past max_inflight).
  /// Responses that arrive while waiting are parked for collect(). On
  /// ok, *id_out holds the stamped id. A request_id already outstanding
  /// or parked is refused with transport_error.
  Status submit(const Request& req, std::uint64_t* id_out = nullptr);

  /// Blocks until the response for `request_id` is available (parked or
  /// read now) and returns it. Unknown ids return transport_error.
  CallResult collect(std::uint64_t request_id);

  /// Outstanding submitted requests not yet retired into a result.
  std::size_t inflight() const noexcept { return inflight_.size(); }
  /// Completed results parked and waiting for their collect().
  std::size_t ready() const noexcept { return done_.size(); }
  /// Responses discarded because their request_id matched nothing
  /// outstanding (stale duplicates / server misbehaviour).
  std::uint64_t stale_dropped() const noexcept { return stale_dropped_; }

  bool connected() const noexcept { return fd_ >= 0; }
  /// Drops the connection; outstanding requests are poisoned with
  /// transport_error (collect them to observe it).
  void disconnect();

 private:
  struct Pending {
    std::chrono::steady_clock::time_point start;
    std::size_t bytes_sent = 0;
  };

  Status connect_now(int budget_ms);
  /// Decodes every complete frame in rx_, retiring matching inflight
  /// entries into done_. Returns ok (possibly with frames parked),
  /// truncated semantics folded in; any other status is fatal.
  Status drain_rx();
  /// Poisons every outstanding request with `s` and drops the connection.
  void fail_inflight(Status s);
  void close_fd();

  std::string host_;
  std::uint16_t port_;
  TcpClientOptions opts_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::uint64_t stale_dropped_ = 0;
  std::map<std::uint64_t, Pending> inflight_;
  std::map<std::uint64_t, CallResult> done_;
  Bytes rx_;  // unconsumed bytes from previous reads
};

}  // namespace ritm::svc
