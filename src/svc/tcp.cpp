#include "svc/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

namespace ritm::svc {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Milliseconds left of `budget_ms` since `start`.
int remaining_ms(std::chrono::steady_clock::time_point start, int budget_ms) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return budget_ms - int(elapsed);
}

std::uint64_t mono_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void wake(int event_fd) {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(event_fd, &one, sizeof(one));
}

void drain_eventfd(int event_fd) {
  std::uint64_t drain;
  [[maybe_unused]] ssize_t n = read(event_fd, &drain, sizeof(drain));
}

void pin_to_core(unsigned index) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cores, &set);
  // Best effort: a denied affinity call (containers, cpusets) just leaves
  // the thread where the scheduler wants it.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

constexpr std::size_t kMaxWritevIov = 64;

/// Ceiling on the connect() portion of a client call's deadline: a dead
/// host fails fast instead of eating the whole call budget.
constexpr int kConnectTimeoutMs = 5'000;

}  // namespace

// ---------------------------------------------------------------- TcpServer

TcpServer::TcpServer(Service* service, TcpServerOptions opts)
    : service_(service), opts_(opts) {
  if (service_ == nullptr) {
    throw std::invalid_argument("TcpServer: null service");
  }
  const unsigned n =
      opts_.reactors != 0
          ? opts_.reactors
          : std::max(1u, std::thread::hardware_concurrency());
  reactors_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>());
    reactors_.back()->index = i;
  }

  // No thread runs yet, so stop() only closes the fds made so far.
  const auto fail = [&](const std::string& what) -> std::runtime_error {
    stop();
    return std::runtime_error("TcpServer: " + what);
  };

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) throw fail("socket failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(opts_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      listen(listen_fd_, 128) != 0) {
    throw fail("bind/listen failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  acceptor_wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (acceptor_wake_fd_ < 0) throw fail("eventfd failed");

  for (auto& r : reactors_) {
    r->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    r->wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (r->epoll_fd < 0 || r->wake_fd < 0) {
      throw fail("epoll/eventfd setup failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = r->wake_fd;
    epoll_ctl(r->epoll_fd, EPOLL_CTL_ADD, r->wake_fd, &ev);
  }

  running_.store(true, std::memory_order_release);
  for (auto& r : reactors_) {
    Reactor* rp = r.get();
    r->thread = std::thread([this, rp] { reactor_loop(*rp); });
  }
  acceptor_thread_ = std::thread([this] { acceptor_loop(); });
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  const bool was_running = running_.exchange(false);
  if (was_running) {
    if (acceptor_thread_.joinable()) {
      wake(acceptor_wake_fd_);
      acceptor_thread_.join();
    }
    for (auto& r : reactors_) {
      if (r->thread.joinable()) {
        wake(r->wake_fd);
        r->thread.join();
      }
    }
  }
  for (auto& r : reactors_) {
    for (auto& [fd, conn] : r->connections) ::close(fd);
    r->connections.clear();
    // Adopt-queued fds that never reached a reactor still need closing.
    for (int fd : r->handoff) ::close(fd);
    r->handoff.clear();
    if (r->epoll_fd >= 0) ::close(r->epoll_fd);
    if (r->wake_fd >= 0) ::close(r->wake_fd);
    r->epoll_fd = r->wake_fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (acceptor_wake_fd_ >= 0) ::close(acceptor_wake_fd_);
  listen_fd_ = acceptor_wake_fd_ = -1;
  live_connections_.store(0, std::memory_order_release);
}

TcpServer::Stats TcpServer::stats() const {
  Stats s;
  for (const auto& r : reactors_) {
    const Counters& c = r->counters;
    s.accepted += c.accepted.load(std::memory_order_acquire);
    s.shed_over_limit += c.shed_over_limit.load(std::memory_order_acquire);
    s.requests += c.requests.load(std::memory_order_acquire);
    s.fatal_frames += c.fatal_frames.load(std::memory_order_acquire);
    s.backpressure_pauses +=
        c.backpressure_pauses.load(std::memory_order_acquire);
    s.throttled += c.throttled.load(std::memory_order_acquire);
    s.idle_closed += c.idle_closed.load(std::memory_order_acquire);
    s.bytes_in += c.bytes_in.load(std::memory_order_acquire);
    s.bytes_out += c.bytes_out.load(std::memory_order_acquire);
  }
  return s;
}

bool TcpServer::admit(int fd) {
  // Reserve a slot first and release it on a shed: the reactors decrement
  // the count as connections close, with no lock on either path.
  const std::size_t prev =
      live_connections_.fetch_add(1, std::memory_order_acq_rel);
  if (prev < opts_.max_connections) return true;
  live_connections_.fetch_sub(1, std::memory_order_acq_rel);
  // Shed: answer with one overloaded envelope, then close. The client sees
  // a clean protocol-level refusal instead of a RST. Counted before the
  // write so the stat is visible by the time a peer can observe the
  // refusal.
  reactors_.front()->counters.shed_over_limit.fetch_add(
      1, std::memory_order_release);
  Response shed;
  shed.status = Status::overloaded;
  shed.body = encode_retry_after(opts_.retry_after_ms);
  const Bytes frame = encode_frame(shed);
  [[maybe_unused]] ssize_t w = write(fd, frame.data(), frame.size());
  ::close(fd);
  return false;
}

void TcpServer::adopt(Reactor& r, int fd) {
  set_nodelay(fd);
  Connection conn;
  conn.req_tokens = double(opts_.burst_requests);
  conn.last_refill_ms = conn.last_progress_ms = mono_ms();
  r.connections.emplace(fd, std::move(conn));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  r.counters.accepted.fetch_add(1, std::memory_order_release);
}

void TcpServer::acceptor_loop() {
  // This thread owns the only listener and spreads accepted fds across
  // reactors round-robin; each handoff is one queue push and one eventfd
  // write.
  std::size_t next = 0;
  pollfd pfds[2] = {{listen_fd_, POLLIN, 0}, {acceptor_wake_fd_, POLLIN, 0}};
  while (running_.load(std::memory_order_acquire)) {
    const int pr = poll(pfds, 2, 200);
    if (pr < 0 && errno != EINTR) break;
    if (pfds[1].revents & POLLIN) drain_eventfd(acceptor_wake_fd_);
    while (running_.load(std::memory_order_acquire)) {
      const int fd = accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN or transient error: done for this round
      if (!admit(fd)) continue;
      Reactor& r = *reactors_[next++ % reactors_.size()];
      {
        std::lock_guard<std::mutex> lock(r.handoff_mu);
        r.handoff.push_back(fd);
      }
      wake(r.wake_fd);
    }
  }
}

void TcpServer::reactor_loop(Reactor& r) {
  pin_to_core(r.index);
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    const int timeout = sweep(r, mono_ms());
    const int n = epoll_wait(r.epoll_fd, events, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n && running_.load(std::memory_order_acquire); ++i) {
      const int fd = events[i].data.fd;
      if (fd == r.wake_fd) {
        drain_eventfd(r.wake_fd);
        // Adopt any fds the acceptor handed over while we slept.
        std::vector<int> adopted;
        {
          std::lock_guard<std::mutex> lock(r.handoff_mu);
          adopted.swap(r.handoff);
        }
        for (int afd : adopted) adopt(r, afd);
        continue;
      }
      auto it = r.connections.find(fd);
      if (it == r.connections.end()) continue;
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(r, fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) alive = write_ready(r, fd, it->second);
      if (alive && (events[i].events & EPOLLIN)) {
        alive = read_ready(r, fd, it->second);
      }
      if (alive) update_interest(r, fd, it->second);
    }
  }
}

void TcpServer::refill(Connection& c, std::uint64_t now_ms) {
  const double dt = double(now_ms - c.last_refill_ms) / 1000.0;
  c.last_refill_ms = now_ms;
  c.req_tokens = std::min(c.req_tokens + dt * opts_.requests_per_sec,
                          double(opts_.burst_requests));
}

int TcpServer::sweep(Reactor& r, std::uint64_t now_ms) {
  int timeout = 200;
  if (opts_.idle_timeout_ms == 0) {
    bool any_throttled = false;
    for (auto& [fd, c] : r.connections) any_throttled |= c.throttled;
    if (!any_throttled) {
      // Fast path: nothing timed is pending on any connection.
      return timeout;
    }
  }
  std::vector<int> idle;
  for (auto& [fd, c] : r.connections) {
    if (c.throttled) {
      if (now_ms >= c.throttled_until_ms) {
        c.throttled = false;
        update_interest(r, fd, c);
      } else {
        timeout = std::min<int>(
            timeout, std::max<int>(int(c.throttled_until_ms - now_ms), 10));
      }
    }
    if (opts_.idle_timeout_ms != 0 &&
        now_ms - c.last_progress_ms >= opts_.idle_timeout_ms) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    // Counted before the close so the stat is visible by the time the peer
    // can observe its EOF.
    r.counters.idle_closed.fetch_add(1, std::memory_order_release);
    close_connection(r, fd);
  }
  return timeout;
}

bool TcpServer::read_ready(Reactor& r, int fd, Connection& c) {
  std::uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n == 0) {  // peer closed
      close_connection(r, fd);
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(r, fd);
      return false;
    }
    c.in.insert(c.in.end(), buf, buf + n);
    r.counters.bytes_in.fetch_add(std::uint64_t(n),
                                  std::memory_order_release);
    if (c.in.size() > sizeof(buf)) break;  // give other fds a turn
  }

  // Dispatch every complete frame buffered so far. Responses are queued
  // per frame and flushed together with writev below — a pipelined burst
  // costs one flush, not one write syscall per response.
  const bool quota = opts_.requests_per_sec > 0.0;
  std::size_t offset = 0;
  while (!c.close_after_flush) {
    const ByteSpan pending(c.in.data() + offset, c.in.size() - offset);
    if (quota) {
      // Peek the next frame so the quota applies before the service runs.
      // A well-formed request past quota gets an `overloaded` envelope with
      // a retry_after hint computed from the bucket deficit, and the
      // connection stops being read until the bucket refills; malformed
      // frames fall through to serve_bytes' normal error handling.
      const std::uint64_t now = mono_ms();
      refill(c, now);
      const DecodedFrame d = decode_frame(pending);
      if (d.status == Status::truncated) break;
      if (d.status == Status::ok && d.is_request) {
        if (c.req_tokens < 1.0) {
          const double wait_s = (1.0 - c.req_tokens) / opts_.requests_per_sec;
          // Floor the pause at retry_after_ms: a pipelining flooder would
          // otherwise be re-read every bucket tick (~1ms at typical rates)
          // and the refusal churn alone could crowd out compliant
          // connections. The hint matches the pause — the server really
          // won't read this connection again any sooner.
          const auto wait_ms = std::uint32_t(std::min(
              std::max(wait_s * 1000.0 + 1.0, double(opts_.retry_after_ms)),
              60'000.0));
          Response resp;
          resp.status = Status::overloaded;
          resp.request_id = d.request.request_id;
          resp.body = encode_retry_after(wait_ms);
          Bytes frame = encode_frame(resp);
          c.out_bytes += frame.size();
          c.outq.push_back(std::move(frame));
          offset += d.consumed;
          c.last_progress_ms = now;
          c.throttled = true;
          c.throttled_until_ms = std::max(c.throttled_until_ms,
                                          now + std::uint64_t(wait_ms));
          r.counters.throttled.fetch_add(1, std::memory_order_release);
          continue;
        }
        c.req_tokens -= 1.0;
      }
    }
    ServerReply reply = serve_bytes(*service_, pending);
    if (reply.need_more) break;
    offset += reply.consumed;
    c.last_progress_ms = mono_ms();
    c.out_bytes += reply.frame.size();
    c.outq.push_back(std::move(reply.frame));
    if (reply.fatal) {
      r.counters.fatal_frames.fetch_add(1, std::memory_order_release);
      c.close_after_flush = true;
    } else {
      r.counters.requests.fetch_add(1, std::memory_order_release);
    }
  }
  if (offset > 0) c.in.erase(c.in.begin(), c.in.begin() + offset);
  return write_ready(r, fd, c);
}

bool TcpServer::write_ready(Reactor& r, int fd, Connection& c) {
  while (c.out_bytes > 0) {
    // Batch the queued response frames into one writev: gather up to
    // kMaxWritevIov frames, honouring the partial write offset of the
    // head frame.
    iovec iov[kMaxWritevIov];
    std::size_t iov_count = 0;
    std::size_t head_skip = c.head_offset;
    for (const Bytes& frame : c.outq) {
      iov[iov_count].iov_base =
          const_cast<std::uint8_t*>(frame.data()) + head_skip;
      iov[iov_count].iov_len = frame.size() - head_skip;
      head_skip = 0;
      if (++iov_count == kMaxWritevIov) break;
    }
    const ssize_t n = writev(fd, iov, static_cast<int>(iov_count));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      close_connection(r, fd);
      return false;
    }
    c.out_bytes -= std::size_t(n);
    r.counters.bytes_out.fetch_add(std::uint64_t(n),
                                   std::memory_order_release);
    // Retire fully written frames from the queue head.
    std::size_t written = std::size_t(n);
    while (written > 0) {
      const std::size_t head_left = c.outq.front().size() - c.head_offset;
      if (written >= head_left) {
        written -= head_left;
        c.outq.pop_front();
        c.head_offset = 0;
      } else {
        c.head_offset += written;
        written = 0;
      }
    }
  }
  if (c.close_after_flush) {
    close_connection(r, fd);
    return false;
  }
  return true;
}

void TcpServer::update_interest(Reactor& r, int fd, Connection& c) {
  // Backpressure: a connection whose responses aren't being drained stops
  // being read until the kernel accepts its pending output.
  const bool want_pause = c.out_bytes > kMaxOutputBuffer;
  if (want_pause && !c.paused) {
    r.counters.backpressure_pauses.fetch_add(1, std::memory_order_release);
  }
  c.paused = want_pause;
  const bool read_on = !c.paused && !c.throttled;
  epoll_event ev{};
  ev.events = (read_on ? std::uint32_t(EPOLLIN) : 0u) |
              (c.out_bytes > 0 ? std::uint32_t(EPOLLOUT) : 0u);
  ev.data.fd = fd;
  epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void TcpServer::close_connection(Reactor& r, int fd) {
  // Bookkeeping first: the peer observes EOF the instant ::close runs, and
  // connection_count() must already reflect the close by then.
  epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  r.connections.erase(fd);
  live_connections_.fetch_sub(1, std::memory_order_acq_rel);
  ::close(fd);
}

// ---------------------------------------------------------------- TcpClient

TcpClient::TcpClient(std::string host, std::uint16_t port,
                     TcpClientOptions opts)
    : host_(std::move(host)), port_(port), opts_(opts) {}

TcpClient::~TcpClient() { close_fd(); }

void TcpClient::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

void TcpClient::fail_inflight(Status s) {
  // One ordered stream: a transport failure invalidates every outstanding
  // request on it. Park poisoned results so each collect() observes the
  // status (and bytes_sent) of its own call.
  for (auto& [id, pending] : inflight_) {
    CallResult r;
    r.status = s;
    r.bytes_sent = pending.bytes_sent;
    done_.emplace(id, std::move(r));
  }
  inflight_.clear();
  close_fd();
}

void TcpClient::disconnect() { fail_inflight(Status::transport_error); }

Status TcpClient::connect_now(int budget_ms) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return Status::transport_error;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    close_fd();
    return Status::transport_error;
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      close_fd();
      return Status::transport_error;
    }
    // Nonblocking connect: poll for writability within the budget, then
    // read back SO_ERROR for the actual outcome.
    pollfd pfd{fd_, POLLOUT, 0};
    int pr;
    do {
      pr = poll(&pfd, 1, budget_ms);
    } while (pr < 0 && errno == EINTR);
    if (pr == 0) {
      close_fd();
      return Status::deadline_exceeded;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (pr < 0 ||
        getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      close_fd();
      return Status::transport_error;
    }
  }
  set_nodelay(fd_);
  return Status::ok;
}

Status TcpClient::read_some(int budget_ms, short events) {
  if (budget_ms <= 0) return Status::deadline_exceeded;
  pollfd pfd{fd_, events, 0};
  const int pr = poll(&pfd, 1, budget_ms);
  if (pr == 0) return Status::deadline_exceeded;
  if (pr < 0) return errno == EINTR ? Status::ok : Status::transport_error;
  if ((pfd.revents & ~POLLOUT) == 0) return Status::ok;  // writable only
  std::uint8_t buf[64 * 1024];
  const ssize_t n = read(fd_, buf, sizeof(buf));
  if (n == 0) return Status::transport_error;  // peer closed
  if (n < 0) {
    return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK
               ? Status::ok
               : Status::transport_error;
  }
  rx_.insert(rx_.end(), buf, buf + n);
  return drain_rx();
}

Status TcpClient::drain_rx() {
  while (true) {
    const DecodedFrame d = decode_frame(ByteSpan(rx_));
    if (d.status == Status::truncated) return Status::ok;  // need more bytes
    if (d.status != Status::ok) return d.status;  // unframeable garbage
    if (d.is_request) return Status::transport_error;  // servers don't ask
    const auto retire = [&](std::uint64_t id, const Pending& p) {
      CallResult r;
      r.response = d.response;
      r.bytes_sent = p.bytes_sent;
      r.bytes_received = d.consumed;
      r.latency_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - p.start)
                         .count();
      done_.emplace(id, std::move(r));
    };
    rx_.erase(rx_.begin(), rx_.begin() + d.consumed);
    const std::uint64_t id = d.response.request_id;
    if (id == 0) {
      // request_id 0 is the server's fatal-framing notice: it addresses the
      // connection, not a call (serve_bytes cannot trust the length field,
      // so it cannot name one). Deliver it verbatim to every outstanding
      // call — the connection is about to die — and drop the link.
      for (const auto& [pid, p] : inflight_) retire(pid, p);
      inflight_.clear();
      close_fd();
      return Status::ok;
    }
    auto it = inflight_.find(id);
    if (it == inflight_.end()) {
      // Out-of-order completion means matching strictly by id: a response
      // for nothing outstanding is a stale duplicate (or a misbehaving
      // server) and is dropped, never delivered to the wrong caller.
      ++stale_dropped_;
    } else {
      retire(id, it->second);
      inflight_.erase(it);
    }
  }
}

Status TcpClient::submit(const Request& req, std::uint64_t* id_out) {
  const auto start = std::chrono::steady_clock::now();
  const auto remaining = [&] { return remaining_ms(start, opts_.timeout_ms); };
  const auto fail = [&](Status s) {
    fail_inflight(s);
    return s;
  };

  Request stamped = req;
  if (stamped.request_id == 0) stamped.request_id = next_id_++;
  if (inflight_.count(stamped.request_id) != 0 ||
      done_.count(stamped.request_id) != 0) {
    // The caller reused an id that is still live on this connection; the
    // response could not be matched unambiguously.
    return Status::transport_error;
  }

  // Admission: past max_inflight, block draining responses until a slot
  // frees (bounds both our tx memory and the parked-response map).
  while (inflight_.size() >= opts_.max_inflight) {
    const Status rs = read_some(remaining(), POLLIN);
    if (rs != Status::ok) return fail(rs);
  }

  if (fd_ < 0) {
    const int budget = std::min(kConnectTimeoutMs, std::max(remaining(), 0));
    const Status cs = connect_now(budget);
    if (cs != Status::ok) return cs;  // nothing inflight was harmed
  }

  const Bytes wire = encode_frame(stamped);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = write(fd_, wire.data() + sent, wire.size() - sent);
    if (n > 0) {
      sent += std::size_t(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The kernel's tx buffer is full — likely because the server is
      // pushing responses while applying read backpressure. Drain our rx
      // side while waiting for tx space or the write side deadlocks
      // against a pipelined server.
      const Status rs = read_some(remaining(), POLLOUT | POLLIN);
      if (rs != Status::ok) return fail(rs);
      continue;
    }
    return fail(Status::transport_error);
  }

  Pending pending;
  pending.start = start;
  pending.bytes_sent = wire.size();
  inflight_.emplace(stamped.request_id, pending);
  if (id_out != nullptr) *id_out = stamped.request_id;
  return Status::ok;
}

CallResult TcpClient::collect(std::uint64_t request_id) {
  const auto take = [&]() -> std::optional<CallResult> {
    auto it = done_.find(request_id);
    if (it == done_.end()) return std::nullopt;
    CallResult r = std::move(it->second);
    done_.erase(it);
    return r;
  };
  if (auto r = take()) return *r;
  if (inflight_.count(request_id) == 0) {
    CallResult r;
    r.status = Status::transport_error;  // never submitted (or collected twice)
    return r;
  }

  const auto start = std::chrono::steady_clock::now();
  while (true) {
    const Status rs = read_some(remaining_ms(start, opts_.timeout_ms), POLLIN);
    if (rs != Status::ok) {
      fail_inflight(rs);
      return *take();
    }
    if (auto r = take()) return *r;
  }
}

CallResult TcpClient::call(const Request& req) {
  std::uint64_t id = 0;
  const Status s = submit(req, &id);
  if (s != Status::ok) {
    CallResult r;
    r.status = s;
    return r;
  }
  return collect(id);
}

}  // namespace ritm::svc
