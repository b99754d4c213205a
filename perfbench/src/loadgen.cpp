#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <stdexcept>

#include "crypto/hash_chain.hpp"
#include "dict/messages.hpp"
#include "ra/service.hpp"
#include "trace.hpp"

namespace perfbench {

// ------------------------------------------------------------------ Conn

Conn::Conn(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    throw std::runtime_error("connect to the RA failed");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

bool Conn::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool Conn::fill() {
  std::uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.insert(in_.end(), buf, buf + n);
    } else if (n == 0) {
      return false;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;
    } else if (errno != EINTR) {
      return false;
    }
  }
}

std::optional<svc::Response> Conn::pop(bool& broken) {
  if (in_off_ == in_.size()) return std::nullopt;
  auto frame = svc::decode_frame(
      ByteSpan(in_.data() + in_off_, in_.size() - in_off_));
  if (frame.status == svc::Status::truncated) {
    if (in_off_ > 0) {
      in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(in_off_));
      in_off_ = 0;
    }
    return std::nullopt;
  }
  if (frame.status != svc::Status::ok || frame.is_request) {
    broken = true;
    return std::nullopt;
  }
  in_off_ += frame.consumed;
  return std::move(frame.response);
}

void Conn::wait(std::int64_t timeout_ns) {
  pollfd p{fd_, static_cast<short>(POLLIN | (want_write() ? POLLOUT : 0)), 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  ::ppoll(&p, 1, &ts, nullptr);
}

// --------------------------------------------------------------- Checker

Checker::Checker(std::vector<crypto::PublicKey> keys)
    : keys_(std::move(keys)), verified_(keys_.size()) {}

Checker::Verdict Checker::check(ByteSpan status, const Key& key,
                                const cert::SerialNumber& serial, bool prove) {
  const auto st = dict::RevocationStatus::decode(status);
  if (!st) return {};
  const dict::SignedRoot& root = st->signed_root;
  dict::SignedRoot& known = verified_[key.ca];
  if (!(known == root)) {
    if (root.ca != Inputs::ca_name(key.ca) || !root.verify(keys_[key.ca])) {
      return {};
    }
    known = root;
  }
  bool fresh = false;
  for (std::size_t p = 0; p <= 2 && !fresh; ++p) {
    fresh = crypto::HashChain::verify(st->freshness, p, root.freshness_anchor);
  }
  if (!fresh) return {};
  const bool presence = st->proof.type == dict::Proof::Type::presence;
  const bool revoked = key.revoked && key.number() <= root.n;
  if (presence != revoked) return {};
  if (presence &&
      (!st->proof.leaf || st->proof.leaf->entry.number != key.number())) {
    return {};
  }
  if (prove && !dict::verify_proof(st->proof, serial, root.root, root.n)) {
    return {};
  }
  return {true, presence};
}

// ------------------------------------------------------------- Validator

namespace {

cert::TrustStore trust(const std::vector<cert::CaId>& ids,
                       const std::vector<crypto::PublicKey>& keys) {
  cert::TrustStore roots;
  for (std::size_t c = 0; c < ids.size(); ++c) roots.add(ids[c], keys[c]);
  return roots;
}

}  // namespace

Validator::Validator(const Inputs& in, const std::vector<cert::CaId>& ids,
                     const std::vector<crypto::PublicKey>& keys)
    : in_(in),
      ids_(ids),
      client_(client::RitmClient::Config{}, trust(ids, keys)) {}

double Validator::validate(ByteSpan status, const Key& key,
                           bool presence) const {
  cert::Certificate leaf;
  leaf.serial = in_.serial(key);
  leaf.issuer = ids_[key.ca];
  // The client's clock reads the served root's period.
  const auto st = dict::RevocationStatus::decode(status);
  const UnixSeconds now = st ? st->signed_root.timestamp : 0;
  const std::int64_t t0 = now_ns();
  const auto verdict = client_.validate_status_bytes(status, leaf, now);
  const double us = static_cast<double>(now_ns() - t0) / 1e3;
  const auto want =
      presence ? client::Verdict::revoked : client::Verdict::accepted;
  return verdict == want ? us : -1.0;
}

// -------------------------------------------------------------- Canaries

Canaries::Canaries() {
  for (auto& t : first_seen_ns) {
    t.store(std::numeric_limits<std::int64_t>::max());
  }
}

void Canaries::start(std::uint64_t period, const std::array<Key, kCas>& k,
                     std::int64_t t) {
  if (period >= kMaxPeriods) throw std::runtime_error("too many periods");
  keys[period] = k;
  revoke_start_ns[period] = t;
  active.store(period, std::memory_order_release);
}

void Canaries::seen(std::uint64_t period, std::int64_t t) {
  auto& slot = first_seen_ns[period];
  std::int64_t cur = slot.load();
  while (t < cur && !slot.compare_exchange_weak(cur, t)) {
  }
}

std::optional<double> Canaries::visible_ms(std::uint64_t period) const {
  const std::int64_t t = first_seen_ns[period].load();
  if (t == std::numeric_limits<std::int64_t>::max()) return std::nullopt;
  return static_cast<double>(t - revoke_start_ns[period]) / 1e6;
}

// ------------------------------------------------------------ generators

namespace {

constexpr std::size_t kSampleEvery = 64;
constexpr std::size_t kMaxSamples = 2048;
constexpr std::size_t kMaxKeptKeys = 50000;
/// Responses handled per loop turn before due sends get their turn, so a
/// burst of replies after a writer stall cannot hold the schedule up.
constexpr int kRepliesPerTurn = 16;
/// bulk_cold verifies the Merkle proof of 1 status in 8 (rotating through
/// envelope positions); every status still gets the full verdict check.
/// Verifying all of them would make the two generator threads, not the RA,
/// the bottleneck of the capacity workload.
constexpr std::size_t kProveEvery = 8;
/// Client validations: at most one per this interval per generator, and
/// (open loop) only when the next send is at least kIdleNs away.
constexpr std::int64_t kValidateEveryNs = 10'000'000;
constexpr std::int64_t kIdleNs = 400'000;

constexpr std::int64_t kDrainNs = 5'000'000'000;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 40) - 1;

void note_wrong(const Key& key, std::uint64_t& wrong) {
  if (wrong++ < 5) {
    std::fprintf(stderr, "wrong verdict: ca %u %s index %llu\n", key.ca,
                 key.revoked ? "revoked" : "never-revoked",
                 static_cast<unsigned long long>(key.index));
  }
}

/// Validates the newest kept sample if it is time to; true if it did.
bool maybe_validate(const Validator* v, GenResult& out,
                    std::int64_t& last_ns) {
  if (v == nullptr || out.samples.empty()) return false;
  const std::int64_t now = now_ns();
  if (now - last_ns < kValidateEveryNs) return false;
  last_ns = now;
  const Sample& s = out.samples[out.validate_us.size() % out.samples.size()];
  const double us = v->validate(ByteSpan(s.status), s.key, s.presence);
  if (us < 0) {
    note_wrong(s.key, out.wrong);
  } else {
    out.validate_us.push_back(us);
  }
  return true;
}

void keep(GenResult& out, std::uint64_t checked, ByteSpan status,
          const Key& key, bool presence, bool keep_keys) {
  if (checked % kSampleEvery == 0 && out.samples.size() < kMaxSamples) {
    out.samples.push_back(
        Sample{Bytes(status.begin(), status.end()), key, presence});
  }
  if (keep_keys && out.served_keys.size() < kMaxKeptKeys) {
    out.served_keys.push_back(key);
  }
}

}  // namespace

void run_open_loop(Conn& conn, const OpenLoop& cfg, Checker& checker,
                   const std::vector<cert::CaId>& ids, GenResult& out) {
  const auto& arrivals = *cfg.arrivals;
  const std::size_t n = arrivals.size();
  struct Slot {
    Key key;
    std::int64_t sent_ns = 0;
    std::uint64_t canary = 0;
    bool on = false;
    bool done = false;
  };
  std::vector<Slot> slots(n);
  std::array<bool, kMaxPeriods> seen_local{};
  const std::int64_t start = cfg.start_ns;
  std::size_t next = 0;
  std::uint64_t outstanding = 0;
  std::uint64_t checked = 0;
  unsigned rotation = 0;
  bool all_sent = false;
  bool broken = false;
  std::int64_t drain_deadline = 0;
  std::int64_t last_validate = 0;

  while (true) {
    std::int64_t now = now_ns() - start;
    const bool stopping = cfg.stop != nullptr && cfg.stop->load();
    while (!stopping && next < n && arrivals[next].due_ns <= now) {
      Slot& s = slots[next];
      s.key = arrivals[next].key;
      if (cfg.canaries != nullptr && next % cfg.canary_every == 0) {
        const std::uint64_t p =
            cfg.canaries->active.load(std::memory_order_acquire);
        if (p != 0 && !seen_local[p]) {
          s.key = cfg.canaries->keys[p][rotation++ % kCas];
          s.canary = p;
        }
      }
      svc::Request req;
      req.method = svc::Method::status_query;
      req.request_id = cfg.tag | (next + 1);
      req.body = ra::encode_status_query(ids[s.key.ca], cfg.in->serial(s.key));
      conn.queue(req);
      s.sent_ns = now;
      s.on = tracer().slice_on();
      out.late_us.push_back(
          static_cast<double>(now - arrivals[next].due_ns) / 1e3);
      out.inflight.push_back(static_cast<std::uint32_t>(outstanding));
      ++outstanding;
      ++next;
      out.attempted += 1;
    }
    if (!all_sent && (next == n || stopping)) {
      all_sent = true;
      out.backlog = outstanding;
      drain_deadline = now + kDrainNs;
    }
    if (conn.want_write() && !conn.flush()) broken = true;
    if (!broken && !conn.fill()) broken = true;
    int replies = 0;
    while (!(replies == kRepliesPerTurn && !all_sent &&
             arrivals[next].due_ns <= now_ns() - start)) {
      auto resp = conn.pop(broken);
      if (!resp) break;
      ++replies;
      const std::int64_t recv = now_ns() - start;
      const std::uint64_t idx = (resp->request_id & kSeqMask) - 1;
      if ((resp->request_id & ~kSeqMask) != cfg.tag || idx >= next ||
          slots[idx].done) {
        broken = true;
        break;
      }
      Slot& s = slots[idx];
      s.done = true;
      --outstanding;
      if (resp->status != svc::Status::ok) {
        ++out.errored;
      } else {
        const auto verdict = checker.check(ByteSpan(resp->body), s.key,
                                           cfg.in->serial(s.key));
        if (!verdict.ok) {
          note_wrong(s.key, out.wrong);
        } else {
          if (s.canary != 0 && verdict.presence) {
            cfg.canaries->seen(s.canary, start + recv);
            seen_local[s.canary] = true;
          }
          if (recv <= cfg.window_ns) ++out.statuses_in_window;
          keep(out, ++checked, ByteSpan(resp->body), s.key, verdict.presence,
               cfg.keep_keys);
        }
      }
      const double latency =
          static_cast<double>(recv - arrivals[idx].due_ns) / 1e3;
      if (s.on) {
        out.latency_on_us.push_back(latency);
      } else {
        out.latency_us.push_back(latency);
        out.latency_at_ns.push_back(arrivals[idx].due_ns);
      }
      if (s.on) {
        tracer().record("svc.call", start + s.sent_ns, start + recv,
                        resp->request_id);
      }
    }
    if (broken) break;
    if (all_sent && outstanding == 0) break;
    now = now_ns() - start;
    if (all_sent && now > drain_deadline) break;
    const std::int64_t timeout =
        all_sent ? 1'000'000 : arrivals[next].due_ns - now;
    if (timeout > kIdleNs && maybe_validate(cfg.validator, out, last_validate)) {
      continue;
    }
    if (timeout > 0) conn.wait(timeout);
  }
  out.errored += outstanding;  // timed out or lost with the connection
}

void run_closed_loop(Conn& conn, const ClosedLoop& cfg, Checker& checker,
                     const std::vector<cert::CaId>& ids, GenResult& out) {
  struct Envelope {
    std::uint64_t id = 0;
    std::vector<Key> keys;
    std::vector<cert::SerialNumber> serials;
    std::int64_t sent_ns = 0;
    bool on = false;
  };
  Rng rng(cfg.rng_seed);
  std::deque<Envelope> inflight;
  std::uint64_t seq = 0;
  std::uint64_t checked = 0;
  bool broken = false;
  std::int64_t last_validate = 0;

  while (true) {
    const std::int64_t now = now_ns();
    while (inflight.size() < cfg.window && now < cfg.end_ns) {
      Envelope e;
      const std::uint32_t ca = cfg.in->draw_ca(rng);
      for (std::size_t i = 0; i < kBatchSerials; ++i) {
        e.keys.push_back(cfg.in->draw_cold(rng, ca));
        e.serials.push_back(cfg.in->serial(e.keys.back()));
      }
      svc::Request req;
      req.method = svc::Method::status_batch;
      e.id = req.request_id = cfg.tag | ++seq;
      req.body = ra::encode_status_batch(ids[ca], e.serials);
      conn.queue(req);
      e.sent_ns = now_ns();
      e.on = tracer().slice_on();
      out.attempted += kBatchSerials;
      inflight.push_back(std::move(e));
    }
    if (conn.want_write() && !conn.flush()) broken = true;
    if (!broken && !conn.fill()) broken = true;
    while (auto resp = conn.pop(broken)) {
      const std::int64_t recv = now_ns();
      auto it = std::find_if(inflight.begin(), inflight.end(),
                             [&](const Envelope& e) {
                               return e.id == resp->request_id;
                             });
      if (it == inflight.end()) {
        broken = true;
        break;
      }
      Envelope e = std::move(*it);
      inflight.erase(it);
      const auto statuses =
          resp->status == svc::Status::ok
              ? ra::decode_status_batch_reply(ByteSpan(resp->body))
              : std::nullopt;
      if (!statuses || statuses->size() != e.keys.size()) {
        out.errored += e.keys.size();
      } else {
        for (std::size_t i = 0; i < e.keys.size(); ++i) {
          const ByteSpan status((*statuses)[i]);
          const auto verdict = checker.check(status, e.keys[i], e.serials[i],
                                             (i + seq) % kProveEvery == 0);
          if (!verdict.ok) {
            note_wrong(e.keys[i], out.wrong);
            continue;
          }
          if (recv <= cfg.end_ns) ++out.statuses_in_window;
          keep(out, ++checked, status, e.keys[i], verdict.presence,
               cfg.keep_keys);
        }
      }
      const double latency = static_cast<double>(recv - e.sent_ns) / 1e3;
      if (e.on) {
        out.latency_on_us.push_back(latency);
      } else {
        out.latency_us.push_back(latency);
        out.latency_at_ns.push_back(e.sent_ns - cfg.start_ns);
      }
      if (e.on) {
        tracer().record("svc.call", e.sent_ns, recv, resp->request_id);
      }
    }
    if (broken) break;
    if (now_ns() >= cfg.end_ns && inflight.empty()) break;
    if (now_ns() > cfg.end_ns + kDrainNs) break;
    if (!maybe_validate(cfg.validator, out, last_validate)) conn.wait(1'000'000);
  }
  for (const auto& e : inflight) out.errored += e.keys.size();
}

}  // namespace perfbench
