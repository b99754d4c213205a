// Load generators and the verdict checker. Each generator thread owns one
// TCP connection to the RA and speaks the envelope protocol directly
// (svc::encode_frame / svc::decode_frame over a nonblocking socket), so an
// open-loop sender never waits for a reply before its next due request.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "client/client.hpp"
#include "crypto/ed25519.hpp"
#include "dict/signed_root.hpp"
#include "inputs.hpp"
#include "svc/envelope.hpp"

namespace perfbench {

/// Envelope client over one nonblocking loopback connection.
class Conn {
 public:
  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void queue(const svc::Request& req) { svc::encode_frame(req, out_); }
  bool want_write() const { return out_off_ < out_.size(); }
  /// Writes what the socket takes; false on a socket error.
  bool flush();
  /// Reads what is available; false on EOF or a socket error.
  bool fill();
  /// Next complete response frame; nullopt when none is buffered.
  /// `broken` is set on a framing error.
  std::optional<svc::Response> pop(bool& broken);
  /// Blocks until readable or writable as needed, at most `timeout_ns`.
  void wait(std::int64_t timeout_ns);

 private:
  int fd_ = -1;
  Bytes out_;
  std::size_t out_off_ = 0;
  Bytes in_;
  std::size_t in_off_ = 0;
};

/// The ground-truth ledger check of one served status: the key's
/// revocation number is known (Key::number), so a status is correct iff it
/// decodes, is signed by the CA, carries a fresh statement, shows presence
/// exactly when number <= the served root's n (with that number in the
/// leaf), and its proof verifies (dict::verify_proof). The verdict part is
/// exact even while the writer races the readers.
class Checker {
 public:
  explicit Checker(std::vector<crypto::PublicKey> keys);

  struct Verdict {
    bool ok = false;
    bool presence = false;
  };
  /// `prove` = false skips only dict::verify_proof (sampled bulk checks).
  Verdict check(ByteSpan status, const Key& key,
                const cert::SerialNumber& serial, bool prove = true);

 private:
  std::vector<crypto::PublicKey> keys_;
  std::vector<dict::SignedRoot> verified_;  // newest verified root per CA
};

inline constexpr std::size_t kMaxPeriods = 64;

/// Canary probes: the writer names the first serial each CA revokes in a
/// period; open-loop generators mix queries for them into their stream and
/// record when one is first served as revoked.
struct Canaries {
  Canaries();
  std::atomic<std::uint64_t> active{0};  // period being probed (0: none)
  std::array<std::array<Key, kCas>, kMaxPeriods> keys{};
  std::array<std::int64_t, kMaxPeriods> revoke_start_ns{};
  std::array<std::atomic<std::int64_t>, kMaxPeriods> first_seen_ns;

  void start(std::uint64_t period, const std::array<Key, kCas>& k,
             std::int64_t t);
  void seen(std::uint64_t period, std::int64_t t);
  /// ms from revoke start to first revoked verdict; nullopt if never seen.
  std::optional<double> visible_ms(std::uint64_t period) const;
};

/// Client-side validation (RitmClient::validate_status_bytes) of served
/// statuses, timed on the generator threads while they would otherwise
/// idle, so the §VII-D client figure is sampled across the whole window.
class Validator {
 public:
  Validator(const Inputs& in, const std::vector<cert::CaId>& ids,
            const std::vector<crypto::PublicKey>& keys);
  /// Validates `status` as served for `key`; returns the time taken (us),
  /// or a negative value when the verdict contradicts `presence`.
  double validate(ByteSpan status, const Key& key, bool presence) const;

 private:
  const Inputs& in_;
  std::vector<cert::CaId> ids_;
  client::RitmClient client_;
};

/// A served status kept for the offline client-side replays.
struct Sample {
  Bytes status;
  Key key;
  bool presence = false;  // the verdict the checker accepted
};

/// What one generator thread measured.
struct GenResult {
  std::vector<double> latency_us;       // per request / per envelope
  std::vector<std::int64_t> latency_at_ns;  // its due/send time in the window
  std::vector<double> latency_on_us;    // traced-run "on" slices
  std::vector<double> late_us;          // open loop: send - due
  std::vector<std::uint32_t> inflight;  // open loop: in flight at each send
  std::uint64_t attempted = 0;          // statuses asked for
  std::uint64_t wrong = 0;              // served, but contradict the ledger
  std::uint64_t errored = 0;            // refused / errored / timed out
  std::uint64_t statuses_in_window = 0; // checked before the window closed
  std::uint64_t backlog = 0;            // in flight when the last was sent
  std::vector<Sample> samples;
  std::vector<double> validate_us;      // client validation times
  std::vector<Key> served_keys;         // traced runs: every served key
};

struct OpenLoop {
  const Inputs* in = nullptr;
  std::uint64_t tag = 0;  // high bits of request ids
  const std::vector<Inputs::Arrival>* arrivals = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t window_ns = 0;       // statuses done by then count for rps
  Canaries* canaries = nullptr;     // may be null
  unsigned canary_every = 4;        // 1 in N sends probes a canary
  const std::atomic<bool>* stop = nullptr;  // may be null: run all arrivals
  const Validator* validator = nullptr;     // may be null
  bool keep_keys = false;
};
void run_open_loop(Conn& conn, const OpenLoop& cfg, Checker& checker,
                   const std::vector<cert::CaId>& ids, GenResult& out);

struct ClosedLoop {
  const Inputs* in = nullptr;
  std::uint64_t tag = 0;
  std::uint64_t rng_seed = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t window = 3;  // envelopes in flight on the connection
  const Validator* validator = nullptr;
  bool keep_keys = false;
};
void run_closed_loop(Conn& conn, const ClosedLoop& cfg, Checker& checker,
                     const std::vector<cert::CaId>& ids, GenResult& out);

}  // namespace perfbench
