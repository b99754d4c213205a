// The client half of the envelope API: a Transport carries one encoded
// Request to a Service and brings the Response back, reporting the
// measured round-trip time and byte counts of each call.
//
// Two implementations ship:
//   * InProcessTransport (here) — full encode -> serve_bytes -> decode
//     round trip in memory, timed from encode to decode.
//   * TcpClient (svc/tcp.hpp) — the same frames over a real nonblocking
//     socket, timed from submit to the matching response.
//
// Both go through the byte-level framing — there is no "shortcut" path
// that could let in-process behavior drift from the wire.
#pragma once

#include <cstdint>

#include "svc/service.hpp"

namespace ritm::svc {

/// Outcome of one call. `status` is the *transport* verdict: ok means a
/// response envelope came back (whose own `status` carries the
/// application verdict); anything else means the envelope never made the
/// round trip (socket error, fatal framing, timeout).
struct CallResult {
  Status status = Status::ok;
  Response response;
  double latency_ms = 0.0;  // measured wall-clock round trip
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;

  bool ok() const noexcept {
    return status == Status::ok && response.status == Status::ok;
  }

  /// The failure code of a non-ok call: the transport verdict when the
  /// round trip itself failed, the served status otherwise. (Status::ok
  /// when the call succeeded.)
  Status error() const noexcept {
    return status != Status::ok ? status : response.status;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one request, blocks for its response. A request_id of 0 is
  /// stamped with the transport's next sequence number (1, 2, ...) —
  /// deterministic, so identical request streams produce identical frames
  /// on every transport.
  virtual CallResult call(const Request& req) = 0;
};

/// Loopback transport: frames the request, runs the shared server dispatch
/// against `service`, and decodes the response frame — byte-for-byte what a
/// socket would carry, minus the socket.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(Service* service);

  CallResult call(const Request& req) override;

 private:
  Service* service_;
  std::uint64_t next_id_ = 1;
};

}  // namespace ritm::svc
