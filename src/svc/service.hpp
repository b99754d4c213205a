// The server half of the envelope API: a Service handles decoded Requests;
// serve_bytes() is the one dispatch path every transport funnels through —
// frame validation, version skew, and error-envelope synthesis live here,
// so the in-process and TCP transports answer any request stream with
// byte-identical Response frames by construction (pinned in
// tests/svc_test.cpp).
#pragma once

#include <cstdint>

#include "svc/envelope.hpp"

namespace ritm::svc {

/// Another name for Response, kept only because perfbench's
/// TracedLockService spells it; new code writes Response.
using ServeResult = Response;

class Service {
 public:
  virtual ~Service() = default;

  /// Answers one request. Must not throw: failures become responses with a
  /// non-ok status echoing the request id. Version skew and framing errors
  /// never reach this — serve_bytes() answers those itself. Latency is not
  /// the service's to report: each transport measures its own round trip
  /// (CallResult::latency_ms).
  virtual Response handle(const Request& req) = 0;
};

/// Builds the error response for `req`.
Response reject(const Request& req, Status status);

/// One server dispatch step over the head of a receive stream.
struct ServerReply {
  /// Encoded response frame to transmit (empty when need_more).
  Bytes frame;
  /// Bytes consumed off the stream (0 when need_more or fatal).
  std::size_t consumed = 0;
  /// Incomplete frame: keep the stream, wait for more bytes.
  bool need_more = false;
  /// Framing violation: flush `frame` (the error envelope), then close.
  bool fatal = false;
};

/// Decodes at most one frame from `stream` and answers it with
/// kProtocolVersion: framing errors yield a fatal error envelope, version
/// mismatches a version_skew envelope, response-kind frames (a confused
/// peer) a bad_frame envelope, and valid requests reach `service.handle`. Every transport MUST route
/// server-side bytes through here — it is the single definition of the
/// protocol's error behavior.
ServerReply serve_bytes(Service& service, ByteSpan stream,
                        std::uint32_t max_frame = kMaxFrameBytes);

}  // namespace ritm::svc
