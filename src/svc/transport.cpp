#include "svc/transport.hpp"

#include <chrono>
#include <stdexcept>

namespace ritm::svc {

InProcessTransport::InProcessTransport(Service* service) : service_(service) {
  if (service_ == nullptr) {
    throw std::invalid_argument("InProcessTransport: null service");
  }
}

CallResult InProcessTransport::call(const Request& req) {
  const auto start = std::chrono::steady_clock::now();
  CallResult result;
  Request stamped = req;
  if (stamped.request_id == 0) stamped.request_id = next_id_++;

  const Bytes wire = encode_frame(stamped);
  result.bytes_sent = wire.size();

  const ServerReply reply = serve_bytes(*service_, ByteSpan(wire));
  result.bytes_received = reply.frame.size();

  DecodedFrame d = decode_frame(ByteSpan(reply.frame));
  if (d.status != Status::ok || d.is_request) {
    result.status = Status::transport_error;
  } else {
    result.response = std::move(d.response);
  }
  result.latency_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return result;
}

}  // namespace ritm::svc
