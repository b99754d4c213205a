#include "svc/service.hpp"

namespace ritm::svc {

Response reject(const Request& req, Status status) {
  Response resp;
  resp.status = status;
  resp.request_id = req.request_id;
  return resp;
}

ServerReply serve_bytes(Service& service, ByteSpan stream,
                        std::uint32_t max_frame) {
  ServerReply reply;
  const DecodedFrame d = decode_frame(stream, max_frame);
  if (d.status == Status::truncated) {
    reply.need_more = true;
    return reply;
  }
  if (d.status != Status::ok) {
    // Fatal framing violation: the stream cannot be resynchronized (the
    // length field itself is untrustworthy), so answer with request_id 0
    // and tell the transport to close.
    Response err;
    err.status = d.status;
    encode_frame(err, reply.frame);
    reply.fatal = true;
    return reply;
  }
  reply.consumed = d.consumed;
  if (!d.is_request) {
    // A response frame arriving at a server: protocol confusion, fatal.
    Response err;
    err.status = Status::bad_frame;
    err.request_id = d.response.request_id;
    encode_frame(err, reply.frame);
    reply.fatal = true;
    return reply;
  }
  if (d.request.version != kProtocolVersion) {
    encode_frame(reject(d.request, Status::version_skew), reply.frame);
    return reply;
  }
  Response served = service.handle(d.request);
  served.request_id = d.request.request_id;
  served.version = kProtocolVersion;
  encode_frame(served, reply.frame);
  return reply;
}

}  // namespace ritm::svc
