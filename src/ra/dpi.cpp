#include "ra/dpi.hpp"

#include <algorithm>

#include "dict/messages.hpp"

namespace ritm::ra {

namespace {
/// The one acceptance rule for a ritm_status record's payload.
bool is_status(ByteSpan record) {
  return dict::StatusView::parse(record).has_value();
}
}  // namespace

bool is_tls(ByteSpan payload) noexcept {
  if (!tls::looks_like_tls(payload)) return false;
  return tls::decode_records(payload).has_value();
}

Inspection inspect(ByteSpan payload) {
  Inspection out;
  if (!tls::looks_like_tls(payload)) return out;
  auto records = tls::decode_records(payload);
  if (!records) return out;

  out.kind = Inspection::Kind::tls_other;
  for (auto& rec : *records) {
    switch (rec.type) {
      case tls::ContentType::ritm_status:
        if (is_status(ByteSpan(rec.payload))) {
          out.statuses.push_back(std::move(rec.payload));
        }
        break;
      case tls::ContentType::application_data:
        if (out.kind == Inspection::Kind::tls_other) {
          out.kind = Inspection::Kind::app_data;
        }
        break;
      case tls::ContentType::handshake: {
        auto msgs = tls::decode_handshakes(ByteSpan(rec.payload));
        if (!msgs) continue;  // garbled handshake record: ignore
        for (const auto& m : *msgs) {
          switch (m.type) {
            case tls::HandshakeType::client_hello: {
              auto ch = tls::ClientHello::decode_body(ByteSpan(m.body));
              if (ch) {
                out.kind = Inspection::Kind::client_hello;
                out.ritm_offered = ch->offers_ritm();
                out.client_session_id = ch->session_id;
              }
              break;
            }
            case tls::HandshakeType::server_hello: {
              auto sh = tls::ServerHello::decode_body(ByteSpan(m.body));
              if (sh) {
                out.kind = Inspection::Kind::server_flight;
                out.server_hello = std::move(*sh);
              }
              break;
            }
            case tls::HandshakeType::certificate: {
              auto cm = tls::CertificateMsg::decode_body(ByteSpan(m.body));
              if (cm) out.chain = std::move(cm->chain);
              break;
            }
            case tls::HandshakeType::finished:
              if (out.kind == Inspection::Kind::tls_other) {
                out.kind = Inspection::Kind::finished;
              }
              break;
            default:
              break;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

void attach_status(sim::Packet& pkt, ByteSpan status) {
  pkt.payload.reserve(pkt.payload.size() + 5 + status.size());
  tls::encode_record_header_into(tls::ContentType::ritm_status, status.size(),
                                 pkt.payload);
  append(pkt.payload, status);
}

void replace_status(sim::Packet& pkt, ByteSpan status) {
  const auto ours = dict::StatusView::parse(status);
  auto records = tls::decode_records(ByteSpan(pkt.payload));
  if (ours && records) {
    const ByteSpan ca = ours->signed_root.ca;
    Bytes rebuilt;
    rebuilt.reserve(pkt.payload.size());
    for (const auto& rec : *records) {
      if (rec.type == tls::ContentType::ritm_status) {
        const auto theirs = dict::StatusView::parse(ByteSpan(rec.payload));
        if (theirs && std::ranges::equal(theirs->signed_root.ca, ca)) continue;
      }
      tls::encode_record_into(rec, rebuilt);
    }
    pkt.payload = std::move(rebuilt);
  }
  attach_status(pkt, status);
}

bool confirm_ritm(sim::Packet& pkt) {
  auto records = tls::decode_records(ByteSpan(pkt.payload));
  if (!records) return false;
  bool changed = false;
  Bytes rebuilt;
  for (const auto& rec : *records) {
    if (rec.type != tls::ContentType::handshake || changed) {
      tls::encode_record_into(rec, rebuilt);
      continue;
    }
    auto msgs = tls::decode_handshakes(ByteSpan(rec.payload));
    if (!msgs) {
      tls::encode_record_into(rec, rebuilt);
      continue;
    }
    Bytes new_payload;
    for (const auto& m : *msgs) {
      if (m.type == tls::HandshakeType::server_hello && !changed) {
        auto sh = tls::ServerHello::decode_body(ByteSpan(m.body));
        if (sh) {
          if (!sh->confirms_ritm()) {
            sh->extensions.push_back(tls::Extension{tls::kRitmExtension, {}});
          }
          append(new_payload,
                 ByteSpan(tls::encode_handshake(tls::HandshakeType::server_hello,
                                                ByteSpan(sh->encode_body()))));
          changed = true;
          continue;
        }
      }
      append(new_payload, ByteSpan(tls::encode_handshake(m.type,
                                                         ByteSpan(m.body))));
    }
    tls::encode_record_into(
        tls::Record{tls::ContentType::handshake, std::move(new_payload)},
        rebuilt);
  }
  if (changed) pkt.payload = std::move(rebuilt);
  return changed;
}

std::vector<Bytes> strip_status(sim::Packet& pkt) {
  std::vector<Bytes> out;
  auto records = tls::decode_records(ByteSpan(pkt.payload));
  if (!records) return out;
  Bytes rebuilt;
  for (auto& rec : *records) {
    if (rec.type == tls::ContentType::ritm_status) {
      if (is_status(ByteSpan(rec.payload))) {
        out.push_back(std::move(rec.payload));
      }
      continue;
    }
    tls::encode_record_into(rec, rebuilt);
  }
  pkt.payload = std::move(rebuilt);
  return out;
}

}  // namespace ritm::ra
