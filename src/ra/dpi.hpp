// Deep packet inspection for the RA: classify a packet's payload (non-TLS /
// TLS handshake / application data), pull out the handshake messages RITM
// needs, and notice revocation-status records already attached by an
// upstream RA (the multiple-RA rule of §VIII).
//
// Table III of the paper times these two operations separately:
// "TLS detection (DPI)" — is_tls() on arbitrary payloads — and
// "Certificates parsing (DPI)" — extracting the chain from a server flight.
//
// A status stays in its wire encoding on this path: the RA attaches the
// bytes its status cache holds, and inspect() and strip_status() hand on
// record payloads. A ritm_status record is a status exactly when
// dict::StatusView::parse accepts its payload; any other such record is
// no status, and strip_status() still removes it.
#pragma once

#include <optional>
#include <vector>

#include "sim/packet.hpp"
#include "tls/handshake.hpp"
#include "tls/record.hpp"

namespace ritm::ra {

struct Inspection {
  enum class Kind {
    not_tls,
    tls_other,       // TLS but nothing RITM cares about (CCS, alerts, ...)
    client_hello,
    server_flight,   // ServerHello (+ Certificate for full handshakes)
    finished,
    app_data,
  };

  Kind kind = Kind::not_tls;

  // client_hello
  bool ritm_offered = false;
  Bytes client_session_id;

  // server_flight
  std::optional<tls::ServerHello> server_hello;
  std::optional<cert::Chain> chain;

  // Statuses previous RAs already attached (multi-RA handling), encoded,
  // in packet order.
  std::vector<Bytes> statuses;
};

/// Full inspection of one packet payload.
Inspection inspect(ByteSpan payload);

/// The cheap classification path only ("TLS detection"): true iff the
/// payload parses as TLS records.
bool is_tls(ByteSpan payload) noexcept;

/// Appends an encoded revocation status (the store's status cache holds
/// them) as a ritm_status record (RA -> client piggybacking, §VIII option
/// 1: dedicated content type): one header write plus a memcpy.
void attach_status(sim::Packet& pkt, ByteSpan status);

/// Replaces the statuses of `status`'s CA (multi-RA: "replaces a revocation
/// status only if its own version of the dictionary is more recent"):
/// removes every status record of that CA, then appends `status`. Statuses
/// of other CAs stay where they are.
void replace_status(sim::Packet& pkt, ByteSpan status);

/// Removes all ritm_status records (what a RITM client does before handing
/// the packet to its TLS stack). Returns the statuses among them, encoded,
/// in packet order.
std::vector<Bytes> strip_status(sim::Packet& pkt);

/// Adds the RITM extension to the ServerHello inside a server-flight packet
/// (TLS-terminator deployment, §IV: the terminator confirms RITM support
/// within ServerHello, which TLS integrity-protects against downgrade).
/// Returns false if the payload has no ServerHello.
bool confirm_ritm(sim::Packet& pkt);

}  // namespace ritm::ra
