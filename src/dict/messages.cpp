#include "dict/messages.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/io.hpp"

namespace ritm::dict {

namespace {

void encode_serials(ByteWriter& w, const std::vector<cert::SerialNumber>& s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  for (const auto& sn : s) w.var8(ByteSpan(sn.value));
}

std::optional<std::vector<cert::SerialNumber>> decode_serials(ByteReader& r) {
  auto count = r.try_u32();
  if (!count) return std::nullopt;
  std::vector<cert::SerialNumber> out;
  // Bound the reservation by what the input could possibly hold (each
  // serial costs at least 2 bytes) — a forged count must not trigger a
  // huge allocation before the truncation check fails.
  out.reserve(std::min<std::size_t>(*count, r.remaining() / 2));
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto v = cert::read_serial(r);
    if (!v) return std::nullopt;
    out.push_back(cert::SerialNumber{Bytes(v->begin(), v->end())});
  }
  return out;
}

std::optional<crypto::Digest20> decode_digest(ByteReader& r) {
  const auto raw = r.try_span(20);
  if (!raw) return std::nullopt;
  crypto::Digest20 d{};
  std::copy(raw->begin(), raw->end(), d.begin());
  return d;
}

/// A u16-length-prefixed field, in place.
std::optional<ByteSpan> var16_span(ByteReader& r) {
  const auto len = r.try_u16();
  return len ? r.try_span(*len) : std::nullopt;
}

/// Computed length prefixes must keep the overflow guard the old
/// encode-then-var16 pattern had: a >64 KiB nested structure must throw,
/// not silently truncate the prefix.
std::uint16_t checked_u16(std::size_t len) {
  if (len > 0xFFFF) throw std::length_error("message field exceeds 64 KiB");
  return static_cast<std::uint16_t>(len);
}

}  // namespace

Bytes RevocationIssuance::encode() const {
  Bytes out;
  ByteWriter w(out);
  encode_serials(w, serials);
  w.u16(checked_u16(signed_root.wire_size()));
  signed_root.encode_into(out);
  return out;
}

std::optional<RevocationIssuance> RevocationIssuance::decode(ByteSpan data) {
  ByteReader r{data};
  RevocationIssuance m;
  auto serials = decode_serials(r);
  if (!serials) return std::nullopt;
  m.serials = std::move(*serials);
  auto root_bytes = r.try_var16();
  if (!root_bytes) return std::nullopt;
  auto root = SignedRoot::decode(ByteSpan(*root_bytes));
  if (!root) return std::nullopt;
  m.signed_root = std::move(*root);
  if (!r.done()) return std::nullopt;
  return m;
}

Bytes FreshnessStatement::encode() const {
  ByteWriter w;
  w.var8(bytes_of(ca));
  w.raw(ByteSpan(statement.data(), statement.size()));
  return w.take();
}

std::optional<FreshnessStatement> FreshnessStatement::decode(ByteSpan data) {
  ByteReader r{data};
  FreshnessStatement m;
  auto ca = r.try_var8();
  if (!ca) return std::nullopt;
  m.ca.assign(ca->begin(), ca->end());
  auto st = decode_digest(r);
  if (!st) return std::nullopt;
  m.statement = *st;
  if (!r.done()) return std::nullopt;
  return m;
}

void RevocationStatus::encode_into(Bytes& out) const {
  // Length prefixes are computed sizes, so the nested structures encode
  // straight into `out` with no intermediate buffers.
  ByteWriter w(out);
  w.u16(checked_u16(proof.wire_size()));
  proof.encode_into(out);
  w.u16(checked_u16(signed_root.wire_size()));
  signed_root.encode_into(out);
  w.raw(ByteSpan(freshness.data(), freshness.size()));
}

Bytes RevocationStatus::encode() const {
  Bytes out;
  out.reserve(wire_size());
  encode_into(out);
  return out;
}

std::optional<RevocationStatus> RevocationStatus::decode(ByteSpan data) {
  const auto view = StatusView::parse(data);
  if (!view) return std::nullopt;
  return view->materialize();
}

std::optional<StatusView> StatusView::parse(ByteSpan data) {
  ByteReader r{data};
  const auto proof_bytes = var16_span(r);
  const auto proof =
      proof_bytes ? ProofView::parse(*proof_bytes) : std::nullopt;
  const auto root_bytes = proof ? var16_span(r) : std::nullopt;
  const auto root =
      root_bytes ? SignedRootView::parse(*root_bytes) : std::nullopt;
  const auto fresh = root ? decode_digest(r) : std::nullopt;
  if (!fresh || !r.done()) return std::nullopt;
  return StatusView{*proof, *root, *fresh};
}

RevocationStatus StatusView::materialize() const {
  return {proof.materialize(), signed_root.materialize(), freshness};
}

Bytes SyncRequest::encode() const {
  ByteWriter w;
  w.var8(bytes_of(ca));
  w.u64(have_n);
  return w.take();
}

std::optional<SyncRequest> SyncRequest::decode(ByteSpan data) {
  ByteReader r{data};
  SyncRequest m;
  auto ca = r.try_var8();
  if (!ca) return std::nullopt;
  m.ca.assign(ca->begin(), ca->end());
  auto n = r.try_u64();
  if (!n) return std::nullopt;
  m.have_n = *n;
  if (!r.done()) return std::nullopt;
  return m;
}

std::size_t SyncResponse::wire_size() const noexcept {
  std::size_t total = 1 + ca.size() + 4;
  for (const auto& e : entries) total += 1 + e.serial.value.size() + 8;
  return total + 2 + signed_root.wire_size() + 20;
}

void SyncResponse::encode_into(Bytes& out) const {
  ByteWriter w(out);
  w.var8(bytes_of(ca));
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    w.var8(ByteSpan(e.serial.value));
    w.u64(e.number);
  }
  w.u16(checked_u16(signed_root.wire_size()));
  signed_root.encode_into(out);
  w.raw(ByteSpan(freshness.data(), freshness.size()));
}

Bytes SyncResponse::encode() const {
  Bytes out;
  out.reserve(wire_size());
  encode_into(out);
  return out;
}

std::optional<SyncResponse> SyncResponse::decode(ByteSpan data) {
  ByteReader r{data};
  SyncResponse m;
  auto ca = r.try_var8();
  if (!ca) return std::nullopt;
  m.ca.assign(ca->begin(), ca->end());
  auto count = r.try_u32();
  if (!count) return std::nullopt;
  // Each entry costs at least 10 bytes on the wire; bound the reservation.
  m.entries.reserve(std::min<std::size_t>(*count, r.remaining() / 10));
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto serial = cert::read_serial(r);
    const auto number = serial ? r.try_u64() : std::nullopt;
    if (!number) return std::nullopt;
    m.entries.push_back(
        Entry{cert::SerialNumber{Bytes(serial->begin(), serial->end())},
              *number});
  }
  auto root_bytes = r.try_var16();
  if (!root_bytes) return std::nullopt;
  auto root = SignedRoot::decode(ByteSpan(*root_bytes));
  if (!root) return std::nullopt;
  m.signed_root = std::move(*root);
  auto fresh = decode_digest(r);
  if (!fresh) return std::nullopt;
  m.freshness = *fresh;
  if (!r.done()) return std::nullopt;
  return m;
}

}  // namespace ritm::dict
