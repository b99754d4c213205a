#include "cert/certificate.hpp"

#include <stdexcept>

namespace ritm::cert {

SerialNumber SerialNumber::from_uint(std::uint64_t v, std::size_t width) {
  if (width == 0 || width > kMaxSerialBytes) {
    throw std::invalid_argument("SerialNumber width out of range");
  }
  Bytes out(width);
  for (std::size_t i = 0; i < width; ++i) {
    out[width - 1 - i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return SerialNumber{std::move(out)};
}

std::string SerialNumber::to_hex() const { return ritm::to_hex(ByteSpan(value)); }

std::optional<ByteSpan> read_serial(ByteReader& r) {
  const auto len = r.try_u8();
  if (!len || *len == 0 || *len > kMaxSerialBytes) return std::nullopt;
  return r.try_span(*len);
}

Bytes Certificate::tbs() const {
  ByteWriter w;
  w.raw(bytes_of("RITM-CERT-v1"));
  w.var8(ByteSpan(serial.value));
  w.var8(bytes_of(issuer));
  w.var16(bytes_of(subject));
  w.u64(static_cast<std::uint64_t>(not_before));
  w.u64(static_cast<std::uint64_t>(not_after));
  w.raw(ByteSpan(subject_key.data(), subject_key.size()));
  return w.take();
}

Bytes Certificate::encode() const {
  ByteWriter w;
  w.var8(ByteSpan(serial.value));
  w.var8(bytes_of(issuer));
  w.var16(bytes_of(subject));
  w.u64(static_cast<std::uint64_t>(not_before));
  w.u64(static_cast<std::uint64_t>(not_after));
  w.raw(ByteSpan(subject_key.data(), subject_key.size()));
  w.raw(ByteSpan(signature.data(), signature.size()));
  return w.take();
}

std::optional<Certificate> Certificate::decode(ByteSpan data) {
  ByteReader r{data};
  Certificate c;
  const auto serial = read_serial(r);
  if (!serial) return std::nullopt;
  c.serial.value.assign(serial->begin(), serial->end());
  auto issuer = r.try_var8();
  if (!issuer) return std::nullopt;
  c.issuer.assign(issuer->begin(), issuer->end());
  auto subject = r.try_var16();
  if (!subject) return std::nullopt;
  c.subject.assign(subject->begin(), subject->end());
  auto nb = r.try_u64();
  auto na = r.try_u64();
  if (!nb || !na) return std::nullopt;
  c.not_before = static_cast<UnixSeconds>(*nb);
  c.not_after = static_cast<UnixSeconds>(*na);
  auto key = r.try_raw(c.subject_key.size());
  if (!key) return std::nullopt;
  std::copy(key->begin(), key->end(), c.subject_key.begin());
  auto sig = r.try_raw(c.signature.size());
  if (!sig) return std::nullopt;
  std::copy(sig->begin(), sig->end(), c.signature.begin());
  if (!r.done()) return std::nullopt;
  return c;
}

bool Certificate::verify_signature(const crypto::PublicKey& issuer_key) const {
  const Bytes t = tbs();
  return crypto::verify(ByteSpan(t), signature, issuer_key);
}

Bytes encode_chain(const Chain& chain) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(chain.size()));
  for (const auto& c : chain) w.var24(ByteSpan(c.encode()));
  return w.take();
}

std::optional<Chain> decode_chain(ByteSpan data) {
  ByteReader r{data};
  auto count = r.try_u8();
  if (!count) return std::nullopt;
  Chain chain;
  chain.reserve(*count);
  for (std::uint8_t i = 0; i < *count; ++i) {
    auto enc = r.try_var24();
    if (!enc) return std::nullopt;
    auto c = Certificate::decode(ByteSpan(*enc));
    if (!c) return std::nullopt;
    chain.push_back(std::move(*c));
  }
  if (!r.done()) return std::nullopt;
  return chain;
}

void TrustStore::add(const CaId& ca, const crypto::PublicKey& key) {
  for (auto& [id, k] : keys_) {
    if (id == ca) {
      k = key;
      return;
    }
  }
  keys_.emplace_back(ca, key);
}

std::optional<crypto::PublicKey> TrustStore::find(const CaId& ca) const {
  for (const auto& [id, k] : keys_) {
    if (id == ca) return k;
  }
  return std::nullopt;
}

ChainError validate_chain(const Chain& chain, const TrustStore& roots,
                          UnixSeconds now) {
  if (chain.empty()) return ChainError::empty;
  for (const auto& c : chain) {
    if (!c.valid_at(now)) return ChainError::expired;
  }
  // Intermediate links: cert i is issued by cert i+1's subject.
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    if (chain[i].issuer != chain[i + 1].subject) {
      return ChainError::issuer_mismatch;
    }
    if (!chain[i].verify_signature(chain[i + 1].subject_key)) {
      return ChainError::bad_signature;
    }
  }
  // Anchor: the last certificate's issuer must be a trusted CA.
  const auto anchor = roots.find(chain.back().issuer);
  if (!anchor) return ChainError::untrusted_root;
  if (!chain.back().verify_signature(*anchor)) return ChainError::bad_signature;
  return ChainError::ok;
}

}  // namespace ritm::cert
