#include "dict/signed_root.hpp"

#include <algorithm>

#include "common/io.hpp"

namespace ritm::dict {

Bytes SignedRoot::tbs() const {
  ByteWriter w;
  w.raw(bytes_of("RITM-ROOT-v1"));
  w.var8(bytes_of(ca));
  w.raw(ByteSpan(root.data(), root.size()));
  w.u64(n);
  w.raw(ByteSpan(freshness_anchor.data(), freshness_anchor.size()));
  w.u64(static_cast<std::uint64_t>(timestamp));
  return w.take();
}

void SignedRoot::encode_into(Bytes& out) const {
  ByteWriter w(out);
  w.var8(bytes_of(ca));
  w.raw(ByteSpan(root.data(), root.size()));
  w.u64(n);
  w.raw(ByteSpan(freshness_anchor.data(), freshness_anchor.size()));
  w.u64(static_cast<std::uint64_t>(timestamp));
  w.raw(ByteSpan(signature.data(), signature.size()));
}

Bytes SignedRoot::encode() const {
  Bytes out;
  out.reserve(wire_size());
  encode_into(out);
  return out;
}

std::optional<SignedRoot> SignedRoot::decode(ByteSpan data) {
  const auto view = SignedRootView::parse(data);
  if (!view) return std::nullopt;
  return view->materialize();
}

std::optional<SignedRootView> SignedRootView::parse(ByteSpan data) {
  ByteReader r{data};
  SignedRootView v;
  v.wire = data;
  const auto ca_len = r.try_u8();
  const auto ca = ca_len ? r.try_span(*ca_len) : std::nullopt;
  const auto root = ca ? r.try_span(v.root.size()) : std::nullopt;
  const auto n = root ? r.try_u64() : std::nullopt;
  const auto anchor = n ? r.try_span(v.freshness_anchor.size()) : std::nullopt;
  const auto t = anchor ? r.try_u64() : std::nullopt;
  const auto sig = t ? r.try_span(crypto::Signature{}.size()) : std::nullopt;
  if (!sig || !r.done()) return std::nullopt;
  v.ca = *ca;
  std::copy(root->begin(), root->end(), v.root.begin());
  v.n = *n;
  std::copy(anchor->begin(), anchor->end(), v.freshness_anchor.begin());
  v.timestamp = static_cast<UnixSeconds>(*t);
  v.signature = *sig;
  return v;
}

SignedRoot SignedRootView::materialize() const {
  SignedRoot sr;
  sr.ca.assign(ca.begin(), ca.end());
  sr.root = root;
  sr.n = n;
  sr.freshness_anchor = freshness_anchor;
  sr.timestamp = timestamp;
  std::copy(signature.begin(), signature.end(), sr.signature.begin());
  return sr;
}

SignedRoot SignedRoot::make(cert::CaId ca, const crypto::Digest20& root,
                            std::uint64_t n, const crypto::Digest20& anchor,
                            UnixSeconds timestamp, const crypto::Seed& ca_key) {
  SignedRoot sr;
  sr.ca = std::move(ca);
  sr.root = root;
  sr.n = n;
  sr.freshness_anchor = anchor;
  sr.timestamp = timestamp;
  const Bytes t = sr.tbs();
  sr.signature = crypto::sign(ByteSpan(t), ca_key);
  return sr;
}

SignedRoot SignedRoot::make(cert::CaId ca, const crypto::Digest20& root,
                            std::uint64_t n, const crypto::Digest20& anchor,
                            UnixSeconds timestamp, const crypto::KeyPair& kp) {
  SignedRoot sr;
  sr.ca = std::move(ca);
  sr.root = root;
  sr.n = n;
  sr.freshness_anchor = anchor;
  sr.timestamp = timestamp;
  const Bytes t = sr.tbs();
  sr.signature = crypto::sign(ByteSpan(t), kp.seed, kp.public_key);
  return sr;
}

bool SignedRoot::verify(const crypto::PublicKey& ca_key) const {
  const Bytes t = tbs();
  return crypto::verify(ByteSpan(t), signature, ca_key);
}

}  // namespace ritm::dict
