// Reference revocation-status parser and proof verifier for differential
// tests. It is the owning decode (a fresh buffer for every field and every
// 20-byte sibling) and the two-walk absence check that dict::StatusView and
// the shared-ancestor walk in dict::verify_proof replaced: an absence proof
// with both neighbours reconstructs the root once from each neighbour and
// accepts iff both reach it. Kept only as the oracle the view and the walk
// are compared with (dict_test, client_test), the way ed25519_oracle.hpp
// keeps the old Ed25519 equation check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/io.hpp"
#include "dict/messages.hpp"

namespace ritm::dict::oracle {

inline std::optional<crypto::Digest20> reconstruct_root(
    const LeafProof& proof, std::uint64_t leaf_count) {
  if (leaf_count == 0 || proof.index >= leaf_count) return std::nullopt;
  crypto::Digest20 h = leaf_hash(proof.entry);
  std::uint64_t pos = proof.index;
  std::uint64_t size = leaf_count;
  std::size_t used = 0;
  while (size > 1) {
    const std::uint64_t sibling = pos ^ 1;
    if (sibling < size) {
      if (used >= proof.path.size()) return std::nullopt;
      const crypto::Digest20& s = proof.path[used++];
      h = (pos & 1) ? node_hash(s, h) : node_hash(h, s);
    }
    pos >>= 1;
    size = (size + 1) / 2;
  }
  if (used != proof.path.size()) return std::nullopt;
  return h;
}

inline std::optional<crypto::Digest20> decode_digest(ByteReader& r) {
  auto raw = r.try_raw(20);
  if (!raw) return std::nullopt;
  crypto::Digest20 d{};
  std::copy(raw->begin(), raw->end(), d.begin());
  return d;
}

inline std::optional<LeafProof> decode_leaf_proof(ByteReader& r) {
  LeafProof p;
  auto serial = r.try_var8();
  if (!serial || serial->empty() || serial->size() > cert::kMaxSerialBytes) {
    return std::nullopt;
  }
  p.entry.serial.value = std::move(*serial);
  auto number = r.try_u64();
  auto index = r.try_u64();
  auto steps = number && index ? r.try_u16() : std::nullopt;
  if (!steps) return std::nullopt;
  p.entry.number = *number;
  p.index = *index;
  for (std::uint16_t i = 0; i < *steps; ++i) {
    auto d = decode_digest(r);
    if (!d) return std::nullopt;
    p.path.push_back(*d);
  }
  return p;
}

inline std::optional<Proof> decode_proof(ByteSpan data) {
  ByteReader r{data};
  auto type_byte = r.try_u8();
  if (!type_byte || *type_byte > 1) return std::nullopt;
  Proof p;
  p.type = static_cast<Proof::Type>(*type_byte);
  if (p.type == Proof::Type::presence) {
    auto lp = decode_leaf_proof(r);
    if (!lp) return std::nullopt;
    p.leaf = std::move(*lp);
  } else {
    auto flags = r.try_u8();
    if (!flags || *flags > 3) return std::nullopt;
    if (*flags & 1) {
      auto lp = decode_leaf_proof(r);
      if (!lp) return std::nullopt;
      p.left = std::move(*lp);
    }
    if (*flags & 2) {
      auto lp = decode_leaf_proof(r);
      if (!lp) return std::nullopt;
      p.right = std::move(*lp);
    }
  }
  if (!r.done()) return std::nullopt;
  return p;
}

inline std::optional<SignedRoot> decode_signed_root(ByteSpan data) {
  ByteReader r{data};
  SignedRoot sr;
  auto ca = r.try_var8();
  if (!ca) return std::nullopt;
  sr.ca.assign(ca->begin(), ca->end());
  auto root = decode_digest(r);
  if (!root) return std::nullopt;
  sr.root = *root;
  auto n = r.try_u64();
  if (!n) return std::nullopt;
  sr.n = *n;
  auto anchor = decode_digest(r);
  if (!anchor) return std::nullopt;
  sr.freshness_anchor = *anchor;
  auto t = r.try_u64();
  if (!t) return std::nullopt;
  sr.timestamp = static_cast<UnixSeconds>(*t);
  auto sig = r.try_raw(sr.signature.size());
  if (!sig) return std::nullopt;
  std::copy(sig->begin(), sig->end(), sr.signature.begin());
  if (!r.done()) return std::nullopt;
  return sr;
}

inline std::optional<RevocationStatus> decode_status(ByteSpan data) {
  ByteReader r{data};
  RevocationStatus m;
  auto proof_bytes = r.try_var16();
  if (!proof_bytes) return std::nullopt;
  auto proof = decode_proof(ByteSpan(*proof_bytes));
  if (!proof) return std::nullopt;
  m.proof = std::move(*proof);
  auto root_bytes = r.try_var16();
  if (!root_bytes) return std::nullopt;
  auto root = decode_signed_root(ByteSpan(*root_bytes));
  if (!root) return std::nullopt;
  m.signed_root = std::move(*root);
  auto fresh = decode_digest(r);
  if (!fresh) return std::nullopt;
  m.freshness = *fresh;
  if (!r.done()) return std::nullopt;
  return m;
}

inline bool verify_proof(const Proof& proof, const cert::SerialNumber& serial,
                         const crypto::Digest20& root, std::uint64_t n) {
  const auto cmp = [](const cert::SerialNumber& a,
                      const cert::SerialNumber& b) {
    return ritm::compare(ByteSpan(a.value), ByteSpan(b.value));
  };
  if (proof.type == Proof::Type::presence) {
    if (!proof.leaf || proof.left || proof.right) return false;
    if (cmp(proof.leaf->entry.serial, serial) != 0) return false;
    if (proof.leaf->entry.number == 0 || proof.leaf->entry.number > n) {
      return false;
    }
    const auto r = reconstruct_root(*proof.leaf, n);
    return r && *r == root;
  }
  if (proof.leaf) return false;
  if (n == 0) {
    return !proof.left && !proof.right && root == empty_root();
  }
  if (proof.left && proof.right) {
    if (proof.left->index + 1 != proof.right->index) return false;
    if (cmp(proof.left->entry.serial, serial) >= 0) return false;
    if (cmp(proof.right->entry.serial, serial) <= 0) return false;
    const auto rl = reconstruct_root(*proof.left, n);
    const auto rr = reconstruct_root(*proof.right, n);
    return rl && rr && *rl == root && *rr == root;
  }
  if (proof.right) {
    if (proof.right->index != 0) return false;
    if (cmp(proof.right->entry.serial, serial) <= 0) return false;
    const auto r = reconstruct_root(*proof.right, n);
    return r && *r == root;
  }
  if (proof.left) {
    if (proof.left->index != n - 1) return false;
    if (cmp(proof.left->entry.serial, serial) >= 0) return false;
    const auto r = reconstruct_root(*proof.left, n);
    return r && *r == root;
  }
  return false;
}

}  // namespace ritm::dict::oracle
