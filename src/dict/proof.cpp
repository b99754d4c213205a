#include "dict/proof.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/io.hpp"

namespace ritm::dict {

std::size_t encode_leaf_preimage(const Entry& e, std::uint8_t* buf) noexcept {
  return encode_leaf_preimage(ByteSpan(e.serial.value), e.number, buf);
}

std::size_t encode_leaf_preimage(ByteSpan serial, std::uint64_t number,
                                 std::uint8_t* buf) noexcept {
  // Stack-encoded 0x00 ‖ len ‖ serial ‖ number — this runs once per dirty
  // leaf on every tree rebuild, so it must not allocate.
  std::size_t off = 0;
  buf[off++] = 0x00;
  buf[off++] = static_cast<std::uint8_t>(serial.size());
  for (std::uint8_t b : serial) buf[off++] = b;
  for (int s = 56; s >= 0; s -= 8) {
    buf[off++] = static_cast<std::uint8_t>(number >> s);
  }
  return off;
}

crypto::Digest20 leaf_hash(const Entry& e) noexcept {
  std::uint8_t buf[kLeafPreimageMax];
  return crypto::hash20(ByteSpan(buf, encode_leaf_preimage(e, buf)));
}

void encode_node_preimage(const crypto::Digest20& left,
                          const crypto::Digest20& right,
                          std::uint8_t* buf) noexcept {
  buf[0] = 0x01;
  std::copy(left.begin(), left.end(), buf + 1);
  std::copy(right.begin(), right.end(), buf + 21);
}

crypto::Digest20 node_hash(const crypto::Digest20& left,
                           const crypto::Digest20& right) noexcept {
  std::uint8_t buf[kNodePreimageSize];
  encode_node_preimage(left, right, buf);
  return crypto::hash20(ByteSpan(buf, sizeof(buf)));
}

const crypto::Digest20& empty_root() noexcept {
  static const crypto::Digest20 r = [] {
    ByteWriter w;
    w.u8(0x02);
    w.raw(bytes_of("RITM-EMPTY"));
    return crypto::hash20(ByteSpan(w.bytes()));
  }();
  return r;
}

namespace {

static_assert(sizeof(crypto::Digest20) == 20,
              "a LeafProof's path must be 20 contiguous bytes per sibling");

constexpr std::size_t kDigest = 20;

crypto::Digest20 node_of(const std::uint8_t* left,
                         const std::uint8_t* right) noexcept {
  std::uint8_t buf[kNodePreimageSize];
  buf[0] = 0x01;
  std::memcpy(buf + 1, left, kDigest);
  std::memcpy(buf + 1 + kDigest, right, kDigest);
  return crypto::hash20(ByteSpan(buf, sizeof(buf)));
}

/// One leaf's climb to the root: `h` is the node at position `pos` of a
/// level of `size` nodes, and `path` the siblings not yet used. A level
/// with an odd number of nodes promotes its last node unchanged, so the
/// sibling sides and the path length follow from (index, leaf count).
struct Walk {
  crypto::Digest20 h;
  std::uint64_t pos;
  std::uint64_t size;
  ByteSpan path;

  /// Requires leaf.index < n.
  Walk(const LeafView& leaf, std::uint64_t n) noexcept
      : pos(leaf.index), size(n), path(leaf.path) {
    std::uint8_t buf[kLeafPreimageMax];
    h = crypto::hash20(
        ByteSpan(buf, encode_leaf_preimage(leaf.serial, leaf.number, buf)));
  }

  /// Climbs one level; false if the path ran out.
  bool step() noexcept {
    if ((pos ^ 1) < size) {
      if (path.size() < kDigest) return false;
      h = (pos & 1) ? node_of(path.data(), h.data())
                    : node_of(h.data(), path.data());
      path = path.subspan(kDigest);
    }
    pos >>= 1;
    size = (size + 1) / 2;
    return true;
  }

  /// True iff the climb uses the whole path and ends at `root`.
  bool reaches(const crypto::Digest20& root) noexcept {
    while (size > 1) {
      if (!step()) return false;
    }
    return path.empty() && h == root;
  }
};

/// Both neighbours of an absence proof reach `root`, leaves left.index and
/// left.index + 1 of n. Below their lowest common ancestor the two nodes stay
/// adjacent; once the left one sits at an even position they are siblings,
/// and each side's path must carry the other side's node there. Above that
/// ancestor the two climbs cross the same nodes, so the remaining paths must
/// be the same bytes and are hashed once. Accepts exactly the proofs on which
/// both separate climbs reach `root`, short of a hash collision.
bool neighbours_reach(const LeafView& left, const LeafView& right,
                      const crypto::Digest20& root, std::uint64_t n) noexcept {
  Walk l(left, n);
  Walk r(right, n);
  while (l.pos & 1) {
    if (!l.step() || !r.step()) return false;
  }
  if (l.path.size() < kDigest || r.path.size() < kDigest ||
      std::memcmp(l.path.data(), r.h.data(), kDigest) != 0 ||
      std::memcmp(r.path.data(), l.h.data(), kDigest) != 0) {
    return false;
  }
  if (!l.step()) return false;
  r.path = r.path.subspan(kDigest);
  return std::ranges::equal(l.path, r.path) && l.reaches(root);
}

void encode_leaf_proof(ByteWriter& w, const LeafProof& p) {
  w.var8(ByteSpan(p.entry.serial.value));
  w.u64(p.entry.number);
  w.u64(p.index);
  w.u16(static_cast<std::uint16_t>(p.path.size()));
  for (const auto& h : p.path) w.raw(ByteSpan(h.data(), h.size()));
}

std::optional<LeafView> parse_leaf(ByteReader& r) {
  const auto serial = cert::read_serial(r);
  if (!serial) return std::nullopt;
  const auto number = r.try_u64();
  const auto index = number ? r.try_u64() : std::nullopt;
  const auto steps = index ? r.try_u16() : std::nullopt;
  const auto path =
      steps ? r.try_span(kDigest * std::size_t{*steps}) : std::nullopt;
  if (!path) return std::nullopt;
  return LeafView{*serial, *number, *index, *path};
}

std::optional<LeafView> view_of(const std::optional<LeafProof>& p) noexcept {
  if (!p) return std::nullopt;
  return LeafView{
      ByteSpan(p->entry.serial.value), p->entry.number, p->index,
      ByteSpan(reinterpret_cast<const std::uint8_t*>(p->path.data()),
               kDigest * p->path.size())};
}

std::optional<LeafProof> materialize(const std::optional<LeafView>& v) {
  if (!v) return std::nullopt;
  LeafProof p;
  p.entry.serial.value.assign(v->serial.begin(), v->serial.end());
  p.entry.number = v->number;
  p.index = v->index;
  p.path.resize(v->path.size() / kDigest);
  if (!p.path.empty()) {
    std::memcpy(p.path.data(), v->path.data(), v->path.size());
  }
  return p;
}

}  // namespace

std::optional<ProofView> ProofView::parse(ByteSpan data) {
  ByteReader r{data};
  const auto type_byte = r.try_u8();
  if (!type_byte || *type_byte > 1) return std::nullopt;
  ProofView v;
  v.type = static_cast<Proof::Type>(*type_byte);
  if (v.type == Proof::Type::presence) {
    v.leaf = parse_leaf(r);
    if (!v.leaf) return std::nullopt;
  } else {
    const auto flags = r.try_u8();
    if (!flags || *flags > 3) return std::nullopt;
    if (*flags & 1) {
      v.left = parse_leaf(r);
      if (!v.left) return std::nullopt;
    }
    if (*flags & 2) {
      v.right = parse_leaf(r);
      if (!v.right) return std::nullopt;
    }
  }
  if (!r.done()) return std::nullopt;
  return v;
}

ProofView ProofView::of(const Proof& proof) noexcept {
  return {proof.type, view_of(proof.leaf), view_of(proof.left),
          view_of(proof.right)};
}

Proof ProofView::materialize() const {
  return {type, dict::materialize(leaf), dict::materialize(left),
          dict::materialize(right)};
}

std::size_t Proof::wire_size() const noexcept {
  if (type == Type::presence) {
    return 1 + (leaf ? leaf->wire_size() : 0);
  }
  return 2 + (left ? left->wire_size() : 0) + (right ? right->wire_size() : 0);
}

void Proof::encode_into(Bytes& out) const {
  ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(type));
  if (type == Type::presence) {
    if (!leaf) throw std::logic_error("presence proof without leaf");
    encode_leaf_proof(w, *leaf);
  } else {
    std::uint8_t flags = 0;
    if (left) flags |= 1;
    if (right) flags |= 2;
    w.u8(flags);
    if (left) encode_leaf_proof(w, *left);
    if (right) encode_leaf_proof(w, *right);
  }
}

Bytes Proof::encode() const {
  Bytes out;
  out.reserve(wire_size());
  encode_into(out);
  return out;
}

std::optional<Proof> Proof::decode(ByteSpan data) {
  const auto view = ProofView::parse(data);
  if (!view) return std::nullopt;
  return view->materialize();
}

bool verify_proof(const ProofView& proof, ByteSpan serial,
                  const crypto::Digest20& root, std::uint64_t n) {
  if (proof.type == Proof::Type::presence) {
    if (!proof.leaf || proof.left || proof.right) return false;
    const LeafView& leaf = *proof.leaf;
    if (compare(leaf.serial, serial) != 0) return false;
    if (leaf.number == 0 || leaf.number > n || leaf.index >= n) return false;
    return Walk(leaf, n).reaches(root);
  }

  // Absence.
  if (proof.leaf) return false;
  if (n == 0) {
    // Empty dictionary: nothing can be present; no neighbours to show.
    return !proof.left && !proof.right && root == empty_root();
  }
  if (proof.left && proof.right) {
    const LeafView& left = *proof.left;
    const LeafView& right = *proof.right;
    if (left.index >= n || right.index >= n) return false;
    if (left.index + 1 != right.index) return false;
    if (compare(left.serial, serial) >= 0) return false;
    if (compare(right.serial, serial) <= 0) return false;
    return neighbours_reach(left, right, root, n);
  }
  if (proof.right) {
    // Serial sorts before every leaf.
    if (proof.right->index != 0) return false;
    if (compare(proof.right->serial, serial) <= 0) return false;
    return Walk(*proof.right, n).reaches(root);
  }
  if (proof.left) {
    // Serial sorts after every leaf.
    if (proof.left->index != n - 1) return false;
    if (compare(proof.left->serial, serial) >= 0) return false;
    return Walk(*proof.left, n).reaches(root);
  }
  return false;
}

bool verify_proof(const Proof& proof, const cert::SerialNumber& serial,
                  const crypto::Digest20& root, std::uint64_t n) {
  return verify_proof(ProofView::of(proof), ByteSpan(serial.value), root, n);
}

}  // namespace ritm::dict
