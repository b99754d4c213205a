// Presence/absence proofs over the authenticated dictionary (paper §III).
//
// The dictionary is a Merkle tree whose leaves are (serial ‖ revocation
// number), sorted lexicographically by serial. A presence proof carries one
// leaf and its Merkle path. An absence proof carries the two lexicographic
// neighbours of the missing serial (or one neighbour at the boundaries) and
// proves they are adjacent leaves via their indices.
//
// Path encoding: sibling sides are *not* stored — they are derived from the
// leaf index and the tree's leaf count during verification, which also
// forces the prover to use the canonical tree shape.
//
// A proof is parsed once, in place: ProofView holds spans for each leaf's
// serial and sibling path into the encoded bytes, so parsing allocates
// nothing. Proof::decode materializes an owning Proof from that view, and an
// owning Proof verifies through a view of itself, so there is one parser and
// one verifier. An absence proof's two neighbours are adjacent leaves, so
// above their lowest common ancestor their paths are the same nodes: the
// verifier walks each neighbour only up to that ancestor (where each side's
// sibling must be the other side's node), requires the two remaining paths
// to be byte-identical, and hashes them once — about 22 hashes instead of 40
// at 339,557 leaves.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cert/certificate.hpp"
#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace ritm::dict {

/// One revocation: a serial number and its position in the CA's append-only
/// numbering (1-based; "revocations are numbered consecutively, starting
/// from 1").
struct Entry {
  cert::SerialNumber serial;
  std::uint64_t number = 0;

  bool operator==(const Entry&) const = default;
};

/// Upper bound on a leaf-hash preimage: tag + length byte + serial + number.
constexpr std::size_t kLeafPreimageMax = 2 + cert::kMaxSerialBytes + 8;

/// Writes the leaf-hash preimage 0x00 ‖ len(serial) ‖ serial ‖ number into
/// `buf` (at least kLeafPreimageMax bytes); returns the encoded length.
/// Shared by leaf_hash and the dictionary's batch rebuild loop so the two
/// can never drift apart.
std::size_t encode_leaf_preimage(const Entry& e, std::uint8_t* buf) noexcept;

/// Same preimage from raw serial bytes + number — the dictionary's arena
/// form, so the batch rebuild loop never materializes an Entry.
std::size_t encode_leaf_preimage(ByteSpan serial, std::uint64_t number,
                                 std::uint8_t* buf) noexcept;

/// Leaf hash: H(0x00 ‖ len(serial) ‖ serial ‖ number). Domain-separated from
/// interior nodes to rule out second-preimage splices.
crypto::Digest20 leaf_hash(const Entry& e) noexcept;

/// Size of an interior-node preimage: tag + two 20-byte children.
constexpr std::size_t kNodePreimageSize = 41;

/// Writes the interior-node preimage 0x01 ‖ left ‖ right into `buf` (at
/// least kNodePreimageSize bytes). Shared by node_hash and the dictionary's
/// batched ancestor-spine rebuild so the two can never drift apart.
void encode_node_preimage(const crypto::Digest20& left,
                          const crypto::Digest20& right,
                          std::uint8_t* buf) noexcept;

/// Interior hash: H(0x01 ‖ left ‖ right).
crypto::Digest20 node_hash(const crypto::Digest20& left,
                           const crypto::Digest20& right) noexcept;

/// Root of the empty dictionary: H(0x02 ‖ "RITM-EMPTY").
const crypto::Digest20& empty_root() noexcept;

/// A leaf plus its Merkle path to the root.
struct LeafProof {
  Entry entry;
  std::uint64_t index = 0;              // position among sorted leaves
  std::vector<crypto::Digest20> path;   // sibling hashes, leaf upward

  /// Exact encoded size, computed without serializing.
  std::size_t wire_size() const noexcept {
    return 1 + entry.serial.value.size() + 8 + 8 + 2 + 20 * path.size();
  }

  bool operator==(const LeafProof&) const = default;
};

/// A LeafProof in place: spans into the bytes it was parsed from (or into
/// the owning LeafProof it views), valid only as long as those are.
struct LeafView {
  ByteSpan serial;
  std::uint64_t number = 0;
  std::uint64_t index = 0;
  ByteSpan path;  // sibling hashes, leaf upward, 20 bytes each
};

struct Proof {
  enum class Type : std::uint8_t { presence = 0, absence = 1 };

  Type type = Type::absence;
  std::optional<LeafProof> leaf;   // presence
  std::optional<LeafProof> left;   // absence: greatest leaf < serial
  std::optional<LeafProof> right;  // absence: smallest leaf > serial

  /// Appends the wire encoding to `out` (no intermediate buffers).
  void encode_into(Bytes& out) const;
  Bytes encode() const;
  static std::optional<Proof> decode(ByteSpan data);

  /// Wire size in bytes (what an RA appends to TLS traffic), computed
  /// without serializing — the hot-path sizing an RA does per packet.
  std::size_t wire_size() const noexcept;

  bool operator==(const Proof&) const = default;
};

/// A Proof in place; see the file comment. parse() accepts type <= 1,
/// absence flags <= 3, 1-20-byte serials and no trailing bytes;
/// Proof::decode is parse() then materialize().
struct ProofView {
  Proof::Type type = Proof::Type::absence;
  std::optional<LeafView> leaf;   // presence
  std::optional<LeafView> left;   // absence: greatest leaf < serial
  std::optional<LeafView> right;  // absence: smallest leaf > serial

  static std::optional<ProofView> parse(ByteSpan data);
  /// A view of an owning proof (which must outlive it).
  static ProofView of(const Proof& proof) noexcept;
  Proof materialize() const;
};

/// Full verification of a proof for `serial` against a dictionary root and
/// leaf count n. Checks Merkle paths, ordering, adjacency, and numbering
/// bounds. This is what a RITM client runs in step 5b of the protocol.
/// Allocates nothing.
bool verify_proof(const ProofView& proof, ByteSpan serial,
                  const crypto::Digest20& root, std::uint64_t n);

/// The same check on an owning proof, through a view of it.
bool verify_proof(const Proof& proof, const cert::SerialNumber& serial,
                  const crypto::Digest20& root, std::uint64_t n);

}  // namespace ritm::dict
