// Differential fuzz harness for Ed25519 verification: on every input,
// crypto::verify() must return exactly what the reference equation check in
// tests/ed25519_oracle.hpp returns (two fixed-window scalar multiplications,
// a projective comparison, canonical decoding of A and R). The low bit of
// the first byte picks one of two input shapes:
//   * raw:      key (32) || signature (64) || message (the rest), verbatim.
//   * mutation: one of a few valid (key, signature, message) triples, picked
//               by the second byte, with the remaining bytes XORed over its
//               key || signature || message (and any excess appended to the
//               message). Random bytes almost never get past S < L; this
//               shape keeps the fuzzer next to acceptance, where the
//               equation itself decides.
//
// Built two ways (CMake), like fuzz_frame: with -DRITM_BUILD_FUZZERS=ON
// (clang) this is a libFuzzer target; otherwise it compiles as a
// self-driving smoke binary that replays a deterministic pseudo-random
// corpus of both shapes, registered as a ctest (label `fault`).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "../tests/ed25519_oracle.hpp"

namespace {

using namespace ritm;

constexpr std::size_t kKeyBytes = 32;
constexpr std::size_t kSigBytes = 64;
constexpr std::size_t kValidMessageBytes = 48;
constexpr std::size_t kTripleBytes = kKeyBytes + kSigBytes + kValidMessageBytes;

/// key || signature || message, each signature valid for its key.
const std::vector<Bytes>& valid_triples() {
  static const std::vector<Bytes> triples = [] {
    std::vector<Bytes> out;
    Rng rng(0xED25519);
    for (int i = 0; i < 4; ++i) {
      crypto::Seed seed{};
      const Bytes s = rng.bytes(seed.size());
      std::memcpy(seed.data(), s.data(), seed.size());
      const auto kp = crypto::keypair_from_seed(seed);
      const Bytes msg = rng.bytes(kValidMessageBytes);
      const auto sig = crypto::sign(ByteSpan(msg), kp.seed, kp.public_key);
      Bytes t(kTripleBytes);
      std::memcpy(t.data(), kp.public_key.data(), kKeyBytes);
      std::memcpy(t.data() + kKeyBytes, sig.data(), kSigBytes);
      std::memcpy(t.data() + kKeyBytes + kSigBytes, msg.data(),
                  kValidMessageBytes);
      out.push_back(std::move(t));
    }
    return out;
  }();
  return triples;
}

void check(const std::uint8_t* triple, std::size_t size) {
  if (size < kKeyBytes + kSigBytes) return;
  crypto::PublicKey key;
  crypto::Signature sig;
  std::memcpy(key.data(), triple, kKeyBytes);
  std::memcpy(sig.data(), triple + kKeyBytes, kSigBytes);
  const ByteSpan msg(triple + kKeyBytes + kSigBytes,
                     size - kKeyBytes - kSigBytes);
  if (crypto::verify(msg, sig, key) != crypto::oracle::verify(msg, sig, key)) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  if ((data[0] & 1) == 0) {
    check(data + 1, size - 1);
    return 0;
  }
  const auto& triples = valid_triples();
  const std::size_t pick = size >= 2 ? data[1] % triples.size() : 0;
  Bytes t = triples[pick];
  for (std::size_t i = 2; i < size; ++i) {
    if (i - 2 < t.size()) {
      t[i - 2] ^= data[i];
    } else {
      t.push_back(data[i]);
    }
  }
  check(t.data(), t.size());
  return 0;
}

#ifndef RITM_LIBFUZZER
// Self-driving smoke mode: raw noise (a quarter of it with S forced below
// 2^252 so the equation runs), and valid triples unchanged, with a few
// flipped bits, with one key or signature byte changed, with a longer
// message, with S + L in place of S, with an encoding whose y >= p in place
// of the key or R, or with the forgery that the identity key's alias would
// admit; all through the same entry point libFuzzer drives.
int main() {
  // The corpus leans on the triples being valid; a broken one would leave
  // only rejections to compare.
  for (const Bytes& t : valid_triples()) {
    crypto::PublicKey key;
    crypto::Signature sig;
    std::memcpy(key.data(), t.data(), kKeyBytes);
    std::memcpy(sig.data(), t.data() + kKeyBytes, kSigBytes);
    if (!crypto::oracle::verify(ByteSpan(t.data() + kKeyBytes + kSigBytes,
                                         kValidMessageBytes),
                                sig, key)) {
      return 1;
    }
  }
  const crypto::oracle::Bytes32& l = crypto::oracle::group_order();
  Rng rng(0xF0225);
  Bytes buf;
  for (int iter = 0; iter < 3000; ++iter) {
    buf.clear();
    if (rng.uniform(3) == 0) {  // raw
      buf.push_back(0);
      const Bytes body = rng.bytes(kKeyBytes + kSigBytes + rng.uniform(80));
      buf.insert(buf.end(), body.begin(), body.end());
      if (rng.uniform(4) == 0) buf[1 + kKeyBytes + kSigBytes - 1] &= 0x0F;
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      continue;
    }
    // Mutation: an XOR mask over a valid triple.
    buf.push_back(1);
    buf.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
    buf.resize(2 + kTripleBytes, 0);
    const Bytes& triple = valid_triples()[buf[1] % valid_triples().size()];
    // Makes the mutated triple hold `value` at [offset, offset + 32).
    const auto replace = [&](std::size_t offset, const std::uint8_t* value) {
      for (std::size_t j = 0; j < 32; ++j) {
        buf[2 + offset + j] =
            static_cast<std::uint8_t>(triple[offset + j] ^ value[j]);
      }
    };
    switch (rng.uniform(8)) {
      case 0:  // unchanged: must verify in both
        break;
      case 1: {  // a few bit flips anywhere
        const std::uint64_t flips = 1 + rng.uniform(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          buf[2 + rng.uniform(kTripleBytes)] ^=
              static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        break;
      }
      case 2:  // one byte of the key, R or S changed
        buf[2 + rng.uniform(kKeyBytes + kSigBytes)] =
            static_cast<std::uint8_t>(1 + rng.uniform(255));
        break;
      case 3: {  // a longer message
        const Bytes tail = rng.bytes(1 + rng.uniform(40));
        buf.insert(buf.end(), tail.begin(), tail.end());
        break;
      }
      case 4: {  // S + L: the same point behind a non-canonical scalar
        std::uint8_t s[32];
        unsigned carry = 0;
        for (std::size_t j = 0; j < 32; ++j) {
          const unsigned v = triple[kKeyBytes + 32 + j] + l[j] + carry;
          s[j] = static_cast<std::uint8_t>(v);
          carry = v >> 8;
        }
        replace(kKeyBytes + 32, s);
        break;
      }
      case 5: {  // the identity's alias y = p + 1 as the key, R = B, S = 1:
                 // s*B == R + k*A for every message if the alias decodes
        std::uint8_t alias[32], base[32], one[32] = {1};
        std::memset(alias, 0xFF, sizeof alias);
        alias[0] = 0xEE;
        alias[31] = 0x7F;
        std::memset(base, 0x66, sizeof base);
        base[0] = 0x58;
        replace(0, alias);
        replace(kKeyBytes, base);
        replace(kKeyBytes + 32, one);
        break;
      }
      default: {  // y = p + i (i < 19), either sign, as the key or as R
        std::uint8_t enc[32];
        std::memset(enc, 0xFF, sizeof enc);
        enc[0] = static_cast<std::uint8_t>(0xED + rng.uniform(19));
        enc[31] = static_cast<std::uint8_t>(rng.uniform(2) ? 0xFF : 0x7F);
        replace(rng.uniform(2) ? 0 : kKeyBytes, enc);
        break;
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
