// Fuzz harness for the RA's cold-start parser: a CDN cold-start object
// (ca::ColdStartObject::decode) and the dictionary snapshot it carries
// (dict::Dictionary::restore_from). Every input is fed to both, as a bare
// snapshot and as a cold-start object, and each must either be rejected or
// restore to a dictionary that
//   * re-encodes (snapshot_into) exactly the bytes restore_from consumed, and
//   * reports the recorded root (the consumed bytes' last 20) as root().
// A rejected restore must leave the target dictionary untouched. The low bit
// of the first byte picks one of two input shapes:
//   * raw:      the rest of the input, verbatim.
//   * mutation: one of a few valid encodings (bare snapshots and cold-start
//               objects of dictionaries with 0, 3 and 200 entries), picked
//               by the second byte, with the remaining bytes XORed over it
//               (any excess appended). Random bytes almost never get past
//               the version byte and the entry count; this shape keeps the
//               fuzzer next to acceptance, where the order check and the
//               root comparison decide.
//
// Built two ways (CMake), like fuzz_frame: with -DRITM_BUILD_FUZZERS=ON
// (clang) this is a libFuzzer target; otherwise it compiles as a
// self-driving smoke binary that replays a deterministic pseudo-random
// corpus of both shapes, registered as a ctest (label `fault`).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "dict/dictionary.hpp"

namespace {

using namespace ritm;

/// A valid encoding plus the offsets the smoke corpus aims its edits at.
struct Base {
  Bytes bytes;
  std::size_t snapshot_at = 0;         // where the dictionary snapshot starts
  std::size_t entries = 0;             // n
  std::vector<std::size_t> len_bytes;  // each serial's length byte
  std::size_t index_at = 0;            // first sorted-index word
};

constexpr std::size_t kCountOffset = 1 + 8;  // version, epoch
constexpr std::size_t kHeaderBytes = kCountOffset + 8;

/// Bare snapshots, then cold-start objects, of three CAs' dictionaries.
const std::vector<Base>& bases() {
  static const std::vector<Base> out = [] {
    std::vector<Base> snapshots, objects;
    Rng rng(0x5A4B);
    for (const std::size_t n : {0, 3, 200}) {
      ca::CertificationAuthority::Config cfg;
      cfg.id = "CA-FUZZ-" + std::to_string(n);
      cfg.delta = 10;
      cfg.chain_length = 8;
      ca::CertificationAuthority ca(cfg, rng, 1000);
      std::vector<cert::SerialNumber> serials;
      for (std::size_t i = 0; i < n; ++i) {
        serials.push_back(
            cert::SerialNumber{rng.bytes(1 + rng.uniform(cert::kMaxSerialBytes))});
      }
      ca.revoke(serials, 1000);
      const ca::ColdStartObject obj = ca.cold_start_object(0, 1000);

      Base snap;
      snap.bytes = obj.dict_snapshot;
      snap.entries = ca.dictionary().size();
      std::size_t at = kHeaderBytes;
      for (std::size_t i = 0; i < snap.entries; ++i) {
        snap.len_bytes.push_back(at);
        at += 1 + snap.bytes[at];
      }
      snap.index_at = at;

      Base wrapped = snap;
      wrapped.bytes = obj.encode();
      const std::size_t shift = wrapped.bytes.size() - snap.bytes.size();
      wrapped.snapshot_at = shift;
      for (std::size_t& off : wrapped.len_bytes) off += shift;
      wrapped.index_at += shift;

      snapshots.push_back(std::move(snap));
      objects.push_back(std::move(wrapped));
    }
    snapshots.insert(snapshots.end(), objects.begin(), objects.end());
    return snapshots;
  }();
  return out;
}

/// The dictionary each restore targets: non-empty, so "untouched" is a
/// real check.
const dict::Dictionary& victim() {
  static const dict::Dictionary d = [] {
    dict::Dictionary v;
    v.insert({cert::SerialNumber::from_uint(7), cert::SerialNumber::from_uint(3)});
    (void)v.root();
    return v;
  }();
  return d;
}

/// Restores `snapshot` into a copy of victim(); returns whether it was
/// accepted. Traps on any broken invariant.
bool check_restore(ByteSpan snapshot) {
  dict::Dictionary d = victim();
  ByteReader r{snapshot};
  try {
    d.restore_from(r);
  } catch (const std::runtime_error&) {
    if (d.size() != victim().size() || d.epoch() != victim().epoch() ||
        d.root() != victim().root()) {
      __builtin_trap();
    }
    return false;
  }
  const std::size_t used = r.position();
  ByteWriter w;
  d.snapshot_into(w);
  const Bytes& again = w.bytes();
  if (used < 20 || again.size() != used ||
      !std::equal(again.begin(), again.end(), snapshot.begin())) {
    __builtin_trap();
  }
  crypto::Digest20 recorded{};
  std::copy(snapshot.begin() + static_cast<std::ptrdiff_t>(used - 20),
            snapshot.begin() + static_cast<std::ptrdiff_t>(used),
            recorded.begin());
  if (d.root() != recorded) __builtin_trap();
  return true;
}

/// Checks `input` as a bare snapshot and as a cold-start object; returns
/// whether either restored.
bool check(ByteSpan input) {
  bool accepted = check_restore(input);
  if (const auto obj = ca::ColdStartObject::decode(input)) {
    accepted |= check_restore(ByteSpan(obj->dict_snapshot));
  }
  return accepted;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  if ((data[0] & 1) == 0) {
    check(ByteSpan(data + 1, size - 1));
    return 0;
  }
  const std::size_t pick = size >= 2 ? data[1] % bases().size() : 0;
  Bytes t = bases()[pick].bytes;
  for (std::size_t i = 2; i < size; ++i) {
    if (i - 2 < t.size()) {
      t[i - 2] ^= data[i];
    } else {
      t.push_back(data[i]);
    }
  }
  check(ByteSpan(t));
  return 0;
}

#ifndef RITM_LIBFUZZER
// Self-driving smoke mode: raw noise, truncated valid encodings, and valid
// encodings unchanged, with a few flipped bits, with one byte changed, with
// trailing bytes, with a forged entry count, with two sorted-index words
// swapped, or with a serial length of 0 or 21; all through the same entry
// point libFuzzer drives.
int main() {
  // The corpus leans on the bases being valid; a broken one would leave
  // only rejections to compare.
  for (const Base& b : bases()) {
    if (!check(ByteSpan(b.bytes))) return 1;
  }
  Rng rng(0xF0226);
  Bytes buf;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t pick = rng.uniform(bases().size());
    const Base& base = bases()[pick];
    const std::uint64_t shape = rng.uniform(10);
    if (shape <= 1) {  // raw: noise, or a valid encoding cut short
      buf.assign(1, 0);
      const Bytes body =
          shape == 0 ? rng.bytes(rng.uniform(200))
                     : Bytes(base.bytes.begin(),
                             base.bytes.begin() + static_cast<std::ptrdiff_t>(
                                                      rng.uniform(base.bytes.size())));
      buf.insert(buf.end(), body.begin(), body.end());
      LLVMFuzzerTestOneInput(buf.data(), buf.size());
      continue;
    }
    // Mutation: an XOR mask over a valid encoding.
    buf.assign(2 + base.bytes.size(), 0);
    buf[0] = 1;
    buf[1] = static_cast<std::uint8_t>(pick);
    // Makes the mutated encoding hold `value` at `offset`.
    const auto set = [&](std::size_t offset, std::uint8_t value) {
      buf[2 + offset] = static_cast<std::uint8_t>(base.bytes[offset] ^ value);
    };
    switch (shape) {
      case 2:  // unchanged
        break;
      case 3: {  // a few bit flips anywhere
        const std::uint64_t flips = 1 + rng.uniform(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          buf[2 + rng.uniform(base.bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
        break;
      }
      case 4:  // one byte changed
        buf[2 + rng.uniform(base.bytes.size())] =
            static_cast<std::uint8_t>(1 + rng.uniform(255));
        break;
      case 5: {  // trailing bytes: ignored by restore, kept by the object
        const Bytes tail = rng.bytes(1 + rng.uniform(40));
        buf.insert(buf.end(), tail.begin(), tail.end());
        break;
      }
      case 6: {  // a forged entry count, up to far past the input
        const std::uint64_t forged =
            rng.uniform(2) ? base.entries + 1 + rng.uniform(base.bytes.size())
                           : rng.next();
        for (std::size_t i = 0; i < 8; ++i) {
          set(base.snapshot_at + kCountOffset + i,
              static_cast<std::uint8_t>(forged >> (56 - 8 * i)));
        }
        break;
      }
      case 7:  // two adjacent sorted-index words swapped: out of order
        if (base.entries >= 2) {
          const std::size_t w = rng.uniform(base.entries - 1);
          for (std::size_t i = 0; i < 4; ++i) {
            const std::size_t a = base.index_at + 4 * w + i;
            set(a, base.bytes[a + 4]);
            set(a + 4, base.bytes[a]);
          }
        }
        break;
      default:  // a serial length of 0 or 21
        if (base.entries >= 1) {
          set(base.len_bytes[rng.uniform(base.entries)],
              rng.uniform(2) ? 0 : cert::kMaxSerialBytes + 1);
        }
        break;
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
