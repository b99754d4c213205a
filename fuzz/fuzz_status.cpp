// Fuzz harness for the client and DPI trust boundary: the bytes an RA, or
// anyone on the path, hands a RITM client. The first byte mod 3 picks one of
// three input shapes:
//   * status:  the rest of the input to dict::RevocationStatus::decode. A
//              status that decodes must re-encode to exactly those bytes.
//   * verdict: one of a few genuine statuses of a real CA (absence and
//              presence proofs under its signed root, with the freshness
//              statements of periods 0, 5 and 40), picked by byte 1, with
//              the input from byte 11 on XORed over its encoding (any excess
//              appended), goes to client::RitmClient::validate_status_bytes
//              for the serial that status was built for. Bytes 2-9 are the
//              client's clock, big-endian: an offset of -24 to +39 s from
//              the time the status was built at when byte 10 is even, so
//              mutations reach the freshness window's edges and the proof
//              check; raw Unix seconds when it is odd, so ancient and
//              far-future clocks reach the walk's cap. The client must never
//              get a wrong verdict: `accepted` only for a serial the CA has
//              not revoked, `revoked` only for one it has. The client lives
//              across inputs, so its verified-root memo is warm; a fresh
//              client, which must verify the signature, must give the same
//              verdict.
//   * dpi:     a packet payload to ra::inspect and ra::strip_status: the rest
//              of the input verbatim when byte 1 is even, or XORed over a TLS
//              application-data record followed by a genuine status record
//              when it is odd. Stripping must leave no status record behind
//              (a second strip finds none and changes nothing), and when the
//              payload looks like TLS, inspect() must report exactly the
//              statuses strip_status extracted, in order.
//
// Built two ways (CMake), like fuzz_frame: with -DRITM_BUILD_FUZZERS=ON
// (clang) this is a libFuzzer target; otherwise it compiles as a
// self-driving smoke binary that replays a deterministic pseudo-random
// corpus of all three shapes, registered as a ctest (label `fault`).
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "common/rng.hpp"
#include "dict/messages.hpp"
#include "ra/dpi.hpp"
#include "sim/packet.hpp"
#include "tls/record.hpp"

namespace {

using namespace ritm;

constexpr UnixSeconds kRootTime = 1000;
constexpr UnixSeconds kDelta = 10;

/// One genuine status, the leaf it was built for, and when.
struct Genuine {
  cert::Certificate leaf;
  UnixSeconds at = 0;
  Bytes bytes;
};

/// A CA with one signed root over 200 revocations, a client trusting it,
/// and statuses for revoked and unrevoked serials at three periods.
struct Target {
  ca::CertificationAuthority ca;
  cert::TrustStore roots;
  client::RitmClient client;
  std::vector<Genuine> statuses;
  Bytes packet;  // application-data record + a genuine status record

  static ca::CertificationAuthority build_ca() {
    Rng rng(4243);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-FUZZ";
    cfg.delta = kDelta;
    cfg.chain_length = 64;
    ca::CertificationAuthority ca(cfg, rng, kRootTime);
    std::vector<cert::SerialNumber> revoked;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      revoked.push_back(cert::SerialNumber::from_uint(i * 3, 4));
    }
    ca.revoke(revoked, kRootTime);
    return ca;
  }

  static cert::TrustStore trust(const ca::CertificationAuthority& ca) {
    cert::TrustStore roots;
    roots.add(ca.id(), ca.public_key());
    return roots;
  }

  Target()
      : ca(build_ca()),
        roots(trust(ca)),
        client(client::RitmClient::Config{.delta = kDelta}, roots) {
    for (const std::uint64_t serial : {3u, 4u, 300u, 601u, 1u}) {
      for (const UnixSeconds period : {0, 5, 40}) {
        cert::Certificate leaf;
        leaf.issuer = ca.id();
        leaf.serial = cert::SerialNumber::from_uint(serial, 4);
        const UnixSeconds at = kRootTime + period * kDelta;
        statuses.push_back(
            {leaf, at, ca.status_for(leaf.serial, at).encode()});
      }
    }
    sim::Packet pkt;
    tls::encode_record_into(
        {tls::ContentType::application_data, bytes_of("application data")},
        pkt.payload);
    ra::attach_status(pkt, ByteSpan(statuses[1].bytes));
    packet = std::move(pkt.payload);
  }
};

Target& target() {
  static Target t;
  return t;
}

/// `base` with `mask` XORed over it; mask bytes past its end are appended.
Bytes xor_over(const Bytes& base, ByteSpan mask) {
  Bytes out = base;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (i < out.size()) {
      out[i] ^= mask[i];
    } else {
      out.push_back(mask[i]);
    }
  }
  return out;
}

void check_status(ByteSpan input) {
  const auto status = dict::RevocationStatus::decode(input);
  if (status && status->encode() != Bytes(input.begin(), input.end())) {
    __builtin_trap();
  }
}

void check_verdict(const std::uint8_t* data, std::size_t size) {
  if (size < 11) return;
  Target& t = target();
  const Genuine& g = t.statuses[data[1] % t.statuses.size()];
  std::uint64_t clock = 0;
  for (std::size_t i = 2; i < 10; ++i) clock = clock << 8 | data[i];
  const UnixSeconds now =
      data[10] % 2 == 0 ? g.at - 24 + static_cast<UnixSeconds>(clock % 64)
                        : static_cast<UnixSeconds>(clock);
  const Bytes status = xor_over(g.bytes, ByteSpan(data + 11, size - 11));
  const client::Verdict v =
      t.client.validate_status_bytes(ByteSpan(status), g.leaf, now);
  const bool revoked = t.ca.dictionary().contains(g.leaf.serial);
  if (v == client::Verdict::accepted && revoked) __builtin_trap();
  if (v == client::Verdict::revoked && !revoked) __builtin_trap();
  const client::RitmClient fresh(client::RitmClient::Config{.delta = kDelta},
                                 t.roots);
  if (fresh.validate_status_bytes(ByteSpan(status), g.leaf, now) != v) {
    __builtin_trap();
  }
}

void check_dpi(const std::uint8_t* data, std::size_t size) {
  if (size < 2) return;
  const ByteSpan rest(data + 2, size - 2);
  sim::Packet pkt;
  pkt.payload = data[1] % 2 == 0 ? Bytes(rest.begin(), rest.end())
                                 : xor_over(target().packet, rest);
  const Bytes original = pkt.payload;
  const ra::Inspection seen = ra::inspect(ByteSpan(original));
  const auto stripped = ra::strip_status(pkt);
  if (tls::looks_like_tls(ByteSpan(original)) && seen.statuses != stripped) {
    __builtin_trap();
  }
  const Bytes once = pkt.payload;
  if (!ra::strip_status(pkt).empty() || pkt.payload != once) __builtin_trap();
  if (!ra::inspect(ByteSpan(pkt.payload)).statuses.empty()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  switch (data[0] % 3) {
    case 0:
      check_status(ByteSpan(data + 1, size - 1));
      break;
    case 1:
      check_verdict(data, size);
      break;
    default:
      check_dpi(data, size);
      break;
  }
  return 0;
}

#ifndef RITM_LIBFUZZER
// Self-driving smoke mode: genuine statuses (verbatim, bit-flipped, cut
// short) through all three shapes, at clocks near each status's time and
// raw, plus noise — through the same entry point libFuzzer drives.
int main() {
  // The corpus leans on the genuine statuses being judged right at their
  // own period; a broken one would leave only rejections to compare.
  Target& t = target();
  for (const Genuine& g : t.statuses) {
    const client::Verdict want = t.ca.dictionary().contains(g.leaf.serial)
                                     ? client::Verdict::revoked
                                     : client::Verdict::accepted;
    if (t.client.validate_status_bytes(ByteSpan(g.bytes), g.leaf, g.at) !=
        want) {
      return 1;
    }
  }

  Rng rng(0xF0227);
  Bytes buf;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::uint32_t shape = rng.uniform(3);
    const std::size_t pick = rng.uniform(t.statuses.size());
    const Bytes& base = shape == 2 ? t.packet : t.statuses[pick].bytes;
    if (shape == 1) {
      buf.assign(11, 0);
      buf[1] = static_cast<std::uint8_t>(pick);
      const bool near = rng.uniform(4) != 0;
      const std::uint64_t clock =
          near ? rng.uniform(64)
               : (std::uint64_t{rng.uniform(1u << 31)} << 32 |
                  rng.uniform(1u << 31)) >>
                     rng.uniform(60);
      for (std::size_t i = 0; i < 8; ++i) {
        buf[2 + i] = static_cast<std::uint8_t>(clock >> (56 - 8 * i));
      }
      buf[10] = near ? 0 : 1;
      buf.resize(11 + base.size(), 0);  // a zero mask: the genuine status
      const std::uint32_t flips = rng.uniform(3);
      for (std::uint32_t f = 0; f < flips; ++f) {
        buf[11 + rng.uniform(base.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
    } else {
      // Noise, a genuine encoding cut short, or one with bit flips:
      // verbatim, or as a mask over the packet when the dpi shape's byte 1
      // is odd.
      buf.assign(shape == 2 ? 2 : 1, 0);
      if (shape == 2) buf[1] = static_cast<std::uint8_t>(rng.uniform(2));
      const std::uint32_t kind = rng.uniform(3);
      Bytes body;
      if (kind == 0) {
        body = rng.bytes(rng.uniform(300));
      } else if (kind == 1) {
        body.assign(base.begin(),
                    base.begin() + static_cast<std::ptrdiff_t>(
                                       rng.uniform(base.size() + 1)));
      } else {
        body = (shape == 2 && buf[1] == 1) ? Bytes(base.size(), 0) : base;
        const std::uint32_t flips = rng.uniform(4);
        for (std::uint32_t f = 0; f < flips; ++f) {
          body[rng.uniform(body.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform(8));
        }
      }
      buf.insert(buf.end(), body.begin(), body.end());
    }
    buf[0] = static_cast<std::uint8_t>(shape + 3 * rng.uniform(80));
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
