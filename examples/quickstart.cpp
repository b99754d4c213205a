// Quickstart: the RITM public API in one file.
//
// A CA maintains an authenticated dictionary of revocations; an RA keeps a
// verified replica and serves presence/absence proofs; a client validates
// proofs + freshness. This example also prints the Tab. I dissemination
// timeline (signed root, then freshness statements, then a new root).
#include <cstdio>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "common/bytes.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "svc/transport.hpp"

using namespace ritm;

namespace {
std::string hex20(const crypto::Digest20& d) {
  return to_hex(ByteSpan(d.data(), d.size())).substr(0, 16) + "..";
}
}  // namespace

int main() {
  constexpr UnixSeconds kDelta = 10;
  UnixSeconds now = 1'400'000'000;

  // --- 1. A CA with an Ed25519 identity and an empty dictionary.
  Rng rng(2024);
  ca::CertificationAuthority::Config cfg;
  cfg.id = "DemoCA";
  cfg.delta = kDelta;
  ca::CertificationAuthority ca(cfg, rng, now);
  std::printf("CA %s ready, dictionary size %llu\n", ca.id().c_str(),
              (unsigned long long)ca.dictionary().size());

  // --- 2. Issue a certificate for a server.
  crypto::Seed server_seed{};
  server_seed.fill(0x42);
  const auto server_kp = crypto::keypair_from_seed(server_seed);
  const auto leaf = ca.issue("www.example.com", server_kp.public_key, now,
                             now + 90 * 86400);
  std::printf("issued cert for %s, serial %s\n", leaf.subject.c_str(),
              leaf.serial.to_hex().c_str());

  // --- 3. An RA replica that follows the CA.
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), kDelta);

  // --- 4. The Tab. I timeline: revocations at t0 and t0+3∆, freshness
  // statements in between.
  std::printf("\nTab. I timeline (delta = %llds):\n", (long long)kDelta);
  const auto issuance0 = ca.revoke({cert::SerialNumber::from_uint(0xA),
                                    cert::SerialNumber::from_uint(0xB),
                                    cert::SerialNumber::from_uint(0xC)},
                                   now);
  store.apply_issuance(issuance0, now);
  std::printf("  t0      : sa,sb,sc + signed root {root=%s, n=%llu}\n",
              hex20(issuance0.signed_root.root).c_str(),
              (unsigned long long)issuance0.signed_root.n);
  for (int p = 1; p <= 2; ++p) {
    const auto msg = ca.refresh(now + p * kDelta);
    store.apply_freshness(*msg.freshness, now + p * kDelta);
    std::printf("  t0 + %d∆ : freshness statement H^(m-%d)(v) = %s\n", p, p,
                hex20(msg.freshness->statement).c_str());
  }
  const auto issuance1 =
      ca.revoke({cert::SerialNumber::from_uint(0xD)}, now + 3 * kDelta);
  store.apply_issuance(issuance1, now + 3 * kDelta);
  std::printf("  t0 + 3∆ : sd + new signed root {root=%s, n=%llu}\n",
              hex20(issuance1.signed_root.root).c_str(),
              (unsigned long long)issuance1.signed_root.n);
  now += 3 * kDelta;

  // --- 5. The RA serves statuses through the envelope API (PR 5): every
  // query is a versioned svc::Request over a transport — in-process here,
  // svc::TcpServer in a real deployment (tools/ritm_serve.cpp) — and the
  // client validates the returned payload bytes.
  cert::TrustStore roots;
  roots.add(ca.id(), ca.public_key());
  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            roots);
  ra::RaService ra_service(&store);
  svc::InProcessTransport rpc(&ra_service);

  const auto query = [&](const cert::SerialNumber& serial) {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(ca.id(), serial);
    return rpc.call(req);
  };

  const auto good = query(leaf.serial);
  const client::Verdict good_verdict =
      client.validate_status_bytes(ByteSpan(good.response.body), leaf, now);
  std::printf("\nvalid certificate:   status %zu bytes -> %s\n",
              good.response.body.size(), client::to_string(good_verdict));

  // --- 6. Revoke the server's certificate and watch the verdict flip.
  store.apply_issuance(ca.revoke({leaf.serial}, now + kDelta), now + kDelta);
  const auto bad = query(leaf.serial);
  const client::Verdict bad_verdict = client.validate_status_bytes(
      ByteSpan(bad.response.body), leaf, now + kDelta);
  std::printf("revoked certificate: status %zu bytes -> %s\n",
              bad.response.body.size(), client::to_string(bad_verdict));

  // --- 7. The error taxonomy travels the same wire: an unknown CA is a
  // typed status code, not a silent nullopt.
  svc::Request unknown;
  unknown.method = svc::Method::status_query;
  unknown.body = ra::encode_status_query("NotARealCA", leaf.serial);
  const svc::Status unknown_status = rpc.call(unknown).response.status;
  std::printf("unknown CA query:    -> svc::Status::%s\n",
              svc::to_string(unknown_status));

  // Exit status (the `example` ctest): the three answers above, in order.
  return good_verdict == client::Verdict::accepted &&
                 bad_verdict == client::Verdict::revoked &&
                 unknown_status == svc::Status::unknown_ca
             ? 0
             : 1;
}
