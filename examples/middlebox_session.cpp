// The Fig. 3 walkthrough: a RITM-supported TLS connection through a
// Revocation Agent, packet by packet, followed by the mid-connection
// revocation race the paper's design closes (§V "Race Condition").
//
// Everything the RA sees is raw wire bytes; it parses records, tracks the
// flow state tuple of Eq. (4), and piggybacks revocation statuses.
#include <cstdio>

#include "ca/authority.hpp"
#include "client/client.hpp"
#include "ra/agent.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "svc/transport.hpp"
#include "tls/session.hpp"

using namespace ritm;

namespace {
void show_flow(const ra::RevocationAgent& agent, const sim::FlowKey& key) {
  const ra::FlowState* fs = agent.flow(key);
  if (fs == nullptr) {
    std::printf("    RA state: (none)\n");
    return;
  }
  const char* stage = fs->stage == ra::Stage::client_hello ? "ClientHello"
                      : fs->stage == ra::Stage::server_hello
                          ? "ServerHello"
                          : "established";
  std::printf("    RA state: stage=%s lastStatus=%lld CA=%s SN=%s\n", stage,
              (long long)fs->last_status,
              fs->ca.empty() ? "(none)" : fs->ca.c_str(),
              fs->serial.value.empty() ? "(none)"
                                       : fs->serial.to_hex().c_str());
}
}  // namespace

int main() {
  constexpr UnixSeconds kDelta = 10;
  UnixSeconds now = 141'000;
  Rng rng(7);

  // Setup: CA, RA, client, server certificate.
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA1";
  cfg.delta = kDelta;
  ca::CertificationAuthority ca(cfg, rng, now);
  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), kDelta);
  store.apply_issuance(ca.revoke({cert::SerialNumber::from_uint(0xDEAD)},
                                 now),
                       now);
  ra::RevocationAgent agent({.delta = kDelta}, &store);

  cert::TrustStore roots;
  roots.add(ca.id(), ca.public_key());
  client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                             .require_server_confirmation = false},
                            roots);

  crypto::Seed skey{};
  skey.fill(1);
  const auto server_kp = crypto::keypair_from_seed(skey);
  const auto leaf = ca.issue("bank.example", server_kp.public_key, 0,
                             now + 10'000'000);

  const sim::Endpoint ce{sim::Endpoint::parse_ip("12.34.56.78"), 9012};
  const sim::Endpoint se{sim::Endpoint::parse_ip("98.76.54.32"), 443};
  const sim::FlowKey flow{ce.ip, se.ip, ce.port, se.port};

  // The RA also exposes the envelope API (PR 5): the same status the DPI
  // path will splice into packets can be queried as a versioned RPC —
  // in-process here, over TCP via tools/ritm_serve in a real deployment.
  ra::RaService ra_service(&store);
  svc::InProcessTransport ra_rpc(&ra_service);
  {
    svc::Request req;
    req.method = svc::Method::status_query;
    req.body = ra::encode_status_query(ca.id(), leaf.serial);
    const auto r = ra_rpc.call(req);
    std::printf("envelope pre-check of %s: svc::Status::%s, %zu status "
                "bytes\n\n",
                leaf.subject.c_str(), svc::to_string(r.response.status),
                r.response.body.size());
  }

  std::printf("== Fig. 3: RITM-supported TLS connection ==\n");

  std::printf("[t=%lld] client %s -> server %s : ClientHello + RITM ext\n",
              (long long)now, ce.to_string().c_str(), se.to_string().c_str());
  auto ch = tls::make_client_hello(ce, se, rng, /*offer_ritm=*/true);
  agent.process(ch, now);
  show_flow(agent, flow);

  std::printf("[t=%lld] server -> client : ServerHello + Certificate\n",
              (long long)now);
  auto flight = tls::make_server_flight(ce, se, rng, {leaf}, false);
  const std::size_t before = flight.payload.size();
  agent.process(flight, now);
  std::printf("    RA appended revocation status (+%zu bytes)\n",
              flight.payload.size() - before);
  show_flow(agent, flow);

  auto verdict = client.process_server_flight(flight, now);
  std::printf("    client verdict: %s\n", client::to_string(verdict));

  auto fin = tls::make_server_finished(ce, se);
  agent.process(fin, now);
  std::printf("[t=%lld] server Finished -> connection established\n",
              (long long)now);
  show_flow(agent, flow);

  std::printf("\n== established phase: status refresh every delta ==\n");
  for (int step = 1; step <= 3; ++step) {
    now += kDelta;
    store.apply_freshness({ca.id(), ca.freshness_at(now)}, now);
    auto data = tls::make_app_data(se, ce, Bytes(64, 0xDA));
    const auto action = agent.process(data, now);
    verdict = client.process_established(data, now);
    std::printf("[t=%lld] app data: RA %s, client %s\n", (long long)now,
                action == ra::RevocationAgent::Action::status_refreshed
                    ? "refreshed status"
                    : "passed",
                client::to_string(verdict));
  }

  std::printf("\n== mid-connection revocation (the race condition) ==\n");
  now += 3;
  std::printf("[t=%lld] CA revokes %s's certificate mid-connection\n",
              (long long)now, leaf.subject.c_str());
  store.apply_issuance(ca.revoke({leaf.serial}, now), now);

  now += kDelta;
  store.apply_freshness({ca.id(), ca.freshness_at(now)}, now);
  auto data = tls::make_app_data(se, ce, Bytes(64, 0xDA));
  agent.process(data, now);
  verdict = client.process_established(data, now);
  std::printf("[t=%lld] next server packet carries a PRESENCE proof: %s\n",
              (long long)now, client::to_string(verdict));
  std::printf("    open connections at client: %zu (torn down)\n",
              client.connection_count());

  // A peer RA cross-checks our signed root through the same wire surface
  // (Method::gossip_digest + gossip_pull): consistent replicas reconcile
  // and find no conflict; a split view would surface as non-repudiable
  // evidence.
  std::printf("\n== RA <-> RA gossip reconciliation over the envelope ==\n");
  ra::GossipPool ours(&roots), peers(&roots);
  ours.observe(*store.root_of(ca.id()));
  peers.observe(*store.root_of(ca.id()));
  ra::RaService peer_service(&store, &peers);
  svc::InProcessTransport peer_rpc(&peer_service);
  const auto conflicts = ours.reconcile_over(peer_rpc);
  std::printf("reconciled %zu observation(s): %s\n", ours.size(),
              conflicts && conflicts->empty()
                  ? "views consistent"
                  : "SPLIT VIEW / transport failure");

  std::printf("\nRA stats: %llu packets, %llu statuses attached, "
              "%llu refreshed\n",
              (unsigned long long)agent.stats().packets,
              (unsigned long long)agent.stats().statuses_attached,
              (unsigned long long)agent.stats().statuses_refreshed);
  return 0;
}
