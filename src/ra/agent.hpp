// The Revocation Agent: RITM's middlebox (paper §III, Fig. 3).
//
// The agent watches packets in both directions. For RITM-offering
// ClientHellos it creates flow state (the paper's Eq. (4) tuple); on the
// server's flight it extracts the certificate, looks up the issuer's
// dictionary replica, and piggybacks a revocation status; on established
// connections it refreshes the status at least every ∆ using the first
// server→client packet after the deadline. Non-TLS traffic and
// non-supporting clients pass through untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "ra/dpi.hpp"
#include "ra/store.hpp"
#include "sim/packet.hpp"

namespace ritm::ra {

/// Connection stage, exactly the paper's state field.
enum class Stage : std::uint8_t {
  client_hello,
  server_hello,
  established,
};

/// Per-flow state, the paper's Eq. (4).
struct FlowState {
  UnixSeconds last_status = 0;  // 0 = never sent
  Stage stage = Stage::client_hello;
  cert::CaId ca;                // empty until the certificate is seen
  cert::SerialNumber serial;
  Bytes session_id;             // for resumption caching
  /// Intermediate certificates (issuer, serial), for chain-proof mode.
  std::vector<std::pair<cert::CaId, cert::SerialNumber>> intermediates;
};

class RevocationAgent {
 public:
  struct Config {
    UnixSeconds delta = 10;
    /// TLS-terminator deployment (§IV "close to the servers"): confirm RITM
    /// support inside ServerHello so clients can detect downgrades.
    bool terminator_mode = false;
    /// Flows idle longer than this are dropped by expire_flows().
    UnixSeconds flow_timeout = 300;
    /// Maximum resumption-cache entries (session id -> certificate info).
    std::size_t session_cache_capacity = 65536;
    /// §VIII "Certificate chains": attach a revocation status for every
    /// certificate in the chain (intermediate CA certificates included),
    /// not only the leaf.
    bool chain_proofs = false;
  };

  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t non_tls = 0;
    std::uint64_t tls_packets = 0;
    std::uint64_t flows_created = 0;
    std::uint64_t flows_established = 0;
    std::uint64_t flows_expired = 0;
    std::uint64_t statuses_attached = 0;    // initial, on server flight
    std::uint64_t statuses_refreshed = 0;   // periodic, mid-connection
    std::uint64_t statuses_replaced = 0;    // multi-RA: ours was fresher
    std::uint64_t statuses_deferred = 0;    // multi-RA: theirs was fresher
    std::uint64_t unknown_ca = 0;
    std::uint64_t resumptions_served = 0;
  };

  enum class Action {
    passed,
    state_created,
    status_attached,
    status_refreshed,
    status_replaced,
    established,
  };

  RevocationAgent(Config config, DictionaryStore* store);

  /// Processes one packet (possibly mutating it by attaching a status).
  Action process(sim::Packet& pkt, UnixSeconds now);

  /// Drops flows idle past the configured timeout ("whenever a supported
  /// connection is finished or timed out, the RA removes the state").
  std::size_t expire_flows(UnixSeconds now);

  /// Explicit teardown (connection close observed out of band).
  void close_flow(const sim::FlowKey& key);

  const Stats& stats() const noexcept { return stats_; }
  std::size_t flow_count() const noexcept { return flows_.size(); }
  const FlowState* flow(const sim::FlowKey& key) const;
  const DictionaryStore& store() const noexcept { return *store_; }
  UnixSeconds delta() const noexcept { return config_.delta; }

 private:
  struct TimedFlow {
    FlowState state;
    UnixSeconds last_seen = 0;
  };
  struct CachedSession {
    cert::CaId ca;
    cert::SerialNumber serial;
  };

  Action handle_server_flight(sim::Packet& pkt, TimedFlow& flow,
                              const Inspection& in, UnixSeconds now);
  /// Attaches/refreshes/replaces the flow's statuses per the multi-RA rule;
  /// returns the action taken for the leaf's.
  Action deliver_status(sim::Packet& pkt, TimedFlow& flow,
                        const Inspection& in, UnixSeconds now);

  Config config_;
  DictionaryStore* store_;
  Stats stats_;
  std::unordered_map<sim::FlowKey, TimedFlow, sim::FlowKeyHash> flows_;
  std::unordered_map<std::string, CachedSession> session_cache_;
};

}  // namespace ritm::ra
