// The RA's serving endpoint: per-flow status queries (single and batched)
// and gossip reconciliation, as one envelope service over the
// DictionaryStore. This is the surface an RA exposes to
// clients and peer RAs — in-process for the simulated deployments,
// svc::TcpServer for real sockets (tools/ritm_serve.cpp).
//
// The batched method is the throughput path: N serials ride one envelope
// and fan out over the status-byte cache, so the per-request framing,
// dispatch, and (on TCP) syscall cost is paid once per batch instead of
// once per serial (`svc_status.batch_speedup` in BENCH_throughput.json).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "ra/gossip.hpp"
#include "ra/store.hpp"
#include "svc/service.hpp"

namespace ritm::ra {

// Body layouts (shared by service, clients, and tools):
//
//   status_query  request:  var8 ca | var8 serial
//                 response: dict::RevocationStatus encoding
//   status_batch  request:  var8 ca | u32 count | count x var8 serial
//                 response: u32 count | count x var24 status encoding
//                 (a serial of 0 or more than cert::kMaxSerialBytes bytes
//                 answers malformed, in either method)
//   gossip_digest request:  u32 ca_count | ca_count x (var8 ca | u32 runs |
//                           runs x (u64 lo | u64 hi | 20B run hash))
//                 response: the server's digest in the same shape
//   gossip_pull   request:  u32 ca_count | ca_count x (var8 ca | u32 ranges |
//                           ranges x (u64 lo | u64 hi)) — the want set —
//                           then u32 count | count x var16 SignedRoot pushed
//                 response: u32 count | count x var16 SignedRoot (wanted),
//                           u32 count | count x (var16, var16) evidence
//                           found observing the pushes
/// Ceiling on serials per status_batch envelope: at the paper's 500-900 B
/// per status, anything larger would push the *response* past the
/// transport frame limit (svc::kMaxFrameBytes) and be rejected by the
/// requester's own decoder. Oversized batches answer frame_too_large.
inline constexpr std::uint32_t kMaxBatchSerials = 32'768;

Bytes encode_status_query(const cert::CaId& ca,
                          const cert::SerialNumber& serial);
Bytes encode_status_batch(const cert::CaId& ca,
                          const std::vector<cert::SerialNumber>& serials);
std::optional<std::vector<Bytes>> decode_status_batch_reply(ByteSpan body);

/// The root list that opens a gossip_pull response:
/// u32 count | count x var16 SignedRoot.
Bytes encode_gossip_roots(const std::vector<dict::SignedRoot>& roots);
/// A whole gossip_pull response.
struct GossipReply {
  std::vector<dict::SignedRoot> roots;          // the roots the caller wanted
  std::vector<MisbehaviourEvidence> evidence;   // conflicts the peer found

  bool operator==(const GossipReply&) const = default;
};
Bytes encode_gossip_reply(const GossipReply& reply);
std::optional<GossipReply> decode_gossip_reply(ByteSpan body);

Bytes encode_gossip_digest(const GossipDigest& digest);
std::optional<GossipDigest> decode_gossip_digest(ByteSpan body);

Bytes encode_gossip_pull(const GossipWant& want,
                         const std::vector<dict::SignedRoot>& push);
struct GossipPullRequest {
  GossipWant want;                      // ranges the caller is missing
  std::vector<dict::SignedRoot> push;   // roots the caller diffed us to lack
};
std::optional<GossipPullRequest> decode_gossip_pull(ByteSpan body);

/// Thread safety: handle() may be called concurrently from the TCP
/// server's reactors and while the store's mutators run: status reads lock
/// the store themselves, counters are relaxed atomics, and the gossip
/// exchange (GossipPool is not thread-safe, and it is off the hot path) is
/// serialized behind its own mutex. A pull that lands mid-batch answers the
/// batch's later serials from the newer root; each status carries its own
/// signed root and freshness, so clients verify each one on its own.
class RaService final : public svc::Service {
 public:
  /// `gossip` may be null: gossip_digest and gossip_pull then answer
  /// `unavailable`. Both pointers must outlive the service.
  explicit RaService(const DictionaryStore* store,
                     GossipPool* gossip = nullptr);

  svc::Response handle(const svc::Request& req) override;

  struct Stats {
    std::uint64_t single_queries = 0;
    std::uint64_t batch_queries = 0;
    std::uint64_t serials_served = 0;
    std::uint64_t gossip_digests = 0;  // digest swaps answered
    std::uint64_t gossip_pulls = 0;    // pull requests answered
    std::uint64_t rejected = 0;  // non-ok responses
  };
  /// Snapshot of the counters (coherent per field under concurrency).
  Stats stats() const noexcept;

 private:
  svc::Response status_query(const svc::Request& req);
  svc::Response status_batch(const svc::Request& req);
  svc::Response gossip_digest(const svc::Request& req);
  svc::Response gossip_pull(const svc::Request& req);

  const DictionaryStore* store_;
  GossipPool* gossip_;
  struct AtomicStats {
    std::atomic<std::uint64_t> single_queries{0};
    std::atomic<std::uint64_t> batch_queries{0};
    std::atomic<std::uint64_t> serials_served{0};
    std::atomic<std::uint64_t> gossip_digests{0};
    std::atomic<std::uint64_t> gossip_pulls{0};
    std::atomic<std::uint64_t> rejected{0};
  };
  AtomicStats stats_;
  std::mutex gossip_mu_;
};

}  // namespace ritm::ra
