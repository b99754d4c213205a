// ScenarioSpec: the declarative description of one internet-scale workload
// run — how many client flows, how popularity is skewed, when flash crowds
// hit, how the per-CA revocation feed evolves (derived from the paper's
// calibrated trace, eval::RevocationTrace), and whether a Heartbleed-style
// mass-revocation day occurs. The engine (scenario/engine.hpp) compiles a
// spec into a fully deterministic WorkloadPlan; two runs with the same spec
// produce byte-identical flow schedules.
//
// Serial-number model (shared between the feed plan and the flow sampler):
// each CA's queried universe is the integer serials [1, serial_space].
// Revocations — the pre-run corpus, the per-period feed, and the
// mass-revocation burst — consume the odd serials in order (the k-th
// revocation ever issued by a CA revokes serial 2k+1), so even serials are
// never revoked and a Zipf-sampled rank r maps to serial r+1 with a
// deterministic, O(1)-computable revocation status at any virtual time.
// Popular ranks therefore mix presence and absence proofs, exactly like a
// real RA's traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"

namespace ritm::scenario {

/// Ceiling on ScenarioSpec::serial_space, imposed by the 48-bit serial
/// field of the packed flow words (scenario/workload.hpp).
constexpr std::uint64_t kFlowValueMaxSerialSpace =
    (std::uint64_t{1} << 48) - 1;

/// A flash crowd: flow volume in periods [start_period, start_period +
/// periods) is multiplied by `multiplier` (the paper's motivating scenario:
/// everyone re-checks a popular site the moment news of a compromise
/// breaks).
struct FlashCrowd {
  std::uint64_t start_period = 0;
  std::uint64_t periods = 1;
  double multiplier = 4.0;

  bool operator==(const FlashCrowd&) const = default;
};

/// A Heartbleed-style event: CA `ca` revokes `count` serials inside the
/// single period `period` (April 16-17 2014 in the paper's Fig. 4 trace).
struct MassRevocation {
  int ca = 0;
  std::uint64_t period = 1;
  std::uint64_t count = 100'000;

  bool operator==(const MassRevocation&) const = default;
};

struct ScenarioSpec {
  std::string name = "scenario";
  std::uint64_t seed = 42;

  // ------------------------------------------------------------- workload
  /// Total client flows (one flow == one revocation-status check, i.e. one
  /// serial queried; `batch` of them ride one status_batch envelope).
  std::uint64_t flows = 100'000;
  /// Concurrent client driver threads.
  unsigned drivers = 4;
  /// Serials per status_batch envelope. 1 = single status_query envelopes.
  std::uint32_t batch = 16;
  /// Zipf exponent of serial popularity (0 = uniform).
  double zipf_s = 1.1;
  /// Queried serial universe per CA: serials [1, serial_space].
  std::uint64_t serial_space = 1u << 20;
  /// Every canary_every-th flow of a driver queries the newest revocation
  /// published for its CA instead of a Zipf draw — guaranteeing the
  /// attack-window estimator samples fresh revocations even when the Zipf
  /// tail would rarely hit them. 0 disables canaries.
  std::uint32_t canary_every = 64;
  /// Clients Merkle-verify every proof against the served signed root
  /// (real client work; adds ~log(n) hashes per flow).
  bool verify_proofs = true;
  std::vector<FlashCrowd> flash_crowds;

  // ------------------------------------------------------- revocation feed
  /// Number of CAs (CA 0 is the trace's largest; weights follow
  /// eval::RevocationTrace's calibrated shares).
  int cas = 4;
  /// Pre-run revoked corpus per CA (installed via the CDN cold-start path
  /// before any flow runs), split across CAs by trace share.
  std::uint64_t initial_revocations = 50'000;
  /// RITM's ∆ in virtual seconds; period p spans [p∆, (p+1)∆).
  UnixSeconds delta = 10;
  /// Feed periods driven after the bootstrap period 0 (flows run in
  /// periods 1..periods).
  std::uint64_t periods = 24;
  /// Baseline revocations per period across all CAs (before the mass
  /// event), shaped per CA/period by the calibrated trace.
  std::uint64_t feed_revocations_per_period = 512;
  /// Trace day that scenario period 1 maps to (the Fig. 4 window; day 105
  /// is the Heartbleed peak). The per-CA, per-period feed counts follow
  /// trace.daily_for_ca over consecutive days starting here, rescaled to
  /// feed_revocations_per_period on average.
  int trace_day0 = 100;
  std::optional<MassRevocation> mass_revocation;

  // ------------------------------------------------------------ execution
  /// lockstep: periods advance in a barrier loop (publish → pull → flows),
  /// giving a fully deterministic report digest — the CI/testing mode.
  /// When false (freerun), a publisher thread advances periods on a real
  /// clock while drivers race it — the latency/saturation mode.
  bool lockstep = true;
  /// freerun only: real milliseconds per virtual period.
  std::uint32_t period_ms = 50;
  /// Drive flows over real sockets: the engine stands up a multi-reactor
  /// svc::TcpServer and each driver speaks pipelined svc::TcpClient.
  bool tcp = false;
  /// TCP reactors (0 = hardware concurrency).
  unsigned reactors = 2;

  /// CI-scale smoke: 100k flows, 4 CAs, in-process lockstep.
  static ScenarioSpec smoke();

  /// The paper's evaluation day: >= 1M flows, a flash crowd, and a
  /// mass-revocation period where CA 0 revokes 120k serials at once.
  static ScenarioSpec heartbleed();

  /// Deterministic binary encoding of the schedule-shaping fields (seed,
  /// workload, feed — everything except name and the execution knobs:
  /// drivers, lockstep, tcp, ...). This seeds WorkloadPlan::digest(), so
  /// two runs agree on the schedule digest iff they replay the same flows —
  /// regardless of how many threads or which transport carried them.
  Bytes encode_workload() const;

  /// Flow-volume multiplier for period p (product of active flash crowds).
  double crowd_multiplier(std::uint64_t period) const noexcept;

  /// Throws std::invalid_argument when the spec is internally inconsistent
  /// (zero flows/periods/CAs, serial space too small for the revocation
  /// volume, mass-revocation period out of range, ...).
  void validate() const;
};

}  // namespace ritm::scenario
