// ScenarioEngine: runs a compiled WorkloadPlan against the real serving
// plane.
//
// The engine stands up the full RITM pipeline — CAs with live dictionaries
// and hash chains, a DistributionPoint publishing per-period feed objects
// into a CDN, an RaUpdater that cold-starts every replica from the CDN and
// pulls each period's feed, and an RaService answering status_batch over
// the envelope API — then replays the plan's flows from `drivers`
// concurrent client threads. Two execution modes:
//
//   * lockstep (CI / tests): periods advance in a barrier loop
//     (revoke+publish → pull → flows), so every verdict, staleness sample,
//     and attack-window sample is a pure function of the spec — the report
//     digest is byte-identical across runs and driver counts.
//   * freerun (saturation / latency): a publisher thread advances periods
//     on a real clock while drivers race it; the store orders its pulls
//     against serving reads itself, and lag shows up as staleness instead
//     of being impossible.
//
// Transports: in-process envelope dispatch by default; spec.tcp = true
// stands up a multi-reactor svc::TcpServer and gives every driver its own
// pipelined svc::TcpClient — same frames, real sockets.
//
// Each driver judges every served status with its own client::RitmClient
// trusting the run's CA keys, the client every other path uses: signed
// root, freshness statement and Merkle proof are all checked
// (judge_status). The driver dates the served status by walking its
// freshness statement to the root's anchor (for staleness) and
// cross-checks the verdict against the plan's ground truth.
#pragma once

#include <optional>

#include "client/client.hpp"
#include "scenario/report.hpp"
#include "scenario/workload.hpp"

namespace ritm::scenario {

/// How a flow's client judged one served status.
struct Judgement {
  client::Verdict verdict = client::Verdict::missing_status;
  /// The verdict is neither accepted nor revoked, or the ground truth
  /// contradicts it.
  bool wrong = false;
};

/// Judges one served status the way every client does:
/// client.validate_status_bytes(status, leaf, now), where `leaf` carries
/// the queried issuer and serial. `revoked` is the ground truth where the
/// harness knows it (nullopt where it does not).
Judgement judge_status(const client::RitmClient& client, ByteSpan status,
                       const cert::Certificate& leaf, UnixSeconds now,
                       std::optional<bool> revoked);

class ScenarioEngine {
 public:
  /// Compiles the plan (throws std::invalid_argument on a bad spec).
  explicit ScenarioEngine(ScenarioSpec spec);

  const WorkloadPlan& plan() const noexcept { return plan_; }

  /// Builds the world, replays every flow, and reports. Throws
  /// std::runtime_error if the world cannot be assembled (a cold start or
  /// bootstrap refused) — never for flow-level failures, which are counted
  /// in the report instead.
  ScenarioReport run();

 private:
  WorkloadPlan plan_;
};

}  // namespace ritm::scenario
